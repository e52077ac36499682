// Per-queue meter accounting, driven through the multi-queue backend.
// External test package: mqnic imports core, so these tests cannot live
// inside package core itself.
package core_test

import (
	"reflect"
	"testing"

	"twindrivers/internal/core"
	"twindrivers/internal/cycles"
	"twindrivers/internal/mem"
	"twindrivers/internal/mqnic"
)

// runShardedTraffic builds an mqnic twin at the given queue count, moves
// a fixed batch workload from every guest through ServiceRings, and
// returns the machine and twin for meter inspection.
func runShardedTraffic(t *testing.T, guests, queues int) (*core.Machine, *core.Twin) {
	t.Helper()
	m, tw, err := core.NewTwinMachineModel(1, guests, mqnic.DriverModel(), core.TwinConfig{Queues: queues})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	d.Dev.SetOnTransmit(func([]byte) {})
	for gi, dom := range m.Guests {
		frames := make([][]byte, 8)
		for i := range frames {
			payload := make([]byte, 400)
			for j := range payload {
				payload[j] = byte(gi + i + j)
			}
			frames[i] = core.EthernetFrame(
				[6]byte{2, 2, 2, 2, 2, 2},
				[6]byte{0x02, 0x60, 0, 0, byte(gi), byte(i)},
				0x0800, payload)
		}
		if _, err := tw.StageTransmitBatch(dom, frames); err != nil {
			t.Fatalf("guest %d stage: %v", gi, err)
		}
	}
	if _, err := tw.ServiceRings(d, 0); err != nil {
		t.Fatalf("service: %v", err)
	}
	return m, tw
}

// TestServiceAllQueuesMatchesSequential pins the multi-queue sweep of
// ServiceRings on a 4-guest, 4-queue mqnic twin, for a full drain and for
// crossings budgeted to cut every queue's sweep mid-backlog: every guest's
// staged frames reach the wire complete and in order, every queue that
// owns a guest meters its own work, the critical path (machine meter plus
// the slowest queue) stays below the total work, and a second identical
// run lands on the same cycles — machine meter and every queue's own. The
// deprecated ServiceAllQueues alias must be that same sweep, cycle for
// cycle (it lost its goroutines; the name goes with ROADMAP 1(a)).
func TestServiceAllQueuesMatchesSequential(t *testing.T) {
	type outcome struct {
		sent   map[mem.Owner]int
		wire   map[int][][]byte
		cycles []string // machine meter, then each queue's
	}
	const perGuest = 6
	staged := func(gi int) [][]byte {
		frames := make([][]byte, perGuest)
		for i := range frames {
			payload := make([]byte, 300+i)
			for j := range payload {
				payload[j] = byte(gi*31 + i + j)
			}
			// Source MAC byte 5 tags the staging guest.
			frames[i] = core.EthernetFrame(
				[6]byte{2, 2, 2, 2, 2, 2},
				[6]byte{0x02, 0x61, 0, 0, byte(i), byte(gi)},
				0x0800, payload)
		}
		return frames
	}
	run := func(alias bool, budget int) outcome {
		m, tw, err := core.NewTwinMachineModel(1, 4, mqnic.DriverModel(), core.TwinConfig{Queues: 4})
		if err != nil {
			t.Fatal(err)
		}
		d := m.Devs[0]
		out := outcome{wire: make(map[int][][]byte)}
		d.Dev.SetOnTransmit(func(pkt []byte) {
			out.wire[int(pkt[11])] = append(out.wire[int(pkt[11])], append([]byte(nil), pkt...))
		})
		stage := func() {
			for gi, dom := range m.Guests {
				if _, err := tw.StageTransmitBatch(dom, staged(gi)); err != nil {
					t.Fatalf("guest %d stage: %v", gi, err)
				}
			}
		}
		// One warm-up drain first: the queues' meters are private but the
		// stlb is shared, so the first sweep pays every first touch.
		stage()
		if _, err := tw.ServiceRings(d, 0); err != nil {
			t.Fatalf("warm-up: %v", err)
		}
		m.HV.Meter.Reset()
		tw.ResetQueueMeters()
		out.sent, out.wire = make(map[mem.Owner]int), make(map[int][][]byte)
		stage()
		service := tw.ServiceRings
		if alias {
			service = tw.ServiceAllQueues
		}
		for total := 0; total < perGuest*len(m.Guests); {
			sent, err := service(d, budget)
			if err != nil {
				t.Fatalf("service (alias=%v, budget=%d): %v", alias, budget, err)
			}
			for id, n := range sent {
				out.sent[id] += n
				total += n
			}
			if len(sent) == 0 {
				t.Fatalf("crossing made no progress at %d frames", total)
			}
		}
		out.cycles = append(out.cycles, m.HV.Meter.String())
		critical, work := m.HV.Meter.Total(), m.HV.Meter.Total()
		var slowest uint64
		for q, qm := range tw.QueueMeters() {
			out.cycles = append(out.cycles, qm.String())
			if qm.Total() == 0 {
				t.Errorf("budget %d: queue %d owns a guest but metered no cycles", budget, q)
			}
			slowest = max(slowest, qm.Total())
			work += qm.Total()
		}
		if critical += slowest; critical >= work {
			t.Errorf("budget %d: critical path %d not below total work %d", budget, critical, work)
		}
		for gi, dom := range m.Guests {
			if out.sent[dom.ID] != perGuest || !reflect.DeepEqual(out.wire[gi], staged(gi)) {
				t.Errorf("budget %d: guest %d reported %d sent, %d frames on the wire; want its %d staged frames in order",
					budget, gi, out.sent[dom.ID], len(out.wire[gi]), perGuest)
			}
		}
		return out
	}
	// Budget 4 cuts every queue's sweep (6 staged per queue) mid-backlog.
	for _, budget := range []int{0, 4} {
		seq, again, alias := run(false, budget), run(false, budget), run(true, budget)
		if !reflect.DeepEqual(seq.cycles, again.cycles) {
			t.Fatalf("budget %d: cycles differ between identical runs:\n %v\n %v", budget, seq.cycles, again.cycles)
		}
		if !reflect.DeepEqual(seq, alias) {
			t.Fatalf("budget %d: the ServiceAllQueues alias is not ServiceRings:\n sequential %v\n alias      %v", budget, seq.cycles, alias.cycles)
		}
	}
}

// TestQueueMetersDegenerateIsGlobalMeter is the regression pin for every
// pre-multi-queue measurement: at one service queue the per-queue meter
// IS the machine meter, so merging the queue meters reproduces the
// global breakdown exactly — same buckets, same total, cycle for cycle.
// Every single-queue backend's committed bench baseline rests on this.
func TestQueueMetersDegenerateIsGlobalMeter(t *testing.T) {
	m, tw := runShardedTraffic(t, 4, 1)
	if n := tw.QueueCount(); n != 1 {
		t.Fatalf("QueueCount = %d, want 1", n)
	}
	qms := tw.QueueMeters()
	if len(qms) != 1 {
		t.Fatalf("QueueMeters has %d entries, want 1", len(qms))
	}
	if qms[0] != m.HV.Meter {
		t.Fatal("degenerate queue meter is not the machine meter")
	}
	merged := cycles.NewMeter()
	merged.Merge(qms...)
	if merged.Total() != m.HV.Meter.Total() {
		t.Fatalf("merged total %d != global meter total %d", merged.Total(), m.HV.Meter.Total())
	}
	if !reflect.DeepEqual(merged.Breakdown(), m.HV.Meter.Breakdown()) {
		t.Fatalf("merged breakdown %v != global breakdown %v", merged.Breakdown(), m.HV.Meter.Breakdown())
	}
}

// TestQueueMetersMergeConserves asserts the sharded accounting loses
// nothing: with four queues, every queue owning a guest metered work,
// the guests landed on more than one queue, and a Merge over the queue
// meters carries exactly the sum of their totals — per-queue accounting
// partitions the service work, it does not duplicate or drop any of it.
func TestQueueMetersMergeConserves(t *testing.T) {
	m, tw := runShardedTraffic(t, 4, 4)
	if n := tw.QueueCount(); n != 4 {
		t.Fatalf("QueueCount = %d, want 4", n)
	}
	owners := make(map[int]int)
	for _, dom := range m.Guests {
		q := tw.QueueOf(dom.ID)
		if q < 0 || q >= 4 {
			t.Fatalf("guest %d on queue %d", dom.ID, q)
		}
		owners[q]++
	}
	if len(owners) < 2 {
		t.Fatalf("4 guests all sharded onto %d queue(s)", len(owners))
	}
	qms := tw.QueueMeters()
	var sum uint64
	for q, qm := range qms {
		if owners[q] > 0 && qm.Total() == 0 {
			t.Errorf("queue %d owns %d guests but metered no cycles", q, owners[q])
		}
		if owners[q] == 0 && qm.Total() != 0 {
			t.Errorf("queue %d owns no guests but metered %d cycles", q, qm.Total())
		}
		sum += qm.Total()
	}
	merged := cycles.NewMeter()
	merged.Merge(qms...)
	if merged.Total() != sum {
		t.Fatalf("merge total %d != sum of queue totals %d", merged.Total(), sum)
	}
	if sum == 0 {
		t.Fatal("no queue metered any work")
	}
}
