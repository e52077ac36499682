package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"twindrivers/internal/core"
	"twindrivers/internal/mem"
	"twindrivers/internal/mqnic"
)

// DRR weighted-fair scheduler properties (testing/quick, like the batch
// monotonicity properties): proportional shares, work conservation,
// starvation freedom, and rate-limit enforcement — the SLA contract of
// TwinConfig.Weights/Rates stated as machine-checked invariants.

// schedTwin builds a single-queue e1000 twin with nGuests guests and
// the given scheduler config, wire sunk.
func schedTwin(t *testing.T, nGuests int, cfg core.TwinConfig) (*core.Machine, *core.Twin, *core.NICDev) {
	t.Helper()
	m, tw, err := core.NewTwinMachine(1, nGuests, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	d.NIC.OnTransmit = func([]byte) {}
	return m, tw, d
}

// schedFrame builds one minimal frame tagged with the staging guest.
func schedFrame(gi, i int) []byte {
	return core.EthernetFrame(
		[6]byte{0, 0x50, 0x56, 9, 9, 9}, // external dst: never switch-local
		[6]byte{0x02, 0x5C, 0, 0, byte(gi), byte(i)},
		0x0800, []byte{byte(gi), byte(i)})
}

// topUp keeps every guest's staged ring full.
func topUp(t *testing.T, m *core.Machine, tw *core.Twin, gi int) {
	t.Helper()
	dom := m.Guests[gi]
	n, err := tw.StagedTx(dom.ID)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, core.TxRingSlots-1-n)
	for i := range frames {
		frames[i] = schedFrame(gi, i)
	}
	if len(frames) == 0 {
		return
	}
	if _, err := tw.StageTransmitBatch(dom, frames); err != nil {
		t.Fatalf("guest %d stage: %v", gi, err)
	}
}

// TestQuickSchedProportionalShares: with every guest continuously
// backlogged, long-run throughput shares are proportional to weights
// within 5%, for any weight vector.
func TestQuickSchedProportionalShares(t *testing.T) {
	prop := func(rawW [4]uint8) bool {
		weights := make([]int, 4)
		totalW := 0
		for i, w := range rawW {
			weights[i] = 1 + int(w)%8
			totalW += weights[i]
		}
		m, tw, d := schedTwin(t, 4, core.TwinConfig{Weights: weights})
		sent := make(map[mem.Owner]int)
		const crossings = 40
		const budget = 24
		for c := 0; c < crossings; c++ {
			for gi := range m.Guests {
				topUp(t, m, tw, gi)
			}
			got, err := tw.ServiceRings(d, budget)
			if err != nil {
				t.Logf("service: %v", err)
				return false
			}
			for id, n := range got {
				sent[id] += n
			}
		}
		total := crossings * budget
		for gi, dom := range m.Guests {
			want := float64(total) * float64(weights[gi]) / float64(totalW)
			got := float64(sent[dom.ID])
			if got < want*0.95 || got > want*1.05 {
				t.Logf("weights=%v guest %d: got %.0f want %.0f±5%%", weights, gi, got, want)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 6, Rand: rand.New(rand.NewSource(0xD22))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSchedWorkConserving: idle guests donate their bandwidth —
// with only one guest backlogged, it receives the entire budget no
// matter how the weights favor the idle guests.
func TestQuickSchedWorkConserving(t *testing.T) {
	prop := func(rawActive uint8, rawW [4]uint8) bool {
		weights := make([]int, 4)
		for i, w := range rawW {
			weights[i] = 1 + int(w)%8
		}
		active := int(rawActive) % 4
		m, tw, d := schedTwin(t, 4, core.TwinConfig{Weights: weights})
		const budget = 16
		topUp(t, m, tw, active)
		sent, err := tw.ServiceRings(d, budget)
		if err != nil {
			t.Logf("service: %v", err)
			return false
		}
		if got := sent[m.Guests[active].ID]; got != budget {
			t.Logf("weights=%v active=%d: got %d of budget %d", weights, active, got, budget)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(0xC0572))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSchedStarvationFree: one full deficit round serves every
// backlogged guest exactly its weight — so with a budget of one
// round's quantum sum, even the lightest guest progresses. This is the
// starvation proof: no weight vector can shut a backlogged guest out.
func TestQuickSchedStarvationFree(t *testing.T) {
	prop := func(rawW [6]uint8) bool {
		weights := make([]int, 6)
		totalW := 0
		for i, w := range rawW {
			weights[i] = 1 + int(w)%5
			totalW += weights[i]
		}
		m, tw, d := schedTwin(t, 6, core.TwinConfig{Weights: weights})
		for gi := range m.Guests {
			topUp(t, m, tw, gi)
		}
		sent, err := tw.ServiceRings(d, totalW)
		if err != nil {
			t.Logf("service: %v", err)
			return false
		}
		for gi, dom := range m.Guests {
			if sent[dom.ID] != weights[gi] {
				t.Logf("weights=%v guest %d: got %d, want exactly its weight %d in one round",
					weights, gi, sent[dom.ID], weights[gi])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 8, Rand: rand.New(rand.NewSource(0x57A12))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestSchedRateLimit: a rate-capped guest consumes exactly its cap per
// crossing regardless of backlog or weight, and the leftover service
// goes to the others (the cap is a ceiling, not a reservation).
func TestSchedRateLimit(t *testing.T) {
	m, tw, d := schedTwin(t, 3, core.TwinConfig{
		Weights: []int{8, 1, 1},
		Rates:   []int{3, 0, 0},
	})
	for gi := range m.Guests {
		topUp(t, m, tw, gi)
	}
	sent, err := tw.ServiceRings(d, 0) // full drain
	if err != nil {
		t.Fatal(err)
	}
	if got := sent[m.Guests[0].ID]; got != 3 {
		t.Fatalf("capped guest sent %d, rate is 3", got)
	}
	// Uncapped guests drain completely despite the heavy neighbor's
	// weight advantage.
	for _, gi := range []int{1, 2} {
		if got := sent[m.Guests[gi].ID]; got != core.TxRingSlots-1 {
			t.Fatalf("uncapped guest %d sent %d, want full ring %d", gi, got, core.TxRingSlots-1)
		}
	}
	// Next crossing: the cap is per crossing, so the capped guest moves
	// again.
	sent, err = tw.ServiceRings(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := sent[m.Guests[0].ID]; got != 3 {
		t.Fatalf("capped guest sent %d on second crossing, rate is 3", got)
	}
}

// refRoundRobin is the oracle for the unit-weight sweep: plain
// round-robin over per-guest frame queues (each guest's staged frames
// ahead of its posted ones), one frame per visit, the position kept
// across crossings so a budget cut resumes where it stopped.
type refRoundRobin struct {
	queues [][][]byte
	pos    int
}

func (r *refRoundRobin) cross(budget int) (order [][]byte, counts []int) {
	counts = make([]int, len(r.queues))
	for idle := 0; idle < len(r.queues) && (budget == 0 || len(order) < budget); r.pos = (r.pos + 1) % len(r.queues) {
		q := &r.queues[r.pos]
		if len(*q) == 0 {
			idle++
			continue
		}
		order, *q = append(order, (*q)[0]), (*q)[1:]
		counts[r.pos]++
		idle = 0
	}
	return order, counts
}

// TestSchedUnitWeightsAreRoundRobin: with nil Weights and Rates (every
// guest weighs 1, no caps) the DRR sweep is exactly round-robin — the
// per-guest counts and the wire order of every crossing match the
// reference above, over staged-only, posted-only and mixed backlogs,
// drained in one crossing and under budgets that cut mid-cycle.
func TestSchedUnitWeightsAreRoundRobin(t *testing.T) {
	// backlog[g] = {staged, posted} frames of guest g.
	backlogs := map[string][][2]int{
		"staged": {{5, 0}, {6, 0}, {7, 0}, {8, 0}},
		"posted": {{0, 3}, {0, 4}, {0, 5}, {0, 6}},
		"mixed":  {{4, 4}, {6, 0}, {0, 5}, {2, 3}},
	}
	// setup stages and posts a backlog and returns the reference primed
	// with the same frames plus the wire capture.
	setup := func(t *testing.T, backlog [][2]int) (*core.Machine, *core.Twin, *core.NICDev, *refRoundRobin, *[][]byte) {
		t.Helper()
		m, tw, d := schedTwin(t, len(backlog), core.TwinConfig{})
		var wire [][]byte
		d.NIC.OnTransmit = func(pkt []byte) { wire = append(wire, append([]byte(nil), pkt...)) }
		ref := &refRoundRobin{queues: make([][][]byte, len(backlog))}
		for gi, dom := range m.Guests {
			staged := make([][]byte, backlog[gi][0])
			for i := range staged {
				staged[i] = schedFrame(gi, i)
			}
			if n, err := tw.StageTransmitBatch(dom, staged); err != nil || n != len(staged) {
				t.Fatalf("guest %d staged %d of %d: %v", gi, n, len(staged), err)
			}
			var descs []core.TxPost
			for i := 0; i < backlog[gi][1]; i++ {
				f := schedFrame(gi, 100+i)
				buf := m.HV.AllocHeap(dom, core.TxSlotBytes)
				if err := dom.AS.WriteBytes(buf, f); err != nil {
					t.Fatal(err)
				}
				descs = append(descs, core.TxPost{Addr: buf, Len: uint32(len(f))})
				staged = append(staged, f)
			}
			if n, err := tw.PostTxDescriptors(dom, descs); err != nil || n != len(descs) {
				t.Fatalf("guest %d posted %d of %d: %v", gi, n, len(descs), err)
			}
			ref.queues[gi] = staged
		}
		return m, tw, d, ref, &wire
	}
	// crossing runs one ServiceRings crossing and checks it against the
	// reference's; it returns the frames the crossing put on the wire.
	crossing := func(t *testing.T, m *core.Machine, tw *core.Twin, d *core.NICDev, ref *refRoundRobin, wire *[][]byte, budget int) [][]byte {
		t.Helper()
		before := len(*wire)
		sent, err := tw.ServiceRings(d, budget)
		if err != nil {
			t.Fatal(err)
		}
		want, counts := ref.cross(budget)
		got := (*wire)[before:]
		if len(got) != len(want) {
			t.Fatalf("budget %d: wire saw %d frames, round-robin sends %d", budget, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("budget %d: wire frame %d differs from round-robin order", budget, i)
			}
		}
		for gi, dom := range m.Guests {
			if sent[dom.ID] != counts[gi] {
				t.Fatalf("budget %d: guest %d sent %d, round-robin sends %d", budget, gi, sent[dom.ID], counts[gi])
			}
		}
		return got
	}
	for name, backlog := range backlogs {
		// Budget 0 drains in one crossing; 3 and 5 cut mid-cycle at a
		// different guest every crossing (4 guests).
		for _, budget := range []int{0, 3, 5} {
			t.Run(fmt.Sprintf("%s/budget=%d", name, budget), func(t *testing.T) {
				m, tw, d, ref, wire := setup(t, backlog)
				total := 0
				for _, b := range backlog {
					total += b[0] + b[1]
				}
				for len(*wire) < total {
					if len(crossing(t, m, tw, d, ref, wire, budget)) == 0 {
						t.Fatalf("crossing made no progress at %d of %d frames", len(*wire), total)
					}
				}
			})
		}
	}

	// The two deliberate departures from the loop this sweep replaced,
	// which took a staged+posted pair per guest per pass and restarted
	// every crossing at the shard's first guest.
	t.Run("both-rings-share-one-quantum-staged-first", func(t *testing.T) {
		m, tw, d, ref, wire := setup(t, backlogs["mixed"])
		got := crossing(t, m, tw, d, ref, wire, len(m.Guests)) // exactly one round
		for gi := range m.Guests {
			if src := got[gi][10]; int(src) != gi {
				t.Fatalf("round slot %d went to guest %d: using both rings doubled a share", gi, src)
			}
		}
		if !bytes.Equal(got[0], schedFrame(0, 0)) {
			t.Fatal("guest 0 is backlogged on both rings and its posted frame went first")
		}
	})
	t.Run("budget-cut-resumes-at-interrupted-guest", func(t *testing.T) {
		m, tw, d, ref, wire := setup(t, backlogs["staged"])
		crossing(t, m, tw, d, ref, wire, 2) // guests 0 and 1, cut before guest 2
		got := crossing(t, m, tw, d, ref, wire, 2)
		if got[0][10] != 2 || got[1][10] != 3 {
			t.Fatalf("second crossing served guests %d,%d: want 2,3 (no restart at the shard's first guest)", got[0][10], got[1][10])
		}
	})
}

// TestServiceAllQueuesDRR: the weighted-fair sweep across all the queues
// of one ServiceRings crossing (the name dates from the goroutine-per-queue
// sweep it once ran). Weights apply within each queue's shard: a crossing
// budgeted to 4 descriptors per queue consumes exactly 4 from every queue,
// the guests sharing a queue are never more than one DRR round apart in
// service per unit of weight, and the drain that follows moves everything
// staged.
func TestServiceAllQueuesDRR(t *testing.T) {
	const guests, queues, budget = 8, 4, 4
	m, tw, err := core.NewTwinMachineModel(1, guests, mqnic.DriverModel(), core.TwinConfig{
		Queues:  queues,
		Weights: []int{3, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	d.Dev.SetOnTransmit(func([]byte) {})
	total := 0
	for gi, dom := range m.Guests {
		frames := make([][]byte, 12)
		for i := range frames {
			frames[i] = schedFrame(gi, i)
		}
		n, err := tw.StageTransmitBatch(dom, frames)
		if err != nil {
			t.Fatalf("guest %d stage: %v", gi, err)
		}
		total += n
	}
	cut, err := tw.ServiceRings(d, budget)
	if err != nil {
		t.Fatal(err)
	}
	perQueue := make([]int, queues)
	lo, hi := make([]float64, queues), make([]float64, queues) // rounds of service, per queue
	for q := range lo {
		lo[q] = budget
	}
	for gi, dom := range m.Guests {
		w := tw.GuestWeight(dom.ID)
		if w != []int{3, 1}[gi%2] {
			t.Fatalf("guest %d weight = %d", gi, w)
		}
		q, rounds := tw.QueueOf(dom.ID), float64(cut[dom.ID])/float64(w)
		lo[q], hi[q] = min(lo[q], rounds), max(hi[q], rounds)
		perQueue[q] += cut[dom.ID]
	}
	for q, n := range perQueue {
		if n != budget {
			t.Errorf("queue %d consumed %d descriptors under budget %d", q, n, budget)
		}
		if hi[q]-lo[q] > 1 {
			t.Errorf("queue %d: guests %.2f to %.2f rounds of service apart", q, lo[q], hi[q])
		}
	}
	rest, err := tw.ServiceRings(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, dom := range m.Guests {
		got += cut[dom.ID] + rest[dom.ID]
	}
	if got != total {
		t.Fatalf("drained %d of %d staged", got, total)
	}
}
