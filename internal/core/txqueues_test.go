// Posted-transmit descriptors under per-queue service, driven through
// the multi-queue backend. External test package: mqnic imports core, so
// these tests cannot live inside package core itself.
package core_test

import (
	"reflect"
	"testing"

	"twindrivers/internal/core"
	"twindrivers/internal/mqnic"
)

// TestPostedTxParallelQueuesMatchSequential pins posted transmit across
// the queues of one ServiceRings crossing (the name dates from the
// goroutine-per-queue sweep it once also ran): four guests on a 4-queue
// mqnic twin each write six frames into their own buffers and post the
// (addr,len) descriptors; one crossing puts every guest's frames on the
// wire byte for byte and in posting order — descriptor snapshots,
// guest-TLB lookups and pin-table updates included — reports six sent per
// guest, and loses no posted frame on any queue.
func TestPostedTxParallelQueuesMatchSequential(t *testing.T) {
	const perGuest = 6
	m, tw, err := core.NewTwinMachineModel(1, 4, mqnic.DriverModel(), core.TwinConfig{Queues: 4})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	wire := make(map[int][][]byte) // by source-MAC byte 11, the posting guest
	d.Dev.SetOnTransmit(func(pkt []byte) {
		wire[int(pkt[11])] = append(wire[int(pkt[11])], append([]byte(nil), pkt...))
	})
	posted := make(map[int][][]byte)
	for gi, dom := range m.Guests {
		descs := make([]core.TxPost, perGuest)
		for i := range descs {
			payload := make([]byte, 320+i)
			for j := range payload {
				payload[j] = byte(gi*37 + i + j)
			}
			f := core.EthernetFrame(
				[6]byte{2, 2, 2, 2, 2, 2},
				[6]byte{0x02, 0x62, 0, 0, byte(i), byte(gi)},
				0x0800, payload)
			buf := m.HV.AllocHeap(dom, 2048)
			if err := dom.AS.WriteBytes(buf, f); err != nil {
				t.Fatalf("guest %d frame %d: %v", gi, i, err)
			}
			descs[i] = core.TxPost{Addr: buf, Len: uint32(len(f))}
			posted[gi] = append(posted[gi], f)
		}
		if n, err := tw.PostTxDescriptors(dom, descs); err != nil || n != len(descs) {
			t.Fatalf("guest %d posted %d: %v", gi, n, err)
		}
	}
	sent, err := tw.ServiceRings(d, 0)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	queues := make(map[int]bool)
	for gi, dom := range m.Guests {
		queues[tw.QueueOf(dom.ID)] = true
		if lost := tw.PostedTxLost(dom.ID); lost != 0 {
			t.Errorf("guest %d lost %d posted frames", gi, lost)
		}
		if sent[dom.ID] != perGuest {
			t.Errorf("guest %d: %d sent, want %d", gi, sent[dom.ID], perGuest)
		}
		if !reflect.DeepEqual(wire[gi], posted[gi]) {
			t.Errorf("guest %d: %d frames on the wire, want its %d posted frames in order", gi, len(wire[gi]), perGuest)
		}
	}
	if len(queues) < 2 {
		t.Fatalf("4 guests all sharded onto %d queue(s): no per-queue posted service exercised", len(queues))
	}
}
