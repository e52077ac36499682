package core

import (
	"errors"
	"testing"

	"twindrivers/internal/kernel"
)

// Error-path pool invariants: every non-fatal transmit or delivery failure
// must leave PoolFree unchanged (transmit) or return every dequeued buffer
// (receive). Before the fixes, each such failure silently drained the pool
// until every transmit reported ErrTxBusy.

// TestPoolRestoredAfterCopyFault: a transmit whose guest staging address
// does not resolve (mem.Copy fault after poolGet) must return the pooled
// skb.
func TestPoolRestoredAfterCopyFault(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 1, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	capture(d)
	m.HV.Switch(m.DomU)
	free := tw.PoolFree()
	for i := 0; i < 5; i++ {
		if err := tw.GuestTransmitAt(d, 0x10, 64); err == nil {
			t.Fatal("transmit from an unmapped guest address succeeded")
		} else if errors.Is(err, ErrDriverDead) {
			t.Fatalf("copy fault killed the instance: %v", err)
		}
	}
	if got := tw.PoolFree(); got != free {
		t.Fatalf("pool leaked on copy faults: %d -> %d", free, got)
	}
	// And the path still works.
	if err := tw.GuestTransmit(d, EthernetFrame([6]byte{1, 1, 1, 1, 1, 1}, d.NIC.MAC, 0x0800, payload(200, 1))); err != nil {
		t.Fatal(err)
	}
}

// TestPoolRestoredAfterTranslateFault: a pooled skb whose head pointer
// cannot be SVM-translated (first failure point after poolGet) must come
// back to the pool on the error path.
func TestPoolRestoredAfterTranslateFault(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 1, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	capture(d)
	m.HV.Switch(m.DomU)
	free := tw.PoolFree()
	// Corrupt the head pointer of the skb poolGet will hand out next; SVM
	// refuses to translate an address outside dom0's mappings.
	victim := tw.pool[len(tw.pool)-1]
	savedHead, _ := m.Dom0.AS.Load(victim+kernel.SkbHead, 4)
	if err := m.Dom0.AS.Store(victim+kernel.SkbHead, 4, 0x10); err != nil {
		t.Fatal(err)
	}
	frame := EthernetFrame([6]byte{1, 1, 1, 1, 1, 1}, d.NIC.MAC, 0x0800, payload(200, 1))
	if err := tw.GuestTransmit(d, frame); err == nil {
		t.Fatal("transmit with an untranslatable skb head succeeded")
	} else if errors.Is(err, ErrDriverDead) {
		t.Fatalf("translate fault killed the instance: %v", err)
	}
	if got := tw.PoolFree(); got != free {
		t.Fatalf("pool leaked on translate fault: %d -> %d", free, got)
	}
	// Heal the skb and confirm the pool cycles normally again.
	if err := m.Dom0.AS.Store(victim+kernel.SkbHead, 4, savedHead); err != nil {
		t.Fatal(err)
	}
	if err := tw.GuestTransmit(d, frame); err != nil {
		t.Fatal(err)
	}
}

// TestPoolRestoredAfterBatchDescriptorFault: a bogus descriptor address
// mid-batch aborts the batch short, but the skb grabbed for the faulting
// frame must return to the pool.
func TestPoolRestoredAfterBatchDescriptorFault(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 1, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	got := capture(d)
	m.HV.Switch(m.DomU)
	free := tw.PoolFree()

	// Stage three frames, then corrupt the middle descriptor's address
	// word to an unmapped guest address before the drain.
	g := tw.guestIO[m.DomU.ID]
	frames := guestFrames(d, 0, 3, 500)
	if staged, err := tw.StageTransmitBatch(m.DomU, frames); err != nil || staged != 3 {
		t.Fatalf("staged %d: %v", staged, err)
	}
	if err := m.DomU.AS.Store(g.ring.Base+16+1*8, 4, 0x10); err != nil {
		t.Fatal(err)
	}
	sent, err := tw.ServiceRings(d, 0)
	if err == nil {
		t.Fatal("drain over a bogus descriptor succeeded")
	}
	if sent[m.DomU.ID] != 1 || len(*got) != 1 {
		t.Fatalf("sent %v wire %d, want the pre-fault frame only", sent, len(*got))
	}
	if got := tw.PoolFree(); got-free != -1 {
		// One skb is legitimately in flight on the device ring for the
		// transmitted frame (reaped by the next interrupt); the faulting
		// frame's skb must NOT be missing too.
		t.Fatalf("pool delta = %d, want -1 (one frame genuinely in flight)", got-free)
	}
}

// TestPoolRestoredAfterErrTxBusy: a transmit refused by the device (driver
// returns busy) recycles the skb immediately — the pre-existing behaviour,
// pinned here alongside the new error paths.
func TestPoolRestoredAfterErrTxBusy(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 1, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	capture(d)
	// Hold the adapter lock so the derived driver's trylock fails and it
	// reports busy without queueing anything.
	priv, _ := m.Dom0.AS.Load(d.Netdev+kernel.NdPriv, 4)
	if err := m.Dom0.AS.Store(priv+adLock, 4, 1); err != nil {
		t.Fatal(err)
	}
	m.HV.Switch(m.DomU)
	free := tw.PoolFree()
	frame := EthernetFrame([6]byte{1, 1, 1, 1, 1, 1}, d.NIC.MAC, 0x0800, payload(300, 1))
	for i := 0; i < 4; i++ {
		if err := tw.GuestTransmit(d, frame); !errors.Is(err, ErrTxBusy) {
			t.Fatalf("err = %v, want ErrTxBusy", err)
		}
	}
	if got := tw.PoolFree(); got != free {
		t.Fatalf("pool leaked on ErrTxBusy: %d -> %d", free, got)
	}
}

// TestDeliverBatchReturnsRemainingOnFault: packets are dequeued up front;
// a mid-batch fault must still return every dequeued skb to the pool (or
// slab) instead of leaking the tail of the batch.
func TestDeliverBatchReturnsRemainingOnFault(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 1, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	m.HV.Switch(m.DomU)
	// Warm the RX ring past its initial dom0-slab fill so the queued skbs
	// below are pool-provenance (the interrupt path refills from the pool)
	// and a leak is visible as lost pool capacity. Frames must exceed the
	// driver's copybreak so each delivery consumes its posted ring buffer.
	for i := 0; i < 300; i++ {
		if !d.NIC.Inject(EthernetFrame(d.NIC.MAC, [6]byte{3, 3, 3, 3, 3, byte(i)}, 0x0800, payload(400, byte(i)))) {
			t.Fatal("warm inject")
		}
		if err := tw.HandleIRQ(d); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.DeliverPending(m.DomU); err != nil {
			t.Fatal(err)
		}
	}
	const n = 6
	for i := 0; i < n; i++ {
		if !d.NIC.Inject(EthernetFrame(d.NIC.MAC, [6]byte{3, 3, 3, 3, 3, byte(i)}, 0x0800, payload(400, byte(i)))) {
			t.Fatal("inject")
		}
	}
	if err := tw.HandleIRQ(d); err != nil {
		t.Fatal(err)
	}
	rq := tw.rxQueues[m.DomU.ID]
	if rq.len() != n {
		t.Fatalf("queued %d", rq.len())
	}
	q := make([]uint32, rq.len())
	for i := range q {
		q[i] = rq.skbs[(rq.head+i)%len(rq.skbs)]
	}
	// Every queued skb should now be pool-provenance; corrupt the third
	// packet's data pointer so its translate faults mid-batch.
	pooled := 0
	for _, skb := range q {
		if v, _ := m.Dom0.AS.Load(skb+kernel.SkbPool, 4); v != 0 {
			pooled++
		}
	}
	if pooled != n {
		t.Fatalf("only %d of %d queued skbs are pool-provenance after warm-up", pooled, n)
	}
	free := tw.PoolFree()
	if err := m.Dom0.AS.Store(q[2]+kernel.SkbData, 4, 0x20); err != nil {
		t.Fatal(err)
	}
	pkts, err := tw.DeliverPendingBatch(m.DomU, 0)
	if err == nil {
		t.Fatal("delivery over a corrupt skb succeeded")
	}
	// The frames delivered before the fault come back with the error, and
	// the error carries the exact delivered/dropped split (the accounting
	// contract netpath counts loss with).
	var de *DeliveryError
	if !errors.As(err, &de) {
		t.Fatalf("mid-batch fault is not a *DeliveryError: %v", err)
	}
	if len(pkts) != 2 || de.Delivered != 2 || de.Dropped != n-2 {
		t.Fatalf("partial delivery: %d pkts, delivered=%d dropped=%d (want 2/%d)",
			len(pkts), de.Delivered, de.Dropped, n-2)
	}
	if got := tw.PendingRx(m.DomU.ID); got != 0 {
		t.Fatalf("pending after aborted batch = %d", got)
	}
	if got := tw.PoolFree(); got != free+pooled {
		t.Fatalf("aborted batch leaked skbs: pool %d -> %d, want %d", free, got, free+pooled)
	}
	// Capacity is intact: a full pool's worth of transmits still works.
	capture(d)
	frame := EthernetFrame([6]byte{1, 1, 1, 1, 1, 1}, d.NIC.MAC, 0x0800, payload(200, 9))
	if err := tw.GuestTransmit(d, frame); err != nil {
		t.Fatal(err)
	}
}
