package core

import (
	"fmt"

	"twindrivers/internal/mem"
	"twindrivers/internal/telemetry"
	"twindrivers/internal/xen"
)

// Batched guest I/O (the batched-hypercall path). The per-packet
// GuestTransmit pays one guest→hypervisor transition per frame; here a
// guest stages up to TxRingSlots frames in its shared descriptor ring and
// crosses the boundary once per batch, so the hypercall's transition cost
// amortizes over the batch. Everything after the boundary — header copy,
// fragment chaining, the derived-driver invocation — is the per-packet
// path's own body (xmit), which is what keeps a batch of one
// cycle-identical to GuestTransmit.
//
// With several guests sharing the NIC, each guest owns a private ring (its
// guestIO): guests stage independently with StageTransmitBatch, and a
// single ServiceRings crossing drains every ring by deficit round-robin
// (sched.go), so the boundary cost amortizes across guests as well as
// across frames, and a guest with a deep backlog cannot starve the others.

// Transmit-ring geometry.
const (
	// TxRingSlots is the per-guest descriptor-ring capacity: the largest
	// batch one guest carries across the boundary in one hypercall. Larger
	// requests are chunked into ring-sized batches transparently.
	TxRingSlots = 32

	// TxSlotBytes sizes each guest staging buffer (one MTU frame plus
	// headroom, matching the dom0 sk_buff linear buffer).
	TxSlotBytes = 2048
)

// GuestTransmitBatch sends a batch of the current guest's packets through
// the hypervisor driver with one hypercall per ring-full of frames: the
// frames are staged in guest memory, their descriptors published on the
// guest's ring, and the hypervisor drains the ring inside a single
// boundary crossing. It returns the number of frames transmitted; on error
// (including ErrTxBusy when the buffer pool or device ring fills
// mid-batch) the remaining staged descriptors are discarded, exactly as a
// real batched hypercall reports a short completion count.
func (t *Twin) GuestTransmitBatch(d *NICDev, frames [][]byte) (int, error) {
	if t.Dead {
		return 0, ErrDriverDead
	}
	for _, f := range frames {
		if len(f) > TxSlotBytes {
			return 0, fmt.Errorf("core: frame of %d bytes exceeds the %d-byte staging slot", len(f), TxSlotBytes)
		}
	}
	g := t.ioCurrent()
	// A batch of one is the per-packet hypercall: its upcalls notify dom0
	// one by one, as GuestTransmit's do.
	if len(frames) > 1 {
		t.Coalescer.Begin()
		defer t.Coalescer.End()
	}

	sent := 0
	for sent < len(frames) {
		chunk := frames[sent:]
		if len(chunk) > TxRingSlots {
			chunk = chunk[:TxRingSlots]
		}
		// Guest side: stage each frame and publish its descriptor. The
		// staging copy stands in for the guest's own packet pages, as in
		// GuestTransmit; its cycle price is part of the caller's kernel
		// path. A full ring (e.g. descriptors left staged by a budgeted
		// ServiceRings) stages short: drain below, stage the rest next
		// round.
		if _, err := g.stage(chunk); err != nil {
			_ = g.ring.Reset() // best-effort: the staging error is the one to report
			return sent, err
		}
		// One boundary crossing for the whole chunk.
		t.M.HV.ChargeHypercall()
		t.ctlLane.Record(t.mMeter, telemetry.EvHypercall, int32(g.dom.ID), uint64(len(chunk)), 0)
		// Hypervisor side: drain the guest's staged ring without further
		// transitions.
		for {
			popped, ok, err := t.txStep(d, g, false)
			if ok {
				sent++
			}
			if err != nil {
				return sent, err
			}
			if !popped {
				break
			}
		}
	}
	t.ctlLane.Record(t.mMeter, telemetry.EvBatchServiced, int32(g.dom.ID), uint64(sent), 0)
	return sent, nil
}

// StageTransmitBatch publishes frames on a guest's transmit ring without
// crossing the virtualization boundary: the counterpart of the guest-side
// half of GuestTransmitBatch, for workloads where several guests stage
// independently and one ServiceRings crossing drains them all. It returns
// the number of frames staged, stopping early without error when the ring
// fills (the guest retries after the next service).
func (t *Twin) StageTransmitBatch(dom *xen.Domain, frames [][]byte) (int, error) {
	if t.Dead {
		return 0, ErrDriverDead
	}
	g, ok := t.guestIO[dom.ID]
	if !ok {
		return 0, fmt.Errorf("core: domain %q has no transmit ring", dom.Name)
	}
	return g.stage(frames)
}

// stage is the guest-side producer: each frame is copied into the producer
// slot's staging buffer and its descriptor published on the guest's ring.
// It returns the number of frames staged, stopping early without error
// when the ring fills. Capacity is checked BEFORE the slot write: on a full
// ring the producer slot aliases the oldest unconsumed descriptor's staging
// buffer, and writing first would silently corrupt that staged frame.
func (g *guestIO) stage(frames [][]byte) (int, error) {
	for staged, f := range frames {
		if len(f) > TxSlotBytes {
			return staged, fmt.Errorf("core: frame of %d bytes exceeds the %d-byte staging slot", len(f), TxSlotBytes)
		}
		free, err := g.ring.Free()
		if err != nil {
			return staged, err
		}
		if free == 0 {
			return staged, nil
		}
		slot, err := g.ring.ProducerSlot()
		if err != nil {
			return staged, err
		}
		if err := g.dom.AS.WriteBytes(g.slots[slot], f); err != nil {
			return staged, err
		}
		if err := g.ring.Push(g.slots[slot], uint32(len(f))); err != nil {
			return staged, err
		}
	}
	return len(frames), nil
}

// ServiceRings drains every guest's transmit rings under a single boundary
// crossing: one hypercall, then each service queue's deficit-round-robin
// sweep (sched.go) over the guests sharded onto it, so a guest with a full
// ring cannot starve the others. budget bounds the descriptors consumed
// per queue in this crossing (0 means drain everything); descriptors
// beyond the budget stay staged for the next crossing, which resumes at
// the interrupted guest. It returns per-guest transmit counts.
//
// On a single-queue backend queue 0's guest list is guestOrder and its
// meter is the machine meter. With more queues, each queue's work is
// charged to that queue's own meter (its simulated core); queues are
// swept in index order.
//
// A corrupt ring header (ErrRingCorrupt — the guest scribbled its
// guest-writable head/tail words) or a transmit fault discards the
// offending guest's staged descriptors and aborts that queue's sweep;
// other queues are still serviced (queue isolation: a hostile descriptor
// on queue k loses only queue-k frames) and other guests' rings keep
// their staged work for the next crossing. The first error is returned.
func (t *Twin) ServiceRings(d *NICDev, budget int) (map[mem.Owner]int, error) {
	if t.Dead {
		return nil, ErrDriverDead
	}
	t.M.HV.ChargeHypercall()
	t.ctlLane.Record(t.mMeter, telemetry.EvHypercall, -1, 0, 0)
	sent := make(map[mem.Owner]int)
	var firstErr error
	for q := 0; q < t.nQueues; q++ {
		if err := t.withQueueMeter(q, func() error {
			return t.serviceQueue(d, q, budget, sent)
		}); err != nil && firstErr == nil {
			firstErr = err
		}
		if t.Dead {
			break
		}
	}
	return sent, firstErr
}

// ServiceAllQueues is ServiceRings.
//
// Deprecated: the goroutine-per-queue sweep this name once ran was
// serialized on one simulated CPU and pinned cycle-identical to
// ServiceRings, so it could only be slower on the host clock. The name
// survives because benchmark/kernels.go still calls it; the
// benchmark-only PR of ROADMAP item 1(a) removes it.
func (t *Twin) ServiceAllQueues(d *NICDev, budget int) (map[mem.Owner]int, error) {
	return t.ServiceRings(d, budget)
}

// serviceQueue runs one service queue's sweep (sweepQueue, sched.go)
// bracketed by start/end events on the queue's own telemetry lane,
// stamped with the meter in scope — queue q's own simulated core when
// several queues run — so a traced mq run renders each queue as its own
// timeline.
func (t *Twin) serviceQueue(d *NICDev, q, budget int, sent map[mem.Owner]int) error {
	lane := t.qLanes[q]
	meter := t.M.HV.Meter
	lane.Record(meter, telemetry.EvSweepStart, -1, uint64(q), 0)
	consumed, err := t.sweepQueue(d, q, budget, sent)
	lane.Record(meter, telemetry.EvSweepEnd, -1, uint64(q), uint64(consumed))
	return err
}

// withQueueMeter runs fn with the machine's cycle meter swapped to queue
// q's meter — both aliases, xen.Hypervisor.Meter and the CPU's, point at
// the same object and must move together. The degenerate single-queue
// configuration never swaps (queue 0's meter IS the machine meter).
func (t *Twin) withQueueMeter(q int, fn func() error) error {
	if t.nQueues == 1 {
		return fn()
	}
	hv := t.M.HV
	saved := hv.Meter
	hv.Meter = t.queueMeters[q]
	hv.CPU.Meter = t.queueMeters[q]
	err := fn()
	hv.Meter = saved
	hv.CPU.Meter = saved
	return err
}
