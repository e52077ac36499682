package core

import (
	"fmt"

	"twindrivers/internal/cost"
	"twindrivers/internal/cycles"
	"twindrivers/internal/kernel"
	"twindrivers/internal/mem"
	"twindrivers/internal/telemetry"
	"twindrivers/internal/vswitch"
)

// Weighted-fair service scheduling and the inter-guest L2 switch.
//
// A production host serves hundreds of tenants with different SLAs, so
// the one service sweep is deficit round-robin (DRR):
//
//   - Each guest has a WEIGHT. Every round the guest's deficit counter
//     grows by its weight (the quantum), and the sweep consumes one
//     descriptor per deficit unit, so long-run throughput shares are
//     proportional to weights: a weight-4 guest gets 4 descriptors for
//     every 1 a weight-1 guest gets, regardless of backlog depth. With
//     every weight 1 (nil TwinConfig.Weights) this is plain round-robin.
//   - The scheduler is WORK-CONSERVING: a guest with nothing staged has
//     its deficit zeroed (it cannot hoard credit while idle), and the
//     round loop keeps serving whoever has backlog until the budget is
//     spent — idle guests donate their bandwidth.
//   - It is STARVATION-FREE: every weight clamps to at least 1, so any
//     backlogged guest consumes at least one descriptor per full round
//     no matter how heavy its neighbors are.
//   - Each guest may also have a RATE limit: a hard cap on descriptors
//     consumed per service crossing. A capped guest stops being
//     serviced for the rest of the crossing and does not count as
//     progress, so the sweep still terminates when only capped guests
//     have backlog.
//
// The inter-guest switch hooks the transmit path (xmit) behind a nil
// check: with TwinConfig.Switch set, each frame's Ethernet header is
// classified by internal/vswitch before the derived driver runs.
// Guest→guest unicast is copied into a pooled dom0 sk_buff and queued
// straight onto the destination guest's receive queue — the same queue
// the device demux fills, so both the copy-mode and posted-buffer
// delivery paths work unchanged — and the device is never touched: the
// whole NIC round-trip (driver TX, wire, IRQ, driver RX) is replaced by
// one classify + one copy.

// schedParam resolves a per-guest scheduler parameter from its config
// slice: values apply to guests in index order and repeat cyclically
// when the slice is shorter than the guest count (so Weights: []int{4,
// 2, 1} gives a 4:2:1 pattern across any fleet size). def is the
// all-guests default for a nil slice.
func schedParam(vals []int, gi, def int) int {
	if len(vals) == 0 {
		return def
	}
	return vals[gi%len(vals)]
}

// GuestWeight reports a guest's DRR weight (1 for a domain with no
// transmit state).
func (t *Twin) GuestWeight(dom mem.Owner) int {
	if g, ok := t.guestIO[dom]; ok {
		return g.weight
	}
	return 1
}

// qSched is one queue's persistent scheduler position (alongside the
// PR 7 per-queue meters): pos is the next shard index the DRR cycle
// visits, and carry marks a guest whose quantum was granted but whose
// service a budget cut interrupted — the resume skips the re-grant, so
// a budget boundary can never mint extra credit. Persisting the
// position across crossings is what makes shares proportional in the
// long run: without it every crossing would restart the cycle at the
// shard's first guest, and early-shard guests would accrue a quantum
// more often than late-shard ones whenever the budget cuts mid-cycle.
type qSched struct {
	pos   int
	carry bool
}

// sweepQueue is one service queue's deficit-round-robin sweep over its
// guest shard. A corrupt ring or transmit fault aborts this queue's
// sweep; other queues are isolated by the caller. budget bounds total
// descriptors consumed this crossing (0 = drain); the return counts
// them.
//
// The cycle visits guests in shard order starting at the persisted
// position. Each fresh visit grants the guest its weight in deficit,
// then spends the deficit one descriptor at a time — staged ring
// first, then posted-TX (txStep), so a guest backlogged on both rings
// gets no more than its weight per round. An empty backlog zeroes the
// deficit (work conservation: idle guests donate rather than hoard); a
// full cycle with no progress ends the sweep.
func (t *Twin) sweepQueue(d *NICDev, q, budget int, sent map[mem.Owner]int) (int, error) {
	shard := t.queueGuests[q]
	st := &t.qSched[q]
	// Rate accounting is per crossing: every guest starts fresh.
	for _, id := range shard {
		t.guestIO[id].served = 0
	}
	consumed := 0
	idle := 0
	for idle < len(shard) {
		g := t.guestIO[shard[st.pos]]
		fresh := !st.carry
		st.carry = false
		if g.rate > 0 && g.served >= g.rate {
			// Capped for this crossing: skipped entirely, no quantum
			// (the cap is a ceiling, not a deferral) and no progress.
			st.pos = (st.pos + 1) % len(shard)
			idle++
			continue
		}
		if fresh {
			g.deficit += g.weight
		}
		progressed := false
		for g.deficit > 0 {
			if budget > 0 && consumed >= budget {
				// Budget cut mid-service: resume this guest next
				// crossing with its remaining deficit, no re-grant.
				st.carry = true
				return consumed, nil
			}
			popped, ok, err := t.txStep(d, g, true)
			if ok {
				sent[g.dom.ID]++
			}
			if err != nil {
				// A corrupt ring header consumed nothing; a transmit
				// fault consumed the descriptor it faulted on.
				if popped {
					consumed++
				}
				return consumed, err
			}
			if !popped {
				// Work conservation: an idle guest donates its unspent
				// quantum instead of hoarding credit for a later burst.
				g.deficit = 0
				break
			}
			consumed++
			g.deficit--
			g.served++
			progressed = true
			if g.rate > 0 && g.served >= g.rate {
				break
			}
		}
		if progressed {
			idle = 0
		} else {
			idle++
		}
		st.pos = (st.pos + 1) % len(shard)
	}
	return consumed, nil
}

// txStep is the one place a transmit descriptor is popped and handed to
// xmit: at most one per call, from g's staged ring if one is pending,
// otherwise — when posted is set — from its posted-TX ring. popped
// reports whether a descriptor was consumed, ok whether its frame was
// transmitted.
//
// The rings are guest-writable, and the two containment policies differ.
// A corrupt header on either ring (ErrRingCorrupt: the guest scribbled
// the head/tail words) resets that ring — none of its descriptors can be
// trusted — and fails the sweep with nothing consumed. A staged transmit
// fault resets the staged ring and fails the sweep; a posted one loses
// only that frame (counted in PostedTxLost) unless it killed the instance.
func (t *Twin) txStep(d *NICDev, g *guestIO, posted bool) (popped, ok bool, err error) {
	addr, n, pending, err := g.ring.Pop()
	if err != nil {
		_ = g.ring.Reset()
		return false, false, fmt.Errorf("core: guest %d transmit ring: %w", g.dom.ID, err)
	}
	if pending {
		if err := t.xmit(d, g, addr, int(n), false); err != nil {
			if rerr := g.ring.Reset(); rerr != nil && !t.Dead {
				return true, false, rerr
			}
			return true, false, err
		}
		return true, true, nil
	}
	if !posted {
		return false, false, nil
	}
	addr, n, pending, err = g.txRing.Pop()
	if err != nil {
		_ = g.txRing.Reset()
		t.ctlLane.Record(t.mMeter, telemetry.EvHostile, int32(g.dom.ID), 1, 0)
		return false, false, fmt.Errorf("core: guest %d posted-tx ring: %w", g.dom.ID, err)
	}
	if !pending {
		return false, false, nil
	}
	if err := t.xmit(d, g, addr, int(n), true); err != nil {
		if t.Dead {
			return true, false, err
		}
		// Hostile, oversize or resource-starved: contained to this frame.
		g.postedLost++
		return true, false, nil
	}
	return true, true, nil
}

// --- Inter-guest L2 switch glue -------------------------------------

// VSwitch exposes the inter-guest switch (nil when TwinConfig.Switch
// is off) for table introspection and stats.
func (t *Twin) VSwitch() *vswitch.Switch { return t.vsw }

// VswitchSpoofDropped reports how many of a guest's transmit frames
// the switch rejected for forging another port's static MAC.
func (t *Twin) VswitchSpoofDropped(dom mem.Owner) uint64 {
	if g, ok := t.guestIO[dom]; ok {
		return g.spoofDropped
	}
	return 0
}

// VswitchRxDropped reports how many switch-delivered frames bound for
// a guest were lost to dom0 pool exhaustion.
func (t *Twin) VswitchRxDropped(dom mem.Owner) uint64 {
	if g, ok := t.guestIO[dom]; ok {
		return g.vswRxDropped
	}
	return 0
}

// vswitchTx classifies one transmit frame's Ethernet header and
// performs any dom0-side deliveries. The caller proceeds to the device
// only when toDevice is true; a false/nil return means the frame was
// fully handled here (delivered locally, or dropped as a spoof). The
// frame bytes live in the transmitting guest's memory at guestAddr —
// already length-bounded, and on the posted path already
// ownership-checked through the guest TLB.
func (t *Twin) vswitchTx(g *guestIO, guestAddr uint32, n int) (bool, error) {
	if n < 14 {
		// A runt without a full Ethernet header is not classifiable;
		// let the device path handle it as it always did.
		return true, nil
	}
	var hdr [12]byte
	if err := g.dom.AS.ReadInto(guestAddr, hdr[:]); err != nil {
		return false, err
	}
	var dst, src vswitch.MAC
	copy(dst[:], hdr[0:6])
	copy(src[:], hdr[6:12])
	meter := t.M.HV.Meter
	meter.AddTo(cycles.CompXen, cost.VswitchLookup)
	fwd, ok := t.vsw.Classify(g.dom.ID, src, dst)
	if !ok {
		g.spoofDropped++
		t.ctlLane.Record(t.mMeter, telemetry.EvSpoof, int32(g.dom.ID), uint64(n), 0)
		return false, nil
	}
	for _, dstDom := range fwd.Local {
		if err := t.vswitchDeliver(g, dstDom, guestAddr, n); err != nil {
			return false, err
		}
	}
	return fwd.Device, nil
}

// vswitchDeliver copies one guest→guest frame into a pooled dom0
// sk_buff and queues it on the destination guest's receive queue — the
// exact shape the device demux (netif_rx) produces after
// eth_type_trans, so DeliverPendingBatch and DeliverPendingPosted both
// consume it unchanged. Pool exhaustion loses only this frame (counted
// against the destination, like any other RX drop).
func (t *Twin) vswitchDeliver(src *guestIO, dst mem.Owner, guestAddr uint32, n int) error {
	dstIO, ok := t.guestIO[dst]
	if !ok {
		return nil // port with no I/O state: nothing to deliver into
	}
	skb, okPool := t.poolGet()
	if !okPool {
		dstIO.vswRxDropped++
		return nil
	}
	as := t.M.Dom0.AS
	t.M.HV.Meter.AddTo(cycles.CompXen, cost.VswitchForwardPerFrame+cost.SkbAlloc)
	head, _ := as.Load(skb+kernel.SkbHead, 4)
	if err := t.copyFromGuest(head, src, guestAddr, n); err != nil {
		t.poolPut(skb)
		return err
	}
	// eth_type_trans convention: delivery reads (data-14, len+14).
	as.Store(skb+kernel.SkbData, 4, head+14)
	as.Store(skb+kernel.SkbLen, 4, uint32(n-14))
	t.queueRx(dst, skb)
	t.ctlLane.Record(t.mMeter, telemetry.EvVswitch, int32(src.dom.ID), uint64(dst), uint64(n))
	return nil
}
