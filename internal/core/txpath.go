package core

import (
	"errors"
	"fmt"

	"twindrivers/internal/kernel"
	"twindrivers/internal/mem"
	"twindrivers/internal/telemetry"
	"twindrivers/internal/xen"
)

// The posted-descriptor transmit path: the transmit-side mirror of
// rxpath.go. On the staging path every transmitted frame is copied from
// guest memory into a per-slot staging buffer before the hypervisor sees
// it; here the guest posts (addr, len) scatter/gather descriptors naming
// its own packet pages on a hardened guest-writable ring, and the ring
// service hands those pages to the device directly — the zero-copy
// transmit of §5.3 extended to the batched path, with the staging copy
// gone in both directions.
//
// The descriptor ring is guest-writable memory and therefore hostile
// input. Three rules keep it contained:
//
//   - Snapshot once (the TOCTOU rule): mem.Ring.Pop loads the descriptor's
//     addr/len words into its return values before advancing the head, and
//     everything after — validation, translation, the device handoff —
//     operates only on that snapshot. A guest rewriting the slot after
//     staging changes nothing the hypervisor ever reads again.
//   - Own every byte: every page of [addr, addr+len) resolves through the
//     guest's software TLB (svm.GuestTLB) before the device learns the
//     address; a descriptor naming hypervisor, dom0 or unmapped memory
//     loses that frame and nothing else.
//   - Pin until completion: the validated translations are pinned so the
//     device's DMA resolves exactly what the TLB checked. Pins are
//     released when the frame's sk_buff returns to the pool, and an abort
//     sweeps (and accounts) every pin the dead instance held.

// ErrNoTxPostRing reports a posted-transmit operation for a domain without
// a posted-transmit ring (not a guest of this twin).
var ErrNoTxPostRing = errors.New("core: domain has no posted-transmit ring")

// TxPost is one guest-posted transmit descriptor: a guest virtual address
// and the frame's byte length.
type TxPost struct {
	Addr uint32
	Len  uint32
}

// txPin is one pinned guest page translation: the machine address the
// guest TLB validated for a posted frame, held until TX completion so the
// device's DMA mapping resolves exactly what was checked.
type txPin struct {
	pa   uint32 // machine address of the page's first byte
	refs int    // posted frames currently spanning this page
}

// skbPins lists the guest virtual pages one posted frame's sk_buff pins. A
// frame is at most kernel.SkbBufSize bytes, so it spans at most two pages —
// the bound pageSpans' spanBuf holds too.
type skbPins struct {
	vps [2]uint32
	n   int
}

// PostTxDescriptors publishes transmit descriptors on a guest's
// posted-transmit ring without crossing the virtualization boundary (the
// ring is shared memory, like the staging ring). It returns how many were
// posted, stopping early without error when the ring fills — the guest
// re-posts after the next service drains descriptors. The guest-side cycle
// price is the caller's (netpath charges cost.TxPostPerDesc per
// descriptor).
func (t *Twin) PostTxDescriptors(dom *xen.Domain, descs []TxPost) (int, error) {
	if t.Dead {
		return 0, ErrDriverDead
	}
	g, ok := t.guestIO[dom.ID]
	if !ok {
		return 0, fmt.Errorf("%w: domain %q", ErrNoTxPostRing, dom.Name)
	}
	posted := 0
	for _, d := range descs {
		free, err := g.txRing.Free()
		if err != nil {
			return posted, err
		}
		if free == 0 {
			return posted, nil
		}
		if err := g.txRing.Push(d.Addr, d.Len); err != nil {
			return posted, err
		}
		posted++
	}
	return posted, nil
}

// TxPostedFree reports how many more descriptors the guest can post.
func (t *Twin) TxPostedFree(dom mem.Owner) (int, error) {
	g, ok := t.guestIO[dom]
	if !ok {
		return 0, ErrNoTxPostRing
	}
	return g.txRing.Free()
}

// PostedTxPending reports how many posted transmit descriptors a guest has
// staged and not yet serviced (introspection for harnesses reconciling
// their own ledgers against the ring).
func (t *Twin) PostedTxPending(dom mem.Owner) (int, error) {
	g, ok := t.guestIO[dom]
	if !ok {
		return 0, ErrNoTxPostRing
	}
	return g.txRing.Len()
}

// PostedTxLost reports how many posted transmit frames a guest has lost to
// containment over the twin's lifetime: hostile or unmapped addresses,
// oversize lengths, or a full buffer pool. Each lost frame is counted
// exactly once, at the service that consumed its descriptor.
func (t *Twin) PostedTxLost(dom mem.Owner) uint64 {
	if g, ok := t.guestIO[dom]; ok {
		return g.postedLost
	}
	return 0
}

// PinnedTxPages reports how many distinct guest pages are currently pinned
// for in-flight posted transmits (introspection for tests and
// diagnostics). It must return to zero once every posted frame's sk_buff
// has been reclaimed.
func (t *Twin) PinnedTxPages() int { return len(t.txPins) }

// pinSpans records the validated translation of every page a posted frame
// spans, keyed by guest virtual page (guest heap regions are globally
// disjoint, so a VA page names at most one guest page machine frame). A
// page posted by two in-flight frames is reference-counted, not
// double-pinned.
func (t *Twin) pinSpans(skb, addr uint32, spans []pageSpan) {
	var held skbPins
	off := uint32(0)
	for _, sp := range spans {
		vp := (addr + off) &^ uint32(mem.PageMask)
		pin, ok := t.txPins[vp]
		if !ok {
			pin.pa = sp.pa &^ uint32(mem.PageMask)
		}
		pin.refs++
		t.txPins[vp] = pin
		held.vps[held.n] = vp
		held.n++
		off += uint32(sp.bytes)
	}
	t.pinsBySkb[skb] = held
}

// unpinSkb releases the pins a posted frame's sk_buff holds; a no-op for
// buffers that never carried a posted frame.
func (t *Twin) unpinSkb(skb uint32) {
	held, ok := t.pinsBySkb[skb]
	if !ok {
		return
	}
	for _, vp := range held.vps[:held.n] {
		if pin, ok := t.txPins[vp]; ok {
			pin.refs--
			if pin.refs == 0 {
				delete(t.txPins, vp)
			} else {
				t.txPins[vp] = pin
			}
		}
	}
	delete(t.pinsBySkb, skb)
}

// pinnedTranslate resolves a DMA address through the pin table: the
// machine address the guest TLB validated when the frame's descriptor was
// serviced. The boolean is false for addresses no posted frame pinned
// (copy-mode fragments resolve through the page-table walk as before).
func (t *Twin) pinnedTranslate(addr uint32) (uint32, bool) {
	pin, ok := t.txPins[addr&^uint32(mem.PageMask)]
	if !ok {
		return 0, false
	}
	return pin.pa | (addr & mem.PageMask), true
}

// xmit is the hypervisor-side transmit work for one descriptor — the one
// body behind the hypercall path, the staged ring and the posted ring —
// operating entirely on the (addr, n) snapshot its caller took. The
// boundary crossing itself (the hypercall charge) is the caller's: per
// frame on the hypercall path, per batch on the ring paths.
//
// Validation runs before a pooled buffer is taken or a byte moves: the
// length bound (n is guest input on every path — a hypercall argument or a
// guest-writable descriptor word — and the pooled skb's linear buffer is
// kernel.SkbBufSize), then for a posted descriptor the per-page ownership
// check through the guest TLB, which records the violation and its trace
// event itself.
//
// The device gets a linear part copied into the pooled skb plus at most
// one fragment of guest pages chained zero-copy. A staged frame copies the
// model's scatter/gather split: the e1000's 96-byte header, the whole
// frame on the rtl8139 (split 0). A posted frame copies nothing when the
// device can take its pages directly (scatter/gather backend, pages
// machine-contiguous), with the validated translations pinned so
// dma_map_page resolves exactly what the TLB checked, and falls back to
// copying everything otherwise — correctness everywhere, zero-copy where
// the hardware allows it. Every non-fatal exit returns the pooled skb and
// is contained to this frame; on a containment abort the teardown sweeps
// skb and pins instead.
func (t *Twin) xmit(d *NICDev, g *guestIO, addr uint32, n int, posted bool) error {
	if n <= 0 || n > kernel.SkbBufSize {
		if posted {
			t.ctlLane.Record(t.mMeter, telemetry.EvHostile, int32(g.dom.ID), 2, uint64(uint32(n)))
		}
		return ErrFrameOversize
	}
	split := t.M.Model.TxHeaderSplit
	linear := n // bytes copied into the pooled skb's linear buffer
	var pins []pageSpan
	if !posted {
		if split > 0 && n > split {
			linear = split
		}
	} else {
		meter := t.M.HV.Meter
		var buf spanBuf
		spans, err := pageSpans(&buf, addr, n, func(a uint32) (uint32, error) {
			return g.gtlb.Translate(meter, a)
		})
		if err != nil {
			return err
		}
		contig := true
		for i := 1; i < len(spans); i++ {
			if spans[i].pa != spans[i-1].pa+uint32(spans[i-1].bytes) {
				contig = false
				break
			}
		}
		if contig && split > 0 {
			linear, pins = 0, spans
		}
	}
	// Inter-guest switch (sched.go), after the ownership check — the
	// switch must never read through an address the guest TLB rejected.
	// Guest→guest unicast is delivered dom0-side and a forged source MAC
	// drops the frame; neither touches the device.
	if t.vsw != nil {
		if toDevice, err := t.vswitchTx(g, addr, n); err != nil || !toDevice {
			return err
		}
	}
	skb, ok := t.poolGet()
	if !ok {
		return ErrTxBusy
	}
	as := t.M.Dom0.AS
	if linear > 0 {
		head, _ := as.Load(skb+kernel.SkbHead, 4)
		if err := t.copyFromGuest(head, g, addr, linear); err != nil {
			t.poolPut(skb)
			return err
		}
	}
	if pins != nil {
		t.pinSpans(skb, addr, pins)
	}
	as.Store(skb+kernel.SkbLen, 4, uint32(n))
	// The queue mapping rides in the sk_buff like skb_set_queue_mapping:
	// a multi-queue driver's xmit reads it to pick its register block;
	// single-queue drivers ignore the word. The store is framework-side
	// bookkeeping (no modeled cycles).
	as.Store(skb+kernel.SkbQueue, 4, uint32(g.queue))
	if n > linear {
		// With nothing linear the driver writes a zero-length linear
		// descriptor, which the device model reads as zero bytes.
		as.Store(skb+kernel.SkbNrFrags, 4, 1)
		as.Store(skb+kernel.SkbFragPage, 4, addr)
		as.Store(skb+kernel.SkbFragOff, 4, uint32(linear))
		as.Store(skb+kernel.SkbFragSize, 4, uint32(n-linear))
	} else {
		as.Store(skb+kernel.SkbNrFrags, 4, 0)
	}

	ret, err := t.invokeHV(t.xmitEntry, skb, d.Netdev)
	if err != nil {
		return err
	}
	if ret != 0 {
		t.unpinSkb(skb)
		t.poolPut(skb)
		return ErrTxBusy
	}
	if posted {
		var fallback uint64
		if pins == nil {
			fallback = 1
		}
		t.ctlLane.Record(t.mMeter, telemetry.EvPostedTx, int32(g.dom.ID), uint64(n), fallback)
	}
	return nil
}
