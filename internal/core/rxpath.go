package core

import (
	"errors"
	"fmt"

	"twindrivers/internal/cost"
	"twindrivers/internal/cycles"
	"twindrivers/internal/kernel"
	"twindrivers/internal/mem"
	"twindrivers/internal/telemetry"
	"twindrivers/internal/xen"
)

// The posted-buffer receive path. On the legacy copy path every received
// frame is queued in a pooled dom0 sk_buff and later copied into a shared
// delivery region, from which the guest's paravirtual driver copies it
// again into its own sk_buff — two copies per packet, the overhead that
// dominates the twin receive profile (Figure 8). Here the guest posts the
// addresses and lengths of its own receive buffers on a per-guest shared
// descriptor ring ahead of delivery, and DeliverPendingPosted copies each
// frame exactly once, straight into the guest-posted page, translating the
// guest address through a per-guest software TLB (svm.GuestTLB).
//
// The posted ring is guest-writable memory and therefore hostile input:
// its header words are validated by mem.Ring exactly like the transmit
// ring's, and every posted address is resolved through the guest TLB's
// ownership check before a single byte moves — a scribbled descriptor can
// lose the guest its own frame, never steer a hypervisor copy into dom0,
// another guest, or hypervisor memory.
//
// The legacy copy path stays the default: batch-of-one cycle identity and
// the recovery hot-path equality tests keep pinning it unchanged.

// RxRingSlots is the per-guest posted-receive descriptor-ring capacity:
// the largest number of receive buffers a guest keeps posted at once.
const RxRingSlots = 32

// RxPost is one guest-posted receive buffer: a guest virtual address and
// the buffer's byte capacity.
type RxPost struct {
	Addr uint32
	Len  uint32
}

// PostedFrame describes one frame delivered into a guest-posted buffer.
type PostedFrame struct {
	Addr uint32 // guest virtual address the frame was copied to
	Len  int    // delivered frame length in bytes
}

// RxDelivery is the outcome of one posted-mode delivery batch.
type RxDelivery struct {
	// Frames lists the delivered frames, oldest first, each sitting in the
	// guest buffer its descriptor posted.
	Frames []PostedFrame

	// Lost counts frames that consumed a posted descriptor but could not
	// be delivered — the buffer was too small or its address failed the
	// guest TLB's ownership check. Each such frame is dropped exactly
	// once; the fault is contained to the guest that posted the bad
	// descriptor.
	Lost int
}

// DeliveryError reports a receive delivery that failed mid-batch: the
// frames delivered before the failure reached the guest and are already
// returned to the caller; Dropped frames were dequeued behind the failure
// and discarded. Callers accounting loss must count Dropped exactly once
// and must not re-count the delivered frames.
type DeliveryError struct {
	Delivered int
	Dropped   int
	Cause     error
}

func (e *DeliveryError) Error() string {
	return fmt.Sprintf("core: delivery failed after %d frames (%d dropped): %v",
		e.Delivered, e.Dropped, e.Cause)
}

func (e *DeliveryError) Unwrap() error { return e.Cause }

// ErrNoRxRing reports a posted-mode operation for a domain without a
// posted-receive ring (not a guest of this twin).
var ErrNoRxRing = errors.New("core: domain has no posted-receive ring")

// rxQueue is one guest's received-but-undelivered packet queue: a ring of
// skb addresses that doubles when full, so it holds O(deepest backlog)
// memory and never reallocates once warm, and a dequeue is O(1). It also
// owns the guest's copy-delivery buffers: the frame bytes and the frame
// list the last DeliverPendingBatch returned, reused by the next.
type rxQueue struct {
	skbs    []uint32 // ring storage; its length is the capacity
	head, n int

	frames []byte   // bytes of the last copy delivery's frames
	out    [][]byte // the last copy delivery's frames, sub-slices of frames
}

func (q *rxQueue) len() int { return q.n }

func (q *rxQueue) push(skb uint32) {
	if q.n == len(q.skbs) {
		grown := make([]uint32, max(2*len(q.skbs), 16))
		k := copy(grown, q.skbs[q.head:])
		copy(grown[k:], q.skbs[:q.head])
		q.skbs, q.head = grown, 0
	}
	q.skbs[(q.head+q.n)%len(q.skbs)] = skb
	q.n++
}

// pop dequeues the oldest packet; the queue must not be empty.
func (q *rxQueue) pop() uint32 {
	skb := q.skbs[q.head]
	q.head = (q.head + 1) % len(q.skbs)
	q.n--
	return skb
}

// PostRxBuffers publishes receive buffers on a guest's posted-receive ring
// without crossing the virtualization boundary (the ring is shared memory,
// like the transmit ring). It returns how many were posted, stopping early
// without error when the ring fills — the guest re-posts after the next
// delivery drains descriptors. The guest-side cycle price is the caller's
// (netpath charges cost.RxPostPerBuffer per buffer).
func (t *Twin) PostRxBuffers(dom *xen.Domain, bufs []RxPost) (int, error) {
	if t.Dead {
		return 0, ErrDriverDead
	}
	g, ok := t.guestIO[dom.ID]
	if !ok {
		return 0, fmt.Errorf("%w: domain %q", ErrNoRxRing, dom.Name)
	}
	posted := 0
	for _, b := range bufs {
		free, err := g.rxRing.Free()
		if err != nil {
			return posted, err
		}
		if free == 0 {
			return posted, nil
		}
		if err := g.rxRing.Push(b.Addr, b.Len); err != nil {
			return posted, err
		}
		posted++
	}
	return posted, nil
}

// RxPostedFree reports how many more buffers the guest can post.
func (t *Twin) RxPostedFree(dom mem.Owner) (int, error) {
	g, ok := t.guestIO[dom]
	if !ok {
		return 0, ErrNoRxRing
	}
	return g.rxRing.Free()
}

// DeliverPendingPosted delivers at most max queued packets (0 means all)
// into the guest's posted receive buffers, raising a single coalesced
// notification for the batch. Delivery stops — leaving the remainder
// queued, not lost — when the guest has no descriptor posted; a posted
// descriptor whose buffer is too small or whose address fails the guest
// TLB check loses that one frame (counted in RxDelivery.Lost) and delivery
// continues. A scribbled ring header stops the batch with ErrRingCorrupt
// after resetting the ring; frames already delivered are reported, the
// rest stay queued for re-posted buffers.
//
// The returned RxDelivery and its Frames belong to the guest's I/O state
// and are reused: they are valid only until the next DeliverPendingPosted
// for the same guest, so a caller that keeps them past that must copy them.
func (t *Twin) DeliverPendingPosted(dom *xen.Domain, max int) (*RxDelivery, error) {
	if t.Dead {
		return nil, ErrDriverDead
	}
	g, ok := t.guestIO[dom.ID]
	if !ok {
		return nil, fmt.Errorf("%w: domain %q", ErrNoRxRing, dom.Name)
	}
	del := &g.rxDel
	del.Frames, del.Lost = del.Frames[:0], 0
	q := t.rxQueues[dom.ID]
	if q == nil || q.len() == 0 {
		return del, nil
	}
	meter := t.M.HV.Meter
	as := t.M.Dom0.AS
	consumed := 0
	for q.len() > 0 && (max <= 0 || consumed < max) {
		addr, blen, ok, err := g.rxRing.Pop()
		if err != nil {
			// The guest scribbled its ring header: reset it (containment,
			// like the transmit ring) and stop; queued frames wait for
			// honestly re-posted buffers.
			_ = g.rxRing.Reset()
			t.ctlLane.Record(t.mMeter, telemetry.EvHostile, int32(dom.ID), 1, 0)
			t.deliverNotify(dom, del)
			return del, fmt.Errorf("core: guest %d posted-rx ring: %w", dom.ID, err)
		}
		if !ok {
			break // no posted buffer: the remainder stays queued
		}
		skb := q.pop()
		consumed++
		data, _ := as.Load(skb+kernel.SkbData, 4)
		ln, _ := as.Load(skb+kernel.SkbLen, 4)
		// eth_type_trans pulled the 14-byte header; the guest receives the
		// full frame.
		start := data - 14
		total := int(ln) + 14
		if int(blen) < total {
			// Posted buffer too small for the frame: the guest loses it.
			t.poolFreeOrKernel(skb)
			del.Lost++
			continue
		}
		if err := t.copyToPosted(g, addr, start, total, meter); err != nil {
			// Hostile or unmapped posted address: contained to this frame.
			t.poolFreeOrKernel(skb)
			del.Lost++
			continue
		}
		del.Frames = append(del.Frames, PostedFrame{Addr: addr, Len: total})
		t.poolFreeOrKernel(skb)
	}
	t.deliverNotify(dom, del)
	return del, nil
}

// deliverNotify raises the batch's coalesced guest notification when the
// batch did anything worth notifying about, and records the delivery on
// the control lane.
func (t *Twin) deliverNotify(dom *xen.Domain, del *RxDelivery) {
	if len(del.Frames) > 0 || del.Lost > 0 {
		t.ctlLane.Record(t.mMeter, telemetry.EvPostedRx, int32(dom.ID),
			uint64(len(del.Frames)), uint64(del.Lost))
		t.Coalescer.Deliver(dom)
	}
}

// pageSpan is one page-bounded chunk of a buffer, already translated.
type pageSpan struct {
	pa    uint32 // translated address of the chunk's first byte
	bytes int
}

// spanBuf holds the spans of one frame: kernel.SkbBufSize bytes touch at
// most two pages.
type spanBuf [2]pageSpan

// pageSpans splits [addr, addr+n) at page boundaries and translates the
// start of each chunk — the per-page discipline every copy into
// separately-translated memory must follow: a buffer straddling a page
// boundary must never inherit the first page's translation for bytes on
// the second (the transmit header-copy bug class). All pages translate
// before the caller moves a byte, so its copy is all-or-nothing. The spans
// are built in buf, the caller's own storage, so a frame costs no
// allocation; a buffer of more pages than buf holds spills to the heap.
func pageSpans(buf *spanBuf, addr uint32, n int, translate func(uint32) (uint32, error)) ([]pageSpan, error) {
	spans := buf[:0]
	for off := 0; off < n; {
		chunk := int(mem.PageSize - ((addr + uint32(off)) & mem.PageMask))
		if chunk > n-off {
			chunk = n - off
		}
		pa, err := translate(addr + uint32(off))
		if err != nil {
			return nil, err
		}
		spans = append(spans, pageSpan{pa: pa, bytes: chunk})
		off += chunk
	}
	return spans, nil
}

// copyToPosted copies total bytes of a received frame starting at dom0
// virtual address start into the guest buffer at gaddr, translating every
// destination page separately through the guest's software TLB. The whole
// source is read, through the twin's bounce buffer, before the first guest
// byte moves.
func (t *Twin) copyToPosted(g *guestIO, gaddr uint32, start uint32, total int, meter *cycles.Meter) error {
	var buf spanBuf
	spans, err := pageSpans(&buf, gaddr, total, func(a uint32) (uint32, error) {
		return g.gtlb.Translate(meter, a)
	})
	if err != nil {
		return err
	}
	if cap(t.rxBounce) < total {
		t.rxBounce = make([]byte, total)
	}
	src := t.rxBounce[:total]
	if err := t.M.Dom0.AS.ReadInto(start, src); err != nil {
		return err
	}
	meter.AddTo(cycles.CompXen, uint64(total)*cost.HvCopyPerByte)
	phys := t.M.HV.Phys
	off := 0
	for _, s := range spans {
		meter.TouchLines(s.pa, s.bytes)
		fd := phys.FrameData(s.pa / mem.PageSize)
		if fd == nil {
			// Unreachable after the TLB's RAM check; fail closed anyway.
			return fmt.Errorf("core: posted buffer frame %#x has no RAM", s.pa/mem.PageSize)
		}
		copy(fd[s.pa&mem.PageMask:int(s.pa&mem.PageMask)+s.bytes], src[off:off+s.bytes])
		off += s.bytes
	}
	return nil
}

// GuestTLBCached reports how many page translations a guest's posted-path
// TLB currently caches (introspection for tests and diagnostics).
func (t *Twin) GuestTLBCached(dom mem.Owner) int {
	if g, ok := t.guestIO[dom]; ok {
		return g.gtlb.Cached()
	}
	return 0
}

// GuestTLBViolations reports how many hostile posted addresses a guest's
// TLB has refused over its lifetime.
func (t *Twin) GuestTLBViolations(dom mem.Owner) uint64 {
	if g, ok := t.guestIO[dom]; ok {
		return g.gtlb.Violations
	}
	return 0
}
