package main

import (
	"fmt"

	"twindrivers/internal/core"
	"twindrivers/internal/cost"
	"twindrivers/internal/cycles"
	"twindrivers/internal/netpath"
)

// The ladder driver: the single-guest workloads' traced pass. It issues,
// against core directly, exactly the calls and guest-stack charges that
// netpath.SendBurst / ReceiveBurst issue for the same configuration — one
// span around each public call — with harness-stamped frames, so every
// frame can be checked byte for byte at the wire and at delivery. That it
// reproduces the untraced netpath run's simulated cycles exactly is what
// shows the reproduction is faithful.

// chunks mirrors netpath's burst loop: n frames in chunks of the batch
// size, stopping early on a chunk that moved nothing.
func (r *rig) chunks(n int, step func(burst, moved int) (int, error)) (int, error) {
	bs := r.c.batch
	if bs < 1 {
		bs = 1
	}
	moved := 0
	for moved < n {
		burst := n - moved
		if burst > bs {
			burst = bs
		}
		done, err := step(burst, moved)
		moved += done
		if err != nil {
			return moved, err
		}
		if done == 0 {
			break
		}
	}
	return moved, nil
}

// ladderSend transmits n stamped frames from guest 0. Frame i's sojourn
// starts at origin (plus due[i] when the caller runs open loop).
func (r *rig) ladderSend(n, size int, origin uint64, due []uint64) (int, error) {
	start := func(i int) uint64 {
		if due != nil {
			return origin + due[i]
		}
		return origin
	}
	m, dom := r.m, r.m.DomU
	switch {
	case r.c.postedTX:
		return r.chunks(n, func(burst, moved int) (int, error) {
			// sendTwinPostedBatch: write each frame into the guest's own
			// arena, post its descriptor, one crossing services the lot.
			m.HV.Switch(dom)
			if r.txArena == nil {
				r.txArena = [][]uint32{r.newArena(dom, core.TxRingSlots, core.TxSlotBytes)}
				r.txNext = []int{0}
			}
			r.tr.begin(spPostTx)
			r.descs = r.descs[:0]
			for k := 0; k < burst; k++ {
				r.tr.begin(spFrame)
				f, seq := r.txFrame(r.frames[k], 0, size)
				r.tr.end()
				r.tx[0].push(entry{seq: seq, t0: start(moved + k)})
				slot := r.txArena[0][r.txNext[0]]
				r.txNext[0] = (r.txNext[0] + 1) % len(r.txArena[0])
				if err := dom.AS.WriteBytes(slot, f); err != nil {
					r.tr.end()
					return 0, err
				}
				r.mm.AddTo(cycles.CompDomU, cost.TxKernelFixed+cost.TxPostPerDesc)
				r.descs = append(r.descs, core.TxPost{Addr: slot, Len: uint32(len(f))})
			}
			posted, err := r.t.PostTxDescriptors(dom, r.descs)
			r.tr.end()
			if err != nil || posted != burst {
				return 0, fmt.Errorf("posted %d of %d tx descriptors: %v", posted, burst, err)
			}
			r.tr.begin(spServiceRings)
			sent, err := r.t.ServiceRings(r.d, 0)
			r.tr.end()
			return sent[dom.ID], err
		})
	case r.c.batch <= 1:
		// sendTwin: guest stack, then one hypercall per frame.
		for k := 0; k < n; k++ {
			r.tr.begin(spFrame)
			f, seq := r.txFrame(r.frames[0], 0, size)
			r.tr.end()
			r.tx[0].push(entry{seq: seq, t0: start(k)})
			m.HV.Switch(dom)
			r.mm.AddTo(cycles.CompDomU, cost.TxKernelFixed+uint64(len(f))*cost.TxKernelPerByte)
			r.tr.begin(spGuestTransmit)
			err := r.t.GuestTransmit(r.d, f)
			r.tr.end()
			if err != nil {
				return k, err
			}
		}
		return n, nil
	default:
		return r.chunks(n, func(burst, moved int) (int, error) {
			// sendTwinBatch: the stack runs per frame, the hypercall once.
			m.HV.Switch(dom)
			batch := r.batch[:burst]
			for k := range batch {
				r.tr.begin(spFrame)
				f, seq := r.txFrame(r.frames[k], 0, size)
				r.tr.end()
				batch[k] = f
				r.tx[0].push(entry{seq: seq, t0: start(moved + k)})
				r.mm.AddTo(cycles.CompDomU, cost.TxKernelFixed+uint64(len(f))*cost.TxKernelPerByte)
			}
			r.tr.begin(spGuestTransmitBatch)
			sent, err := r.t.GuestTransmitBatch(r.d, batch)
			r.tr.end()
			return sent, err
		})
	}
}

// ladderReceive injects n stamped frames for guest 0 and runs the receive
// path; every delivered frame is checked against what was injected.
func (r *rig) ladderReceive(n, size int) (int, error) {
	m, dom := r.m, r.m.DomU
	switch {
	case r.c.postedRX:
		return r.chunks(n, func(burst, _ int) (int, error) {
			// recvTwinPostedBatch: post buffers, inject, one coalesced
			// interrupt, delivery copies once into the posted buffers.
			m.HV.Switch(dom)
			if r.rxArena == nil {
				r.rxArena = r.newArena(dom, core.RxRingSlots, netpath.RxSlotBytes)
			}
			bufs := make([]core.RxPost, burst)
			for i := range bufs {
				bufs[i] = core.RxPost{Addr: r.rxArena[r.rxNext], Len: netpath.RxSlotBytes}
				r.rxNext = (r.rxNext + 1) % len(r.rxArena)
			}
			r.tr.begin(spPostRx)
			posted, err := r.t.PostRxBuffers(dom, bufs)
			if err == nil {
				r.mm.AddTo(cycles.CompDomU, uint64(posted)*cost.RxPostPerBuffer)
			}
			r.tr.end()
			if err != nil || posted != burst {
				return 0, fmt.Errorf("posted %d of %d rx buffers: %v", posted, burst, err)
			}
			if err := r.inject(posted, size); err != nil {
				return 0, err
			}
			r.t.Coalescer.Begin()
			r.tr.begin(spHandleIRQ)
			err = r.t.HandleIRQ(r.d)
			r.tr.end()
			var del *core.RxDelivery
			if err == nil {
				r.tr.begin(spDeliverPosted)
				del, err = r.t.DeliverPendingPosted(dom, posted)
				r.tr.end()
			}
			r.t.Coalescer.End()
			if err != nil {
				return 0, err
			}
			for _, fr := range del.Frames {
				r.mm.AddTo(cycles.CompDomU, cost.PvDriverRxPosted)
				r.mm.AddTo(cycles.CompDomU, cost.RxKernelFixed+uint64(fr.Len)*cost.RxKernelPerByte)
			}
			r.tr.begin(spVerify)
			for _, fr := range del.Frames {
				pkt, rerr := dom.AS.ReadBytes(fr.Addr, fr.Len)
				if rerr != nil {
					r.st.fail("posted frame unreadable at %#x: %v", fr.Addr, rerr)
					continue
				}
				r.delivered(pkt)
			}
			r.tr.end()
			r.st.lost += uint64(del.Lost)
			return len(del.Frames), nil
		})
	case r.c.batch <= 1:
		// recvTwin: inject, interrupt in guest context, copy out, notify.
		for k := 0; k < n; k++ {
			m.HV.Switch(dom)
			if err := r.inject(1, size); err != nil {
				return k, err
			}
			r.tr.begin(spHandleIRQ)
			err := r.t.HandleIRQ(r.d)
			r.tr.end()
			if err != nil {
				return k, err
			}
			r.tr.begin(spDeliverCopy)
			pkts, err := r.t.DeliverPending(dom)
			r.tr.end()
			if err != nil {
				return k, err
			}
			for range pkts {
				r.mm.AddTo(cycles.CompDomU, cost.PvDriverRx)
				r.mm.AddTo(cycles.CompDomU, cost.RxKernelFixed+uint64(size)*cost.RxKernelPerByte)
			}
			r.tr.begin(spVerify)
			for _, pkt := range pkts {
				r.delivered(pkt)
			}
			r.tr.end()
			if len(pkts) != 1 {
				return k, fmt.Errorf("delivered %d frames for one injected", len(pkts))
			}
		}
		return n, nil
	}
	return 0, fmt.Errorf("ladder: batched copy receive is not a benchmark configuration")
}

// inject stamps n frames and hands them to the device.
func (r *rig) inject(n, size int) error {
	for k := 0; k < n; k++ {
		r.tr.begin(spFrame)
		f, seq := r.rxFrame(r.frames[0], size)
		r.tr.end()
		r.rx.push(entry{seq: seq})
		r.tr.begin(spInject)
		ok := r.d.Dev.Inject(f)
		r.tr.end()
		if !ok {
			return fmt.Errorf("rx overrun")
		}
	}
	return nil
}
