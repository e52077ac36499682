package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"twindrivers/internal/core"
	"twindrivers/internal/cost"
	"twindrivers/internal/cycles"
	"twindrivers/internal/drivermodel"
	"twindrivers/internal/mem"
	"twindrivers/internal/netpath"
	"twindrivers/internal/recovery"
	"twindrivers/internal/vswitch"
	"twindrivers/internal/xen"
)

// entry is one frame offered for transmit and not yet seen on the wire.
type entry struct {
	seq uint64 // harness stamp (0 for netpath-generated frames)
	t0  uint64 // sojourn start on the machine clock (burst start, or due time)
	tq  uint64 // the guest's queue-meter clock at that moment (multi-queue)
}

// fifo is a growable ring of entries; steady state never allocates.
type fifo struct {
	buf     []entry
	head, n int
}

func (f *fifo) push(e entry) {
	if f.n == len(f.buf) {
		grown := make([]entry, 2*len(f.buf)+16)
		for i := 0; i < f.n; i++ {
			grown[i] = f.buf[(f.head+i)%len(f.buf)]
		}
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.n)%len(f.buf)] = e
	f.n++
}

func (f *fifo) pop() (entry, bool) {
	if f.n == 0 {
		return entry{}, false
	}
	e := f.buf[f.head]
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	return e, true
}

func (f *fifo) clear() { f.head, f.n = 0, 0 }

// tally is what a phase counts. Every offered frame ends up completed,
// lost to containment the workload expects, or failed.
type tally struct {
	offered   uint64
	completed uint64
	lost      uint64 // contained loss: died with a faulted instance, or dropped by the switch
	failed    uint64 // output-check failures, short or erroring calls
	sojourn   []uint64
	firstFail string

	// fault_storm
	faults        int
	mttr          []uint64
	recoverNs     []int64
	lostRx        uint64
	retriedTx     uint64
	skbsReclaimed uint64

	// open_loop
	backlogMax int

	// tenants: frames each guest completed under budgeted contention
	contended []uint64

	// occupancy maxima, sampled at step ends
	poolOutMax, pinnedMax, stagedMax, rxPendingMax int
}

func (t *tally) fail(format string, args ...any) { t.failN(1, format, args...) }

// failN counts n failed frames under one message; the first message is kept.
func (t *tally) failN(n uint64, format string, args ...any) {
	t.failed += n
	if t.firstFail == "" {
		t.firstFail = fmt.Sprintf(format, args...)
	}
}

// rig is one machine brought up for one workload, plus the harness state
// that generates its inputs and checks its outputs.
type rig struct {
	c   *config
	p   *netpath.Path
	m   *core.Machine
	t   *core.Twin
	d   *core.NICDev
	sup *recovery.Supervisor

	mm *cycles.Meter   // the machine meter, captured before any per-queue swap
	qm []*cycles.Meter // per-queue meters; nil on single-queue machines
	gq []int           // guest index → queue index

	ladder bool    // drive core directly instead of netpath's single-guest entry points
	dry    bool    // generator-only run: no call reaches the system
	tr     *tracer // nil = spans off
	idle   uint64  // open_loop: simulated cycles the guest spent with nothing due

	tx       []fifo // per guest (netpath-generated frames all use slot 0)
	rx       fifo   // ladder receive: injected stamps awaiting delivery
	seqs     []uint64
	devMAC   [6]byte
	guestMAC [][6]byte
	wireSize int  // netpath-format frames: the size the current step asked for
	ordered  bool // netpath-format frames: stamps must be consecutive within the step
	lastSeq  int
	scratch  []byte
	frames   [][]byte // reusable frame buffers of one chunk
	batch    [][]byte // the chunk handed to GuestTransmitBatch
	crc      uint32   // running digest of every frame seen at the wire or at delivery

	sizes   *deck      // tenants: the current turn's frame sizes
	txArena [][]uint32 // per guest postable transmit buffers
	txNext  []int
	rxArena []uint32 // guest 0 postable receive buffers (ladder)
	rxNext  int
	descs   []core.TxPost

	st tally
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// netpathGuestMAC is the station address netpath registers for guest g.
func netpathGuestMAC(g int) [6]byte { return [6]byte{0x02, 0x54, 0x57, 0x49, 0x4E, byte(g)} }

// bringUp builds the machine from cold: assemble, derive, load both
// instances, probe and open, then attach the wire and the supervisor.
func bringUp(c *config) (*rig, error) {
	model, ok := drivermodel.Get(c.backend)
	if !ok {
		return nil, fmt.Errorf("unknown backend %q", c.backend)
	}
	tcfg := c.twin
	if c.supervised {
		// A runaway driver burns its whole watchdog budget before it is cut
		// off; the default 2M instructions would make that one fault type
		// the workload. 200k is still 6x the largest fault-free invocation.
		tcfg.Watchdog = 200_000
	}
	p, err := netpath.NewMultiModel(netpath.Twin, 1, c.guests, model, tcfg)
	if err != nil {
		return nil, err
	}
	p.BatchSize, p.PostedTX, p.PostedRX = c.batch, c.postedTX, c.postedRX
	r := &rig{c: c, p: p, m: p.M, t: p.T, d: p.M.Devs[0], mm: p.M.CPU.Meter,
		tx: make([]fifo, c.guests), seqs: make([]uint64, c.guests),
		scratch: make([]byte, 2048), lastSeq: -1}
	r.devMAC = r.d.Dev.HWAddr()
	if r.t.QueueCount() > 1 {
		r.qm = r.t.QueueMeters()
	}
	for g, dom := range r.m.Guests {
		mac := netpathGuestMAC(g)
		if sw := r.t.VSwitch(); sw != nil {
			if owner, ok := sw.Lookup(vswitch.MAC(mac)); !ok || owner != dom.ID {
				return nil, fmt.Errorf("guest %d: station MAC %x is not bound to its port", g, mac)
			}
		}
		r.guestMAC = append(r.guestMAC, mac)
		r.gq = append(r.gq, r.t.QueueOf(dom.ID))
		r.tx[g].buf = make([]entry, 64)
	}
	r.rx.buf = make([]entry, 64)
	for i := 0; i < core.TxRingSlots; i++ {
		r.frames = append(r.frames, make([]byte, 2048))
	}
	r.batch = make([][]byte, core.TxRingSlots)
	if c.name == "tenants" {
		r.txArena = make([][]uint32, c.guests)
		r.txNext = make([]int, c.guests)
		for g, dom := range r.m.Guests {
			r.txArena[g] = r.newArena(dom, core.TxRingSlots, core.TxSlotBytes)
		}
		r.st.contended = make([]uint64, c.guests)
	}
	if c.supervised {
		// The window is far shorter than the spacing of injected faults, so
		// the storm never escalates; the lifetime budget stops it before the
		// machine's SVM mapping window runs out.
		r.sup = recovery.New(r.m, r.t, recovery.Policy{MaxFaults: 3, Window: 1_000_000, MaxRecoveries: stormRecoveries})
	}
	r.d.Dev.SetOnTransmit(r.onWire)
	return r, nil
}

func (r *rig) newArena(dom *xen.Domain, slots int, bytes uint32) []uint32 {
	a := make([]uint32, slots)
	for i := range a {
		a[i] = r.m.HV.AllocHeap(dom, bytes)
	}
	return a
}

// now is the virtual clock sojourn is measured on: every cycle the
// machine meter ever charged, plus the time the open-loop guest idled.
func (r *rig) now() uint64 { return r.mm.Lifetime() + r.idle }

// simWork is the span clock: all simulated work done so far, the machine
// meter plus every per-queue meter.
func (r *rig) simWork() uint64 {
	t := r.mm.Lifetime()
	for _, q := range r.qm {
		t += q.Lifetime()
	}
	return t
}

// critical is netbench's critical-path convention: the machine meter plus
// the slowest queue meter (queues model cores running side by side).
func (r *rig) critical() uint64 {
	t := r.mm.Total()
	var slowest uint64
	for _, q := range r.qm {
		if v := q.Total(); v > slowest {
			slowest = v
		}
	}
	return t + slowest
}

// --- frames ---------------------------------------------------------------

// stamped builds harness frame seq into buf: Ethernet header, then the
// stamped payload (rng.go).
func stamped(buf []byte, size int, seq uint64, src, dst [6]byte) []byte {
	f := buf[:size]
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	f[12], f[13] = 0x08, 0x00
	fillPayload(f[14:], seq)
	return f
}

func externalMAC(a, b byte, seq uint64) [6]byte { return [6]byte{0, 0x50, 0x56, a, b, byte(seq)} }

func (r *rig) nextSeq(g int) uint64 {
	r.seqs[g]++
	return uint64(g)<<48 | r.seqs[g]
}

func (r *rig) txSrc(g int) [6]byte {
	if r.c.guests == 1 {
		return r.devMAC // netpath's single-guest frames leave from the device's own address
	}
	return r.guestMAC[g]
}

// txFrame stamps the next transmit frame of guest g into buf.
func (r *rig) txFrame(buf []byte, g, size int) ([]byte, uint64) {
	seq := r.nextSeq(g)
	return stamped(buf, size, seq, r.txSrc(g), externalMAC(9, 9, seq)), seq
}

// rxFrame stamps the next receive frame (guest 0) into buf.
func (r *rig) rxFrame(buf []byte, size int) ([]byte, uint64) {
	seq := r.nextSeq(0)
	return stamped(buf, size, seq, externalMAC(1, 2, seq), r.devMAC), seq
}

// netpathFrame rebuilds, into buf, the frame netpath generates for a
// one-byte stamp: zero payload with every 97th byte set from the stamp.
func netpathFrame(buf []byte, size int, stamp byte, src, dst [6]byte) []byte {
	f := buf[:size]
	clear(f)
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	f[12], f[13] = 0x08, 0x00
	for i := 0; i < size-14; i += 97 {
		f[14+i] = stamp + byte(i)
	}
	return f
}

// --- output checking --------------------------------------------------------

// onWire is the wire: the device model calls it once per transmitted
// frame. It closes the frame's sojourn sample and checks the bytes.
func (r *rig) onWire(pkt []byte) {
	r.tr.begin(spOnTransmit)
	defer r.tr.end()
	r.crc = crc32.Update(r.crc, castagnoli, pkt)
	if len(pkt) < minStamped {
		r.st.fail("runt frame of %d bytes on the wire", len(pkt))
		return
	}
	g := 0
	stampedFrame := r.ladder || r.txArena != nil
	var seq uint64
	if stampedFrame {
		seq = binary.LittleEndian.Uint64(pkt[stampOffset:])
		g = int(seq >> 48)
		if g >= len(r.tx) {
			r.st.fail("wire frame with unknown stamp %#x", seq)
			return
		}
	}
	e, ok := r.tx[g].pop()
	if !ok {
		r.st.fail("wire frame nobody offered (guest %d, %d bytes)", g, len(pkt))
		return
	}
	if stampedFrame {
		// Exactly once and in order: the frame must be its guest's oldest
		// outstanding one. Resynchronise on a gap so one loss is one failure.
		for e.seq != seq {
			r.st.fail("guest %d: frame %#x never reached the wire (saw %#x)", g, e.seq, seq)
			if e, ok = r.tx[g].pop(); !ok {
				return
			}
		}
		want := stamped(r.scratch, len(pkt), seq, r.txSrc(g), externalMAC(9, 9, seq))
		if !bytes.Equal(pkt, want) {
			r.st.fail("guest %d: frame %#x differs on the wire", g, seq)
			return
		}
	} else {
		stamp := pkt[5]
		want := netpathFrame(r.scratch, r.wireSize, stamp, r.devMAC, externalMAC(9, 9, uint64(stamp)))
		if !bytes.Equal(pkt, want) {
			r.st.fail("netpath frame %d differs on the wire (%d bytes, want %d)", stamp, len(pkt), r.wireSize)
			return
		}
		if r.ordered && r.lastSeq >= 0 && stamp != byte(r.lastSeq+1) {
			r.st.fail("netpath frame %d out of order after %d", stamp, r.lastSeq)
		}
		r.lastSeq = int(stamp)
	}
	soj := r.mm.Lifetime() + r.idle - e.t0
	if r.qm != nil {
		soj += r.qm[r.gq[g]].Lifetime() - e.tq
	}
	r.st.sojourn = append(r.st.sojourn, soj)
	r.st.completed++
}

// offer records n frames of guest g as offered at t0.
func (r *rig) offer(g, n int, t0 uint64) {
	for i := 0; i < n; i++ {
		r.tx[g].push(entry{t0: t0})
	}
	r.st.offered += uint64(n)
}

// settleTx closes a transmit step: every frame offered must have been seen.
func (r *rig) settleTx(g int, what string) {
	if n := r.tx[g].n; n > 0 {
		r.st.failN(uint64(n), "%s: %d offered frames never reached the wire", what, n)
		r.tx[g].clear()
	}
}

// complete records n receive-side completions at the current clock.
func (r *rig) complete(n int, t0 uint64) {
	soj := r.now() - t0
	for i := 0; i < n; i++ {
		r.st.sojourn = append(r.st.sojourn, soj)
	}
	r.st.completed += uint64(n)
}

// delivered checks one frame handed to guest 0 against the oldest
// injected stamp, byte for byte.
func (r *rig) delivered(pkt []byte) {
	r.crc = crc32.Update(r.crc, castagnoli, pkt)
	e, ok := r.rx.pop()
	if !ok {
		r.st.fail("delivery of a frame nobody injected")
		return
	}
	want := stamped(r.scratch, len(pkt), e.seq, externalMAC(1, 2, e.seq), r.devMAC)
	if !bytes.Equal(pkt, want) {
		r.st.fail("frame %#x differs at delivery", e.seq)
	}
}

// conservation asserts the invariants that must hold whenever the path is
// quiescent: no pooled buffer leaked, no posted-transmit page still pinned.
func (r *rig) conservation(when string) {
	if f, o, c := r.t.PoolFree(), r.t.PoolOutstanding(), r.t.PoolCapacity(); f+o != c {
		r.st.fail("%s: pool leaks: %d free + %d outstanding != %d", when, f, o, c)
	}
	if n := r.t.PinnedTxPages(); n != 0 {
		r.st.fail("%s: %d posted-transmit pages still pinned", when, n)
	}
}

// sample records the occupancy maxima the per-layer report shows.
func (r *rig) sample() {
	if v := r.t.PoolOutstanding(); v > r.st.poolOutMax {
		r.st.poolOutMax = v
	}
	if v := r.t.PinnedTxPages(); v > r.st.pinnedMax {
		r.st.pinnedMax = v
	}
	for _, dom := range r.m.Guests {
		staged, _ := r.t.StagedTx(dom.ID)
		posted, _ := r.t.PostedTxPending(dom.ID)
		if staged+posted > r.st.stagedMax {
			r.st.stagedMax = staged + posted
		}
		if v := r.t.PendingRx(dom.ID); v > r.st.rxPendingMax {
			r.st.rxPendingMax = v
		}
	}
}

// --- executing steps --------------------------------------------------------

// exec runs one generated step against the system and accounts for it.
func (r *rig) exec(s *step) error {
	if r.dry {
		r.execDry(s)
		return nil
	}
	switch s.kind {
	case kTx:
		return r.txBurst(s.n, s.size, r.now())
	case kRx:
		return r.rxBurst(s.n, s.size)
	case kArrivals:
		return r.serveArrivals(s)
	case kContend:
		return r.contend(s)
	case kDrain:
		return r.drain()
	case kLocal:
		t0 := r.now()
		r.st.offered += uint64(s.n)
		r.tr.begin(spSendLocal)
		n, err := r.p.SendLocal(0, s.size, s.n, s.src, s.dst)
		r.tr.end()
		r.complete(n, t0)
		if err != nil || n != s.n {
			r.st.fail("SendLocal %d->%d moved %d of %d: %v", s.src, s.dst, n, s.n, err)
		}
		return nil
	case kRxMulti, kTxMulti:
		return r.multiBurst(s)
	}
	return fmt.Errorf("unknown step kind %d", s.kind)
}

// txBurst offers n frames of one size from guest 0; their sojourn runs
// from t0. Untraced it is one netpath.SendBurst; on the ladder it is the
// same call sequence issued against core.
func (r *rig) txBurst(n, size int, t0 uint64) error {
	r.wireSize, r.ordered, r.lastSeq = size, true, -1
	var done int
	var err error
	if r.ladder {
		r.st.offered += uint64(n)
		done, err = r.ladderSend(n, size, t0, nil)
	} else {
		r.offer(0, n, t0)
		done, err = r.p.SendBurst(0, size, n)
	}
	if err != nil || done != n {
		r.st.fail("transmit burst moved %d of %d: %v", done, n, err)
	}
	r.settleTx(0, "transmit burst")
	return nil
}

func (r *rig) rxBurst(n, size int) error {
	t0 := r.now()
	r.st.offered += uint64(n)
	var done int
	var err error
	if r.ladder {
		done, err = r.ladderReceive(n, size)
	} else {
		done, err = r.p.ReceiveBurst(0, size, n)
	}
	r.complete(done, t0)
	if err != nil || done != n {
		r.st.fail("receive burst moved %d of %d: %v", done, n, err)
	}
	return nil
}

// serveArrivals is the open-loop guest: it watches the virtual clock,
// stages every frame that has fallen due (at most openCap per kick) and
// kicks; with nothing due it idles until the next arrival. Idle time is
// never charged to the meter. Sojourn runs from each frame's due time.
func (r *rig) serveArrivals(s *step) error {
	origin := r.now()
	due := s.due
	for i := 0; i < len(due); {
		now := r.now() - origin
		if due[i] > now {
			r.idle += due[i] - now
			now = due[i]
		}
		k := 0
		for i+k < len(due) && due[i+k] <= now {
			k++
		}
		if k > r.st.backlogMax {
			r.st.backlogMax = k
		}
		if k > openCap {
			k = openCap
		}
		// Frames of one kick share a sojourn origin only if they fell due
		// together; each gets its own due time.
		r.wireSize, r.ordered, r.lastSeq = s.size, true, -1
		var done int
		var err error
		if r.ladder {
			r.st.offered += uint64(k)
			done, err = r.ladderSend(k, s.size, origin, due[i:i+k])
		} else {
			for j := 0; j < k; j++ {
				r.tx[0].push(entry{t0: origin + due[i+j]})
			}
			r.st.offered += uint64(k)
			done, err = r.p.SendBurst(0, s.size, k)
		}
		if err != nil || done != k {
			r.st.fail("open-loop kick moved %d of %d: %v", done, k, err)
		}
		r.settleTx(0, "open-loop kick")
		i += k
	}
	return nil
}

// contend is the tenants transmit step: every guest tops its posted ring up
// to ringBacklog descriptors (stamped frames written into its own arena,
// sourced from its own station MAC), then one crossing may consume at most
// queueBudget descriptors per queue — so demand always exceeds service and
// the completion counts are the scheduler's share decisions. It is
// netpath.SendContended's call sequence with honest source addresses:
// netpath stamps the device MAC on every guest's frames, which the switch's
// port binding rejects as spoofed for all but guest 0.
func (r *rig) contend(s *step) error {
	if s.seed != 0 {
		r.sizes = newDeck(&rng{s: s.seed}, imix)
	}
	t0 := r.now()
	for g, dom := range r.m.Guests {
		want := ringBacklog - r.tx[g].n
		if want <= 0 {
			continue
		}
		r.m.HV.Switch(dom)
		var tq uint64
		if r.qm != nil {
			tq = r.qm[r.gq[g]].Lifetime()
		}
		r.tr.begin(spPostTx)
		r.descs = r.descs[:0]
		for k := 0; k < want; k++ {
			r.tr.begin(spFrame)
			f, seq := r.txFrame(r.frames[0], g, r.sizes.draw())
			r.tr.end()
			slot := r.txArena[g][r.txNext[g]]
			r.txNext[g] = (r.txNext[g] + 1) % len(r.txArena[g])
			if err := dom.AS.WriteBytes(slot, f); err != nil {
				r.tr.end()
				return err
			}
			r.mm.AddTo(cycles.CompDomU, cost.TxKernelFixed+cost.TxPostPerDesc)
			r.descs = append(r.descs, core.TxPost{Addr: slot, Len: uint32(len(f))})
			r.tx[g].push(entry{seq: seq, t0: t0, tq: tq})
		}
		posted, err := r.t.PostTxDescriptors(dom, r.descs)
		r.tr.end()
		r.st.offered += uint64(want)
		if err != nil || posted != want {
			return fmt.Errorf("guest %d posted %d of %d descriptors: %v", g, posted, want, err)
		}
	}
	sent, err := r.crossing()
	if err != nil {
		return err
	}
	for id, n := range sent {
		r.st.contended[int(id)-1] += uint64(n)
	}
	return nil
}

// crossing is one budgeted ServiceRings call.
func (r *rig) crossing() (map[mem.Owner]int, error) {
	r.tr.begin(spServiceRings)
	sent, err := r.t.ServiceRings(r.d, queueBudget)
	r.tr.end()
	if err != nil {
		return nil, fmt.Errorf("budgeted crossing: %w", err)
	}
	return sent, nil
}

// drain keeps crossing, without topping the rings up, until nothing is
// outstanding.
func (r *rig) drain() error {
	for {
		outstanding := 0
		for g := range r.tx {
			outstanding += r.tx[g].n
		}
		if outstanding == 0 {
			return nil
		}
		sent, err := r.crossing()
		if err != nil {
			return err
		}
		if len(sent) == 0 {
			break // nothing moved: whatever is left never will
		}
	}
	for g := range r.tx {
		r.settleTx(g, "drain")
	}
	return nil
}

// maxRetries bounds how often one burst is offered again after a recovery:
// an injected bug dies once, so a burst that keeps dying is a defect to
// report, not to retry for ever.
const maxRetries = 2

// multiBurst is a fault_storm (or tenants receive) step through netpath's
// multi-guest entry points. When the injected bug kills the instance the
// harness times Supervisor.Recover itself, counts what the dead burst
// lost, and offers the burst again; the retry's sojourn still runs from
// the original start, so it carries the time to repair.
func (r *rig) multiBurst(s *step) error {
	if s.inject > 0 {
		inj := recovery.Injectors()[s.inject-1]
		if err := inj.Inject(r.m, r.t, r.d); err != nil {
			return fmt.Errorf("inject %s: %w", inj.Name, err)
		}
	}
	guests := len(r.m.Guests)
	want := s.n * guests
	t0 := r.now()
	for attempt := 0; ; attempt++ {
		var moved int
		var err error
		if s.kind == kTxMulti {
			r.tx[0].clear()
			r.offer(0, want, t0)
			r.wireSize, r.ordered = s.size, false
			before := r.st.completed
			r.tr.begin(spSendMulti)
			got, serr := r.p.SendBurstMulti(0, s.size, s.n)
			r.tr.end()
			err = serr
			for _, n := range got {
				moved += n
			}
			if wire := int(r.st.completed - before); wire != moved {
				r.st.fail("SendBurstMulti reported %d frames, the wire saw %d", moved, wire)
			}
		} else {
			r.st.offered += uint64(want)
			r.tr.begin(spReceiveMulti)
			got, rerr := r.p.ReceiveBurstMulti(0, s.size, s.n)
			r.tr.end()
			err = rerr
			for _, n := range got {
				moved += n
			}
			r.complete(moved, t0)
		}
		if err == nil {
			if moved != want {
				r.st.fail("multi-guest burst moved %d of %d", moved, want)
			}
			if s.kind == kTxMulti {
				r.settleTx(0, "multi-guest transmit")
			}
			return nil
		}
		if r.sup == nil || !errors.Is(err, core.ErrDriverDead) || attempt == maxRetries {
			return fmt.Errorf("multi-guest burst (attempt %d): %w", attempt+1, err)
		}
		// Contained: the frames that did not complete died with the instance.
		died := uint64(want - moved)
		r.st.lost += died
		if s.kind == kRxMulti {
			r.st.lostRx += died
		}
		r.st.retriedTx += uint64(r.t.LastAbort.StagedTxDiscarded)
		r.tr.begin(spRecover)
		h0 := time.Now()
		ev, rerr := r.sup.Recover()
		r.st.recoverNs = append(r.st.recoverNs, int64(time.Since(h0)))
		r.tr.end()
		if rerr != nil || ev == nil {
			return fmt.Errorf("recovery refused: %v", rerr)
		}
		r.st.faults++
		r.st.mttr = append(r.st.mttr, ev.MTTRCycles)
		r.st.skbsReclaimed += uint64(ev.SkbsReclaimed)
	}
}

// execDry runs the generator and the ledgers alone: frames are stamped and
// checked but no call reaches the system. Its allocations are the
// harness's, subtracted from the measured phase's.
func (r *rig) execDry(s *step) {
	switch s.kind {
	case kTx, kTxMulti:
		n := s.n
		if s.kind == kTxMulti {
			n *= r.c.guests
		}
		r.wireSize, r.ordered, r.lastSeq = s.size, false, -1
		r.offer(0, n, r.now())
		for i := 0; i < n; i++ {
			r.onWire(netpathFrame(r.frames[1], s.size, byte(i), r.devMAC, externalMAC(9, 9, uint64(byte(i)))))
		}
	case kArrivals:
		r.wireSize, r.ordered = s.size, false
		for range s.due {
			r.offer(0, 1, r.now())
			r.onWire(netpathFrame(r.frames[1], s.size, 0, r.devMAC, externalMAC(9, 9, 0)))
		}
	case kContend:
		if s.seed != 0 {
			r.sizes = newDeck(&rng{s: s.seed}, imix)
		}
		for c := 0; c < queueBudget*len(r.qm); c++ {
			g := c % r.c.guests
			f, seq := r.txFrame(r.frames[0], g, r.sizes.draw())
			r.tx[g].push(entry{seq: seq, t0: r.now()})
			r.st.offered++
			r.onWire(f)
		}
	case kRx, kLocal:
		r.st.offered += uint64(s.n)
		r.complete(s.n, r.now())
	case kRxMulti:
		r.st.offered += uint64(s.n * r.c.guests)
		r.complete(s.n*r.c.guests, r.now())
	}
}
