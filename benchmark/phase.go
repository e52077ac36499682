package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"twindrivers/internal/cycles"
	"twindrivers/internal/vswitch"
)

// options are the knobs of one invocation.
type options struct {
	seed    uint64
	seconds int  // sizes the fixed frame counts: count = rate × seconds
	rounds  int  // measured rounds, each a whole number of laps
	trace   bool // also run the traced pass and the isolated kernels

	// Tests only: a smoke-sized run. Zero means the real thing.
	setups int // cold bring-ups instead of coldSetups
	frames int // frames per round instead of rate × seconds / 10; also shrinks the kernels
}

// coldSetups is how many times a workload's machine is brought up from
// cold; setup_s is the fastest.
const coldSetups = 9

// tracedRounds is how many of the measured rounds the traced pass replays
// (about a quarter of the count).
func (o *options) tracedRounds() int {
	n := (o.rounds + 2) / 4
	if n < 1 {
		n = 1
	}
	return n
}

// counters is a snapshot of every monotonic count the per-layer report
// differences across a phase.
type counters struct {
	retired                              uint64
	tlb, l1d, l1i, memAcc, flushes       uint64
	hypercalls, switches, events         uint64
	upcalls                              uint64
	gtlbHits, gtlbMisses, gtlbViolations uint64
	postedLost, spoofDropped, rxDropped  uint64
	vs                                   vswitch.Stats
	busy, idle                           uint64
}

func (r *rig) counters() counters {
	c := counters{
		retired:    r.m.CPU.Retired,
		hypercalls: r.m.HV.Hypercalls, switches: r.m.HV.Switches, events: r.m.HV.Events,
		upcalls: r.t.UpcallsPerformed(),
		busy:    r.mm.Lifetime(), idle: r.idle,
	}
	for _, m := range append([]*cycles.Meter{r.mm}, r.qm...) {
		c.tlb += m.TLBMisses
		c.l1d += m.L1Misses
		c.l1i += m.L1IMisses
		c.memAcc += m.MemAccesses
		c.flushes += m.Flushes
	}
	for _, dom := range r.m.Guests {
		h, m := r.t.GuestTLBStats(dom.ID)
		c.gtlbHits += h
		c.gtlbMisses += m
		c.gtlbViolations += r.t.GuestTLBViolations(dom.ID)
		c.postedLost += r.t.PostedTxLost(dom.ID)
		c.spoofDropped += r.t.VswitchSpoofDropped(dom.ID)
		c.rxDropped += r.t.VswitchRxDropped(dom.ID)
	}
	if sw := r.t.VSwitch(); sw != nil {
		c.vs = sw.Stats()
	}
	return c
}

// phase is everything one pass over the rounds measured.
type phase struct {
	st        tally
	from, to  counters
	critical  []uint64 // cumulative critical-path cycles at each round end
	roundNs   []int64  // host time of each round
	roundPkts []uint64 // packets each round completed
	fastest   []lap    // each round's fastest lap
	breakdown map[cycles.Component]uint64
	queueTot  []uint64
	heapMax   uint64
	mallocs   uint64
	bytes     uint64
	learned   int
	crc       uint32
}

// lap is the host time of one lap: a round's unit of identical work (see
// lapFrames), a few hundred frames.
type lap struct {
	ns    int64
	pkts  uint64
	instr uint64
}

func (l lap) nsPerPkt() float64 { return ratio(float64(l.ns), float64(l.pkts)) }
func (l lap) mips() float64     { return ratio(float64(l.instr)*1e3, float64(l.ns)) }

// runRounds executes the pre-generated rounds on a warmed-up rig. Host
// time is taken per lap and per round; everything simulated over the whole
// pass.
// between, when set, runs in each gap between two rounds, outside every
// timed part, on a freshly collected heap; what it leaves behind is
// collected before the next round starts.
func (r *rig) runRounds(plans [][]step, capacity int, between func() error) (*phase, error) {
	ph := &phase{}
	contended := r.st.contended
	for i := range contended {
		contended[i] = 0
	}
	r.st = tally{sojourn: make([]uint64, 0, capacity), contended: contended,
		mttr: make([]uint64, 0, 256), recoverNs: make([]int64, 0, 256)}
	r.crc = 0
	if !r.dry {
		r.p.ResetMeasurement()
	}
	ph.from = r.counters()
	var ms runtime.MemStats
	for round, steps := range plans {
		if between != nil && round > 0 {
			if err := between(); err != nil {
				return nil, err
			}
		}
		// Every round starts on a collected heap. Allocations are counted
		// round by round, so what runs between rounds is not charged to the
		// packets.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		mallocs0, bytes0 := ms.Mallocs, ms.TotalAlloc
		pk0 := r.st.completed
		h0 := time.Now()
		var best lap
		from, fromPk, fromIns := h0, pk0, r.m.CPU.Retired
		for i := range steps {
			r.tr.nextBurst()
			if err := r.exec(&steps[i]); err != nil {
				return nil, err
			}
			if steps[i].lapEnd {
				now := time.Now()
				l := lap{int64(now.Sub(from)), r.st.completed - fromPk, r.m.CPU.Retired - fromIns}
				if best.pkts == 0 || l.nsPerPkt() < best.nsPerPkt() {
					best = l
				}
				from, fromPk, fromIns = now, r.st.completed, r.m.CPU.Retired
			}
		}
		ph.roundNs = append(ph.roundNs, int64(time.Since(h0)))
		runtime.ReadMemStats(&ms)
		ph.mallocs += ms.Mallocs - mallocs0
		ph.bytes += ms.TotalAlloc - bytes0
		ph.roundPkts = append(ph.roundPkts, r.st.completed-pk0)
		ph.fastest = append(ph.fastest, best)
		ph.critical = append(ph.critical, r.critical())
		// The heap is read after a collection: what the machine and the
		// harness retain. Read at an arbitrary point of the collector's cycle
		// it swung ±40 % between runs (measured on open_loop).
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > ph.heapMax {
			ph.heapMax = ms.HeapInuse
		}
		if !r.dry {
			r.sample()
		}
	}
	ph.to = r.counters()
	ph.breakdown = r.mm.Breakdown()
	for _, q := range r.qm {
		ph.queueTot = append(ph.queueTot, q.Total())
		for c, v := range q.Breakdown() {
			ph.breakdown[c] += v
		}
	}
	if sw := r.t.VSwitch(); sw != nil {
		ph.learned = sw.LearnedCount()
	}
	if !r.dry {
		r.settle(ph)
	}
	ph.st, ph.crc = r.st, r.crc
	return ph, nil
}

// settle closes the books of a pass: conservation invariants, loss the
// twin itself accounted as contained, and any frame still unaccounted.
func (r *rig) settle(ph *phase) {
	r.conservation(r.c.name + " phase end")
	for g := range r.tx {
		r.settleTx(g, "phase end")
	}
	r.st.lost += (ph.to.postedLost - ph.from.postedLost) +
		(ph.to.spoofDropped - ph.from.spoofDropped) + (ph.to.rxDropped - ph.from.rxDropped)
	if acc := r.st.completed + r.st.lost + r.st.failed; acc < r.st.offered {
		r.st.failN(r.st.offered-acc, "%d offered frames neither completed nor accounted lost", r.st.offered-acc)
	}
	if r.c.faultFree && r.st.lost > 0 {
		r.st.fail("%d frames lost on a fault-free workload", r.st.lost)
	}
	if r.rx.n > 0 {
		r.st.fail("%d injected frames never delivered", r.rx.n)
		r.rx.clear()
	}
}

// warm is one cold bring-up plus the warm-up round: the unit setup_s times.
// A ladder rig warms up on the ladder too, so its lazily built arenas are
// allocated at the same points netpath allocates its own.
func warm(c *config, seed uint64, ladder bool) (*rig, error) {
	r, err := bringUp(c)
	if err != nil {
		return nil, err
	}
	r.ladder = ladder
	frames := 64
	switch c.name {
	case "small_posted":
		frames = 4 * c.batch
	case "tenants":
		frames = tenantsTurnFrames(c) // a whole turn: see plan
	}
	steps := c.plan(seed, -1, frames)
	r.st.sojourn = make([]uint64, 0, 2*frames)
	for i := range steps {
		if err := r.exec(&steps[i]); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if r.st.failed > 0 {
		return nil, fmt.Errorf("warm-up: %s", r.st.firstFail)
	}
	return r, nil
}

// outcome is one workload's full result.
type outcome struct {
	Workload string         `json:"workload"`
	Counts   map[string]int `json:"counts"`
	EndToEnd metrics        `json:"end_to_end"`
	PerLayer metrics        `json:"per_layer,omitempty"`
	// Spread is the inter-quartile range of a host metric's per-round
	// values over their median: what -compare needs to tell "unchanged"
	// from "unresolved".
	Spread map[string]float64 `json:"spread"`
	// Rounds keeps the per-round host values: each round's fastest lap, its
	// whole wall time, and the set-ups.
	Rounds    map[string][]float64 `json:"rounds"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Correct   bool                 `json:"correct"`
	Failure   string               `json:"failure,omitempty"`
	Digest    string               `json:"wire_digest"`

	trace *tracer
}

// runWorkload is the whole run shape for one workload: cold bring-ups for
// setup_s, the untraced measured phase, then (with tracing on) the traced
// pass over the first rounds on a fresh machine.
func runWorkload(c *config, o *options) (*outcome, error) {
	frames := c.roundFrames(o.seconds)
	if o.frames > 0 {
		frames = o.frames
	}
	plans := make([][]step, o.rounds)
	for i := range plans {
		plans[i] = c.plan(o.seed, i, frames)
	}
	capacity := 2*frames*o.rounds + 4096
	nSetups := coldSetups
	if o.setups > 0 {
		nSetups = o.setups
	}

	// Cold bring-ups, timed. The first machine is the one measured; the
	// others are built and dropped between the measured rounds rather than
	// back to back, so the nine samples span the whole run instead of one
	// quarter-second of it: the neighbours' load changes over seconds, and
	// samples taken together just report that moment.
	var setups []float64
	setup := func() (*rig, error) {
		h0 := time.Now()
		r, err := warm(c, o.seed, false)
		if err != nil {
			return nil, fmt.Errorf("%s: bring-up %d: %w", c.name, len(setups), err)
		}
		setups = append(setups, time.Since(h0).Seconds())
		return r, nil
	}
	r, err := setup()
	if err != nil {
		return nil, err
	}
	between := func() error {
		if len(setups) < nSetups {
			_, err := setup()
			return err
		}
		return nil
	}
	for len(setups) < nSetups-(o.rounds-1) { // more set-ups than gaps between rounds
		if err := between(); err != nil {
			return nil, err
		}
	}

	// The generator alone: what the harness itself allocates per round.
	r.dry = true
	dry, err := r.runRounds(plans, capacity, nil)
	if err != nil {
		return nil, err
	}
	r.dry = false

	ph, err := r.runRounds(plans, capacity, between)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	out := &outcome{Workload: c.name, EndToEnd: metrics{}, Spread: map[string]float64{}, Rounds: map[string][]float64{}, Counts: map[string]int{
		"round_frames": frames, "rounds": o.rounds,
		"completed": int(ph.st.completed), "offered": int(ph.st.offered),
	}}
	out.Attempted, out.Failed, out.Failure = ph.st.offered, ph.st.failed, ph.st.firstFail
	out.Digest = fmt.Sprintf("%08x", ph.crc)
	endToEnd(out, c, ph, dry, setups)
	r = nil

	if o.trace {
		out.PerLayer = metrics{}
		tr, err := warm(c, o.seed, c.ladder)
		if err != nil {
			return nil, fmt.Errorf("%s: traced bring-up: %w", c.name, err)
		}
		tr.tr = newTracer(tr.simWork, 16*frames*o.tracedRounds()+1024)
		n := o.tracedRounds()
		tp, err := tr.runRounds(plans[:n], capacity, nil)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", c.name, err)
		}
		out.Counts["traced_rounds"] = n
		out.Counts["traced_completed"] = int(tp.st.completed)
		out.Attempted += tp.st.offered
		out.Failed += tp.st.failed
		if out.Failure == "" {
			out.Failure = tp.st.firstFail
		}
		equal := tp.critical[n-1] == ph.critical[n-1] && tp.st.completed == sum(ph.roundPkts[:n])
		if !equal {
			out.Failed++
			if out.Failure == "" {
				out.Failure = fmt.Sprintf("traced pass diverged: %d cycles / %d packets, untraced %d / %d",
					tp.critical[n-1], tp.st.completed, ph.critical[n-1], sum(ph.roundPkts[:n]))
			}
		}
		perLayer(out.PerLayer, tr, tp, ph, equal)
		out.trace = tr.tr
	}
	out.Correct = out.Failed == 0
	return out, nil
}

func sum(v []uint64) uint64 {
	var t uint64
	for _, x := range v {
		t += x
	}
	return t
}

// endToEnd derives the fourteen end-to-end numbers from the untraced
// phase. Simulated metrics cover the whole phase; host time is the fastest
// lap's.
func endToEnd(out *outcome, c *config, ph, dry *phase, setups []float64) {
	m := out.EndToEnd
	pk := float64(ph.st.completed)
	m.set("sim_cyc_per_pkt", ratio(float64(ph.critical[len(ph.critical)-1]), pk))
	soj := append([]uint64(nil), ph.st.sojourn...)
	sort.Slice(soj, func(i, j int) bool { return soj[i] < soj[j] })
	m.set("sim_sojourn_p50_cyc", float64(percentile(soj, 0.50)))
	m.set("sim_sojourn_p99_cyc", float64(percentile(soj, 0.99)))
	m.set("sim_sojourn_samples", float64(len(soj)))

	// Host metrics: the fastest lap of the phase (README, "How the host-clock
	// numbers are formed"). Each round's own fastest lap is kept for
	// -compare's spread, and the rounds' whole wall time for the
	// informational median beside it.
	var nsPerPkt, mips, whole []float64
	best := ph.fastest[0]
	for i, l := range ph.fastest {
		nsPerPkt = append(nsPerPkt, l.nsPerPkt())
		mips = append(mips, l.mips())
		whole = append(whole, ratio(float64(ph.roundNs[i]), float64(ph.roundPkts[i])))
		if l.nsPerPkt() < best.nsPerPkt() {
			best = l
		}
	}
	m.set("host_ns_per_pkt", best.nsPerPkt())
	m.set("host_sim_mips", best.mips())
	m.set("host_round_ns_per_pkt", medianFloat(whole))
	out.Spread["host_ns_per_pkt"] = iqrShare(nsPerPkt)
	out.Spread["host_sim_mips"] = iqrShare(mips)
	out.Spread["setup_s"] = iqrShare(setups)
	out.Rounds["host_ns_per_pkt"], out.Rounds["host_sim_mips"] = nsPerPkt, mips
	out.Rounds["host_round_ns_per_pkt"], out.Rounds["setup_s"] = whole, setups
	m.set("host_peak_heap_mb", float64(ph.heapMax)/(1<<20))
	// The fastest of the nine, for the fastest lap's reason: the work is the
	// same every time and interference only adds to it.
	m.set("setup_s", slices.Min(setups))
	m.set("host_allocs_per_pkt", ratio(float64(ph.mallocs)-float64(dry.mallocs), pk))
	m.set("host_bytes_per_pkt", ratio(float64(ph.bytes)-float64(dry.bytes), pk))

	m.set("fail_share", ratio(float64(ph.st.failed), float64(ph.st.offered)))
	m.set("sim_lost_share", ratio(float64(ph.st.lost), float64(ph.st.offered)))
	m.set("sim_share_err_pct", shareErrPct(c, ph.st.contended))
	mttr := append([]uint64(nil), ph.st.mttr...)
	sort.Slice(mttr, func(i, j int) bool { return mttr[i] < mttr[j] })
	m.set("sim_mttr_cyc", float64(percentile(mttr, 0.50)))
	var recMs []float64
	for _, ns := range ph.st.recoverNs {
		recMs = append(recMs, float64(ns)/1e6)
	}
	m.set("host_recover_ms", medianFloat(recMs))
}

// shareErrPct is the scheduler's error under budgeted contention: the
// largest relative gap, over the weight classes, between the share of
// frames a class completed and the share its weights entitle it to.
func shareErrPct(c *config, contended []uint64) float64 {
	w := c.twin.Weights
	if len(w) == 0 || len(contended) == 0 {
		return 0
	}
	got := map[int]float64{}
	want := map[int]float64{}
	var total, totalW float64
	for g, n := range contended {
		wt := w[g%len(w)]
		got[wt] += float64(n)
		want[wt] += float64(wt)
		total += float64(n)
		totalW += float64(wt)
	}
	if total == 0 {
		return 0
	}
	worst := 0.0
	for wt := range want {
		e := 100 * math.Abs(got[wt]/total-want[wt]/totalW) / (want[wt] / totalW)
		if e > worst {
			worst = e
		}
	}
	return worst
}

// perLayer derives the per-layer numbers from the traced pass tp (spans
// and the counters read at the same boundaries); ph is the untraced phase
// it replays the head of.
func perLayer(m metrics, r *rig, tp, ph *phase, equal bool) {
	pk := float64(tp.st.completed)
	per := func(name string, v uint64) { m.set(name, ratio(float64(v), pk)) }
	hostNs, simCyc := r.tr.selfTotals()
	var harness, all int64
	for n := spanName(0); n < numSpans; n++ {
		m.set(spanNames[n]+".host_ns_per_pkt", ratio(float64(hostNs[n]), pk))
		if defByName(spanNames[n]+".sim_cyc_per_pkt") != nil {
			per(spanNames[n]+".sim_cyc_per_pkt", simCyc[n])
		}
		if harnessSpan[n] {
			harness += hostNs[n]
		}
		all += hostNs[n]
	}
	var tracedNs int64
	for _, ns := range tp.roundNs {
		tracedNs += ns
	}
	// Harness time outside any span (ledgers, clock reads, span records) is
	// the traced pass's time that no span covers.
	m.set("bench.harness_share_pct", 100*ratio(float64(harness)+float64(tracedNs-all), float64(tracedNs)))
	// Both passes' fastest lap over the same rounds.
	traced, untraced := tp.fastest[0].nsPerPkt(), ph.fastest[0].nsPerPkt()
	for i, l := range tp.fastest {
		traced = min(traced, l.nsPerPkt())
		untraced = min(untraced, ph.fastest[i].nsPerPkt())
	}
	m.set("bench.trace_overhead_pct", 100*ratio(traced-untraced, untraced))
	eq := 0.0
	if equal {
		eq = 1
	}
	m.set("bench.traced_equals_untraced", eq)

	d, f := tp.to, tp.from
	per("cpu.instr_per_pkt", d.retired-f.retired)
	per("cycles.dom0_cyc_per_pkt", tp.breakdown[cycles.CompDom0])
	per("cycles.domU_cyc_per_pkt", tp.breakdown[cycles.CompDomU])
	per("cycles.xen_cyc_per_pkt", tp.breakdown[cycles.CompXen])
	per("cycles.driver_cyc_per_pkt", tp.breakdown[cycles.CompDriver])
	per("cycles.tlb_miss_per_pkt", d.tlb-f.tlb)
	per("cycles.l1d_miss_per_pkt", d.l1d-f.l1d)
	per("cycles.l1i_miss_per_pkt", d.l1i-f.l1i)
	per("cycles.mem_access_per_pkt", d.memAcc-f.memAcc)
	per("cycles.hw_flush_per_pkt", d.flushes-f.flushes)
	per("xen.hypercalls_per_pkt", d.hypercalls-f.hypercalls)
	per("xen.switches_per_pkt", d.switches-f.switches)
	per("xen.events_per_pkt", d.events-f.events)
	per("upcall.upcalls_per_pkt", d.upcalls-f.upcalls)
	hits, misses := d.gtlbHits-f.gtlbHits, d.gtlbMisses-f.gtlbMisses
	m.set("svm.gtlb_hit_rate", ratio(float64(hits), float64(hits+misses)))
	m.set("svm.gtlb_violations", float64(d.gtlbViolations-f.gtlbViolations))
	m.set("core.pool_outstanding_max", float64(tp.st.poolOutMax))
	m.set("core.pinned_tx_pages_max", float64(tp.st.pinnedMax))
	m.set("core.staged_depth_max", float64(tp.st.stagedMax))
	m.set("core.rx_pending_max", float64(tp.st.rxPendingMax))
	m.set("core.posted_tx_lost", float64(d.postedLost-f.postedLost))
	imbalance := 1.0
	if len(tp.queueTot) > 0 {
		var slowest, total uint64
		for _, v := range tp.queueTot {
			total += v
			if v > slowest {
				slowest = v
			}
		}
		imbalance = ratio(float64(slowest)*float64(len(tp.queueTot)), float64(total))
	}
	m.set("core.queue_imbalance", imbalance)
	minPkts := uint64(0)
	for g, n := range tp.st.contended {
		if g == 0 || n < minPkts {
			minPkts = n
		}
	}
	m.set("core.sched.min_guest_pkts", float64(minPkts))
	vs, vf := d.vs, f.vs
	classified := float64((vs.LocalUnicast - vf.LocalUnicast) + (vs.Broadcast - vf.Broadcast) +
		(vs.External - vf.External) + (vs.Reflected - vf.Reflected) + (vs.SpoofRejected - vf.SpoofRejected))
	m.set("vswitch.local_share", ratio(float64(vs.LocalUnicast-vf.LocalUnicast), classified))
	m.set("vswitch.flood_share", ratio(float64(vs.Broadcast-vf.Broadcast), classified))
	m.set("vswitch.spoof_dropped", float64(d.spoofDropped-f.spoofDropped))
	m.set("vswitch.rx_dropped", float64(d.rxDropped-f.rxDropped))
	m.set("vswitch.learned", float64(tp.learned))
	faults := float64(tp.st.faults)
	m.set("recovery.faults", faults)
	m.set("recovery.lost_rx_per_fault", ratio(float64(tp.st.lostRx), faults))
	m.set("recovery.retried_tx_per_fault", ratio(float64(tp.st.retriedTx), faults))
	m.set("recovery.skbs_reclaimed_per_fault", ratio(float64(tp.st.skbsReclaimed), faults))
	m.set("bench.open_loop.backlog_max", float64(tp.st.backlogMax))
	busy, idle := float64(d.busy-f.busy), float64(d.idle-f.idle)
	util := 0.0
	if idle > 0 {
		util = busy / (busy + idle)
	}
	m.set("bench.open_loop.utilisation", util)
}
