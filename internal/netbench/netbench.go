// Package netbench is the netperf-like streaming microbenchmark of §6.2
// and every measurement built on it: it saturates a configuration with
// MTU-sized packets, measures per-packet cycles with the
// dom0/domU/Xen/e1000 attribution of Figures 7 and 8, and converts them
// to the achievable aggregate throughput and CPU utilisation of Figures 5
// and 6.
//
// There is one measurement. open brings a configuration up and warms it;
// measure resets the meters, moves the measured packets and turns the
// meters into a Result. The runners — Run, RunMultiGuest, RunSched,
// RunVswitch, RunRecovery, RunTable1 — differ only in the drive step they
// hand it: which netpath entry point moves the packets.
package netbench

import (
	"fmt"

	"twindrivers/internal/core"
	"twindrivers/internal/cost"
	"twindrivers/internal/cycles"
	"twindrivers/internal/drivermodel"
	"twindrivers/internal/mem"
	"twindrivers/internal/netpath"
	"twindrivers/internal/recovery"
	"twindrivers/internal/telemetry"

	// Link every NIC backend so Params.Backend resolves by name.
	_ "twindrivers/internal/mqnic"
	_ "twindrivers/internal/rtl8139"
)

// Direction selects the measured stream: transmit, receive, or a local
// guest→guest stream (RunVswitch).
type Direction int

// Directions.
const (
	TX Direction = iota
	RX
	Local
)

func (d Direction) String() string {
	return [...]string{"transmit", "receive", "local"}[d]
}

// Params configures a run. Every option is declared once: the data-path
// options are netpath's own struct and everything the twin is built with
// is core.TwinConfig (Queues, Weights, Rates, Switch, Trace, HvSupport …).
type Params struct {
	NumNICs    int // 5 for Figures 5/6, 1 for the Figure 7/8 profiles (default 1)
	PacketSize int // cost.MTU unless overridden
	Warmup     int // packets before measurement (default 64)
	Measure    int // measured packets (default 512); per guest on the fan-out runners

	// Backend selects the NIC driver model by registry name (default
	// "e1000"). Every registered backend runs the same harness.
	Backend string

	// Recovery attaches a recovery supervisor to the domU-twin path
	// (default policy), making driver faults transient. The supervisor
	// only runs when an invocation has already died, so a fault-free
	// measurement with Recovery on is cycle-identical to one with it off
	// (pinned by test and benchmark).
	Recovery bool

	// FlushPerPacket flushes the hardware model before every burst,
	// modelling workloads that interleave many connections (each packet
	// finds the caches trashed by other connections' work) — used by the
	// web benchmark.
	FlushPerPacket bool

	// Options are the data-path options the path runs with; BatchSize
	// (frames per boundary crossing, Twin path) defaults to 1.
	netpath.Options

	Twin core.TwinConfig
}

func (p *Params) defaults() {
	def(&p.NumNICs, 1)
	def(&p.PacketSize, cost.MTU)
	def(&p.Warmup, 64)
	def(&p.Measure, 512)
	def(&p.BatchSize, 1)
	def(&p.Backend, "e1000")
}

// def gives an unset (zero) parameter its default.
func def[T comparable](v *T, d T) {
	var unset T
	if *v == unset {
		*v = d
	}
}

// Result is one measurement. It carries the parameters it ran (defaults
// applied), which is what BenchKey and the report tables read.
type Result struct {
	Params

	Config    string // the configuration, named as in the figures
	Direction Direction

	// Guests is the number of guest domains sharing the NIC on the
	// fan-out runners; 0 marks Run's single-guest stream.
	Guests  int
	Packets int // packets the measured phase moved, all guests together

	// Queues is the effective service-queue count (1 = the classic
	// single-queue configuration).
	Queues int

	// CyclesPerPacket is the measured critical path, Breakdown the
	// attribution of all the work done.
	CyclesPerPacket float64
	Breakdown       map[cycles.Component]float64

	// ThroughputMbps is the achievable aggregate throughput given the
	// cycle cost, capped by the NICs' line rate; CPUUtil is the fraction
	// of the CPU needed to sustain it.
	ThroughputMbps float64
	CPUUtil        float64

	// SwitchesPerPacket, UpcallsPerPacket and HypercallsPerPacket expose
	// the transition rates behind the numbers.
	SwitchesPerPacket   float64
	UpcallsPerPacket    float64
	HypercallsPerPacket float64

	// PerGuest is each guest's share of the run. MaxShareErrPct is the
	// largest relative deviation of any guest's Share from its Want, in
	// percent; 0 under rate caps, where a capped guest's share is bounded
	// by its rate, not its weight.
	PerGuest       []GuestStat
	MaxShareErrPct float64
}

// GuestStat is one guest's share of a measurement. CyclesPerPacket divides
// an even share of all the work by the packets the guest itself moved (the
// round-robin ring service keeps consumption fair); Share is its measured
// fraction of all packets and Want its DRR weight's fraction of the total
// weight.
type GuestStat struct {
	Guest           int // guest index (0-based)
	Weight          int // effective DRR weight
	Packets         uint64
	CyclesPerPacket float64
	Share, Want     float64
}

// drive is the step the runners differ in: move n packets (per guest)
// over the path and return each guest's count.
type drive func(p *netpath.Path, prm *Params, n int) (map[mem.Owner]int, error)

// bench is one configuration brought up, warm and ready to measure.
type bench struct {
	p      *netpath.Path
	prm    Params
	dir    Direction
	guests int
	drive  drive
}

// open is the one bring-up: resolve the backend, build the path, apply the
// data-path options, attach the supervisor when asked (its MTTR gauges
// publish under an active telemetry session), and warm the path up.
func open(kind netpath.Kind, dir Direction, guests int, prm Params, d drive) (*bench, error) {
	prm.defaults()
	model, ok := drivermodel.Get(prm.Backend)
	if !ok {
		return nil, fmt.Errorf("netbench: unknown backend %q (have %v)", prm.Backend, drivermodel.Names())
	}
	p, err := netpath.NewMultiModel(kind, prm.NumNICs, guests, model, prm.Twin)
	if err != nil {
		return nil, err
	}
	p.Options = prm.Options
	if prm.Recovery && p.T != nil {
		p.Recovery = recovery.New(p.M, p.T, recovery.Policy{})
		if s := telemetry.ActiveSession(); s != nil {
			p.Recovery.PublishMetrics(s.Registry)
		}
	}
	b := &bench{p: p, prm: prm, dir: dir, guests: guests, drive: d}
	if _, err := d(p, &b.prm, prm.Warmup); err != nil {
		return nil, fmt.Errorf("netbench: warmup: %w", err)
	}
	return b, nil
}

// measure is the one measurement epoch and the one place a meter becomes a
// Result: reset the meters (warm state stays), move the measured packets,
// then divide. The critical path prices a packet; the breakdown and the
// per-guest shares attribute all the work done.
func (b *bench) measure() (*Result, error) {
	p := b.p
	p.ResetMeasurement()
	upcalls0 := uint64(0)
	if p.T != nil {
		upcalls0 = p.T.UpcallsPerformed()
	}
	moved, err := b.drive(p, &b.prm, b.prm.Measure)
	if err != nil {
		return nil, fmt.Errorf("netbench: measure: %w", err)
	}
	total := 0
	for _, c := range moved {
		total += c
	}
	if total == 0 {
		return nil, fmt.Errorf("netbench: the measured phase moved no packets")
	}

	critical, breakdown, queues := criticalPath(p)
	n := float64(total)
	res := &Result{
		Params:              b.prm,
		Config:              p.Kind.String(),
		Direction:           b.dir,
		Guests:              b.guests,
		Packets:             total,
		Queues:              queues,
		CyclesPerPacket:     float64(critical) / n,
		Breakdown:           make(map[cycles.Component]float64),
		SwitchesPerPacket:   float64(p.M.HV.Switches) / n,
		HypercallsPerPacket: float64(p.M.HV.Hypercalls) / n,
	}
	var work uint64
	for comp, c := range breakdown {
		res.Breakdown[comp] = float64(c) / n
		work += c
	}
	res.ThroughputMbps, res.CPUUtil = throughput(res.CyclesPerPacket, b.prm.NumNICs, b.prm.PacketSize)

	weight := func(mem.Owner) int { return 1 }
	if p.T != nil {
		res.UpcallsPerPacket = float64(p.T.UpcallsPerformed()-upcalls0) / n
		weight = p.T.GuestWeight
	}
	totalW := 0
	for _, dom := range p.M.Guests {
		totalW += weight(dom.ID)
	}
	share := float64(work) / float64(len(p.M.Guests))
	for g, dom := range p.M.Guests {
		w, pkts := weight(dom.ID), moved[dom.ID]
		st := GuestStat{
			Guest: g, Weight: w, Packets: uint64(pkts),
			Share: float64(pkts) / n, Want: float64(w) / float64(totalW),
		}
		if st.Packets > 0 {
			st.CyclesPerPacket = share / float64(st.Packets)
		}
		if len(b.prm.Twin.Rates) == 0 && st.Want > 0 {
			res.MaxShareErrPct = max(res.MaxShareErrPct, 100*max(st.Share-st.Want, st.Want-st.Share)/st.Want)
		}
		res.PerGuest = append(res.PerGuest, st)
	}
	if s := telemetry.ActiveSession(); s != nil {
		s.Folded.AddBreakdown(res.BenchKey(), breakdown)
	}
	return res, nil
}

// criticalPath returns a path's measured critical-path cycle total, its
// machine-wide breakdown and the effective queue count. With one service
// queue both views are exactly the machine meter's. With N queues the
// per-queue service work is metered per queue: the breakdown merges every
// queue (total work done), while the critical path charges the non-queue
// work plus the SLOWEST queue — each queue's meter is its own simulated
// core, so the queues' sweeps overlap on the simulated clock.
func criticalPath(p *netpath.Path) (critical uint64, breakdown map[cycles.Component]uint64, queues int) {
	m := p.Meter()
	critical, breakdown, queues = m.Total(), m.Breakdown(), 1
	if p.T == nil || p.T.QueueCount() <= 1 {
		return
	}
	var slowest uint64
	for _, qm := range p.T.QueueMeters() {
		slowest = max(slowest, qm.Total())
		for c, v := range qm.Breakdown() {
			breakdown[c] += v
		}
	}
	return critical + slowest, breakdown, p.T.QueueCount()
}

// run opens a configuration and takes its one measurement.
func run(kind netpath.Kind, dir Direction, guests int, prm Params, d drive) (*Result, error) {
	b, err := open(kind, dir, guests, prm, d)
	if err != nil {
		return nil, err
	}
	return b.measure()
}

// bursts is the drive of the burst runners: n packets in BatchSize-frame
// steps (with BatchSize 1 exactly the per-packet loop), the hardware model
// flushed before each step under FlushPerPacket, and every guest the step
// names required to have moved the whole step. step is handed the packet
// offset, which SendBurst/ReceiveBurst rotate the NICs by.
func bursts(step func(p *netpath.Path, i, size, n int) (map[mem.Owner]int, error)) drive {
	return func(p *netpath.Path, prm *Params, total int) (map[mem.Owner]int, error) {
		moved := make(map[mem.Owner]int)
		for i := 0; i < total; i += prm.BatchSize {
			want := min(prm.BatchSize, total-i)
			if prm.FlushPerPacket {
				p.Meter().FlushHW()
			}
			got, err := step(p, i, prm.PacketSize, want)
			if err != nil {
				return nil, fmt.Errorf("packet %d: %w", i, err)
			}
			for id, c := range got {
				if c != want {
					return nil, fmt.Errorf("packet %d: guest %d moved %d of %d", i, id, c, want)
				}
				moved[id] += c
			}
		}
		return moved, nil
	}
}

// stream and fanout are the two burst steps: one guest through
// SendBurst/ReceiveBurst, every guest through their Multi forms.
func stream(dir Direction) drive {
	return bursts(func(p *netpath.Path, i, size, n int) (map[mem.Owner]int, error) {
		burst := p.SendBurst
		if dir == RX {
			burst = p.ReceiveBurst
		}
		done, err := burst(i, size, n)
		return map[mem.Owner]int{p.M.DomU.ID: done}, err
	})
}

func fanout(dir Direction) drive {
	return bursts(func(p *netpath.Path, _, size, n int) (map[mem.Owner]int, error) {
		if dir == RX {
			return p.ReceiveBurstMulti(0, size, n)
		}
		return p.SendBurstMulti(0, size, n)
	})
}

// Run measures one configuration in one direction: a single guest's
// stream, Measure packets in BatchSize-frame bursts.
func Run(kind netpath.Kind, dir Direction, prm Params) (*Result, error) {
	return run(kind, dir, 0, prm, stream(dir))
}

// RunMultiGuest measures the domU-twin path with guests guest domains
// sharing the NIC: each guest stages BatchSize-frame bursts in its own
// transmit ring (or receives BatchSize-frame deliveries), and one boundary
// crossing per round services every guest round-robin. Measure counts
// packets per guest; the aggregate figures cover all guests and PerGuest
// carries each guest's packets and effective cycles/packet.
func RunMultiGuest(dir Direction, guests int, prm Params) (*Result, error) {
	return run(netpath.Twin, dir, max(guests, 1), prm, fanout(dir))
}

// RunSched measures the contended transmit workload the DRR scheduler
// exists for: every guest's ring is kept topped up and each boundary
// crossing consumes at most BatchSize descriptors per guest on average
// (the crossing budget is BatchSize×guests), so demand always exceeds
// service and the per-guest completion counts ARE the scheduler's share
// decisions. Twin.Weights and Twin.Rates configure the scheduler; with
// both nil every guest weighs 1 (plain round-robin), the baseline row.
func RunSched(guests int, prm Params) (*Result, error) {
	return run(netpath.Twin, TX, max(guests, 1), prm,
		func(p *netpath.Path, prm *Params, n int) (map[mem.Owner]int, error) {
			return p.SendContended(0, prm.PacketSize, max(n/prm.BatchSize, 1), prm.BatchSize*len(p.M.Guests))
		})
}

// RunVswitch measures a two-guest domU-twin configuration moving Measure
// frames from guest 0 to guest 1: with Twin.Switch on, through the
// inter-guest L2 switch (dom0-side classify + copy, device untouched);
// with it off, hairpinned through the device (transmit to the wire,
// re-inject, interrupt, receive demux).
func RunVswitch(prm Params) (*Result, error) {
	return run(netpath.Twin, Local, 2, prm,
		func(p *netpath.Path, prm *Params, n int) (map[mem.Owner]int, error) {
			done, err := p.SendLocal(0, prm.PacketSize, n, 0, 1) // all n, or an error
			return map[mem.Owner]int{p.M.Guests[1].ID: done}, err
		})
}

// RunRecovery runs one recovery scenario: bring up a twin serving guests
// guests under a supervisor, measure the fault-free cycles/packet, inject
// one fault type, let the traffic trip it and recover transparently, then
// measure again. perGuest is the packets-per-guest of each traffic phase,
// moved in one burst on the path the injected fault sits on: transmit for
// the wild write (it trips on the next xmit invocation), receive for the
// RX-cleaner corruptions (they trip on the next interrupt).
func RunRecovery(inj recovery.Injector, guests, perGuest int) (*recovery.Measurement, error) {
	dir := TX
	if inj.TriggerOnRx {
		dir = RX
	}
	b, err := open(netpath.Twin, dir, guests, Params{
		Warmup: perGuest, Measure: perGuest, Recovery: true,
		Options: netpath.Options{BatchSize: perGuest},
		Twin:    core.TwinConfig{Watchdog: 200_000},
	}, fanout(dir))
	if err != nil {
		return nil, err
	}
	p := b.p
	pre, err := b.measure()
	if err != nil {
		return nil, fmt.Errorf("pre-fault: %w", err)
	}

	// Inject, then keep the traffic flowing: the supervisor recovers the
	// twin in-line and the burst completes.
	if err := inj.Inject(p.M, p.T, p.M.Devs[0]); err != nil {
		return nil, err
	}
	lost0, retried0 := p.LostRx, p.RetriedTx
	moved, err := b.drive(p, &b.prm, perGuest)
	if err != nil {
		return nil, fmt.Errorf("faulted burst did not resume: %w", err)
	}
	if p.Recovery.Recoveries() != 1 {
		return nil, fmt.Errorf("expected exactly one recovery, saw %d", p.Recovery.Recoveries())
	}
	post, err := b.measure()
	if err != nil {
		return nil, fmt.Errorf("post-fault: %w", err)
	}

	m := &recovery.Measurement{
		Fault:      inj.Name,
		Guests:     guests,
		MTTRCycles: p.Recovery.Events[0].MTTRCycles,
		LostRx:     p.LostRx - lost0,
		RetriedTx:  p.RetriedTx - retried0,
		PreCPP:     pre.CyclesPerPacket,
		PostCPP:    post.CyclesPerPacket,
	}
	for _, c := range moved {
		m.Delivered += uint64(c)
	}
	// Fault attribution for the report: what actually faulted, rendered.
	for _, rec := range p.T.FaultLog() {
		m.FaultLog = append(m.FaultLog, rec.String())
	}
	return m, nil
}

// throughput converts a per-packet cycle cost into achievable throughput
// (Mb/s) and the CPU utilisation at that throughput: the CPU can push
// CPUHz/cpp packets per second; the wire can carry lineRate·n.
func throughput(cpp float64, nNICs, pktSize int) (mbps, util float64) {
	if cpp <= 0 {
		return 0, 0
	}
	bitsPerPkt := float64(pktSize) * 8
	cpuPktsPerSec := float64(cost.CPUHz) / cpp
	linePktsPerSec := cost.NICLineRateMbps * float64(nNICs) * 1e6 / bitsPerPkt
	if cpuPktsPerSec <= linePktsPerSec {
		return cpuPktsPerSec * bitsPerPkt / 1e6, 1.0
	}
	return cost.NICLineRateMbps * float64(nNICs), linePktsPerSec * cpp / float64(cost.CPUHz)
}
