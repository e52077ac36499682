// Package netbench is the netperf-like streaming microbenchmark of §6.2:
// it saturates a configuration with MTU-sized packets in one direction,
// measures per-packet cycles with the dom0/domU/Xen/e1000 attribution of
// Figures 7 and 8, and converts them to the achievable aggregate
// throughput and CPU utilisation of Figures 5 and 6.
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

// Direction selects transmit or receive.
type Direction int

// Directions.
const (
	TX Direction = iota
	RX
)

func (d Direction) String() string {
	if d == TX {
		return "transmit"
	}
	return "receive"
}

// Result is one measurement.
type Result struct {
	Config    string
	Direction Direction
	NumNICs   int
	Packets   int

	// Backend names the NIC driver model the measurement ran over.
	Backend string

	// Batch is the number of frames crossing the virtualization boundary
	// per transition on the domU-twin path (1 = the per-packet path).
	Batch int

	// PostedRX reports whether the receive measurement ran the
	// posted-buffer path (guest-posted buffers, single direct copy) or the
	// legacy copy path.
	PostedRX bool

	// PostedTX reports whether the transmit measurement ran the posted
	// scatter/gather descriptor path (zero-copy through the guest TLB) or
	// the staging-copy path.
	PostedTX bool

	// Queues is the effective service-queue count of the measurement
	// (1 = the classic single-queue configuration).
	Queues int

	// CyclesPerPacket is the measured total, Breakdown its attribution.
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
}

// Params configures a run.
type Params struct {
	NumNICs    int // 5 for Figures 5/6, 1 for the Figure 7/8 profiles
	PacketSize int // cost.MTU unless overridden
	Warmup     int // packets before measurement (default 64)
	Measure    int // measured packets (default 512)
	Batch      int // frames per boundary crossing, Twin path (default 1)
	Twin       core.TwinConfig

	// PostedRX runs receive measurements over the posted-buffer path:
	// guests post their own receive buffers ahead of delivery and the
	// hypervisor copies each frame once, directly into the posted page.
	// False (the default) measures the paper's copy path.
	PostedRX bool

	// PostedTX runs transmit measurements over the posted-descriptor
	// path: guests leave frames in their own memory and post (addr,len)
	// scatter/gather descriptors; the hypervisor pins and hands the guest
	// pages to the device directly. False (the default) measures the
	// staging-copy path.
	PostedTX bool

	// Backend selects the NIC driver model by registry name (default
	// "e1000"). Every registered backend runs the same measurement
	// harness — the backend sweep compares them.
	Backend string

	// Weights sets per-guest deficit-round-robin weights on the twin
	// path (applied cyclically over the guest list, see
	// core.TwinConfig.Weights) and Rates per-crossing descriptor caps.
	// Consumed by RunSched — nil is the unit-weight, uncapped
	// round-robin that every other measurement runs.
	Weights []int
	Rates   []int

	// Queues asks for that many per-queue service loops on the twin path
	// (0 = the model's native queue count; clamped by core to what the
	// device exposes). Single-queue backends always run one queue.
	Queues int

	// Recovery attaches a recovery supervisor to the domU-twin path
	// (default policy), making driver faults transient. The fault-free
	// hot path is provably unchanged: the supervisor only runs when an
	// invocation has already died, so a measurement with Recovery on is
	// cycle-identical to one with it off (pinned by test and benchmark).
	Recovery bool

	// FlushPerPacket flushes the hardware model before every packet,
	// modelling workloads that interleave many connections (each packet
	// finds the caches trashed by other connections' work) — used by the
	// web benchmark.
	FlushPerPacket bool

	// Trace attaches a telemetry tracer to the twin (see
	// core.TwinConfig.Trace). Tracing never touches the simulated cycle
	// meters, so a traced measurement reports the same cyc/pkt.
	Trace *telemetry.Tracer
}

func (p *Params) defaults() {
	if p.NumNICs == 0 {
		p.NumNICs = 1
	}
	if p.PacketSize == 0 {
		p.PacketSize = cost.MTU
	}
	if p.Warmup == 0 {
		p.Warmup = 64
	}
	if p.Measure == 0 {
		p.Measure = 512
	}
	if p.Batch == 0 {
		p.Batch = 1
	}
	if p.Backend == "" {
		p.Backend = "e1000"
	}
}

// model resolves the backend named by the params.
func (p *Params) model() (*drivermodel.Model, error) {
	m, ok := drivermodel.Get(p.Backend)
	if !ok {
		return nil, fmt.Errorf("netbench: unknown backend %q (have %v)", p.Backend, drivermodel.Names())
	}
	return m, nil
}

// criticalPath returns a path's measured critical-path cycle total, its
// machine-wide breakdown and the effective queue count. With one service
// queue both views are exactly the machine meter's. With N queues the
// per-queue service work is metered per queue: the breakdown merges every
// queue (total work done), while the critical path charges the non-queue
// work plus the SLOWEST queue — the wall-clock of goroutine-per-queue
// service loops running in parallel.
func criticalPath(p *netpath.Path) (critical uint64, breakdown map[cycles.Component]uint64, queues int) {
	m := p.Meter()
	critical = m.Total()
	breakdown = m.Breakdown()
	queues = 1
	if p.T == nil || p.T.QueueCount() <= 1 {
		return
	}
	queues = p.T.QueueCount()
	var slowest uint64
	for _, qm := range p.T.QueueMeters() {
		if t := qm.Total(); t > slowest {
			slowest = t
		}
		for c, v := range qm.Breakdown() {
			breakdown[c] += v
		}
	}
	critical += slowest
	return
}

// Run measures one configuration in one direction.
func Run(kind netpath.Kind, dir Direction, prm Params) (*Result, error) {
	prm.defaults()
	if prm.Queues != 0 {
		prm.Twin.Queues = prm.Queues
	}
	if prm.Trace != nil {
		prm.Twin.Trace = prm.Trace
	}
	model, err := prm.model()
	if err != nil {
		return nil, err
	}
	p, err := netpath.NewMultiModel(kind, prm.NumNICs, 1, model, prm.Twin)
	if err != nil {
		return nil, err
	}
	attachRecovery(p, prm)
	return Measure(p, dir, prm)
}

// attachRecovery wires a supervisor onto a twin path when asked; under
// an active telemetry session the supervisor's MTTR gauges publish too.
func attachRecovery(p *netpath.Path, prm Params) {
	if prm.Recovery && p.T != nil {
		p.Recovery = recovery.New(p.M, p.T, recovery.Policy{})
		if s := telemetry.ActiveSession(); s != nil {
			p.Recovery.PublishMetrics(s.Registry)
		}
	}
}

// Measure runs the benchmark over an existing path (callers can pre-warm
// or reuse machines).
func Measure(p *netpath.Path, dir Direction, prm Params) (*Result, error) {
	prm.defaults()
	p.BatchSize = prm.Batch
	p.PostedRX = prm.PostedRX
	p.PostedTX = prm.PostedTX
	// step moves up to prm.Batch packets; with Batch 1 it is exactly the
	// per-packet loop (FlushPerPacket then flushes before every packet,
	// with larger batches before every burst).
	step := func(i, want int) error {
		if prm.FlushPerPacket {
			p.Meter().FlushHW()
		}
		var done int
		var err error
		if dir == TX {
			done, err = p.SendBurst(i, prm.PacketSize, want)
		} else {
			done, err = p.ReceiveBurst(i, prm.PacketSize, want)
		}
		if err == nil && done != want {
			err = fmt.Errorf("short burst: %d of %d", done, want)
		}
		return err
	}
	run := func(total int, phase string) error {
		for i := 0; i < total; i += prm.Batch {
			want := prm.Batch
			if total-i < want {
				want = total - i
			}
			if err := step(i, want); err != nil {
				return fmt.Errorf("netbench: %s packet %d: %w", phase, i, err)
			}
		}
		return nil
	}
	if err := run(prm.Warmup, "warmup"); err != nil {
		return nil, err
	}
	p.ResetMeasurement()
	upcalls0 := uint64(0)
	if p.T != nil {
		upcalls0 = p.T.UpcallsPerformed()
	}
	if err := run(prm.Measure, "measure"); err != nil {
		return nil, err
	}

	critical, breakdown, queues := criticalPath(p)
	n := float64(prm.Measure)
	res := &Result{
		Config:          p.Kind.String(),
		Direction:       dir,
		NumNICs:         prm.NumNICs,
		Packets:         prm.Measure,
		Backend:         p.M.Model.Name,
		Batch:           prm.Batch,
		PostedRX:        prm.PostedRX,
		PostedTX:        prm.PostedTX,
		Queues:          queues,
		CyclesPerPacket: float64(critical) / n,
		Breakdown:       make(map[cycles.Component]float64),
	}
	for comp, c := range breakdown {
		res.Breakdown[comp] = float64(c) / n
	}
	res.SwitchesPerPacket = float64(p.M.HV.Switches) / n
	res.HypercallsPerPacket = float64(p.M.HV.Hypercalls) / n
	if p.T != nil {
		res.UpcallsPerPacket = float64(p.T.UpcallsPerformed()-upcalls0) / n
	}
	res.ThroughputMbps, res.CPUUtil = Throughput(res.CyclesPerPacket, prm.NumNICs, prm.PacketSize)
	if s := telemetry.ActiveSession(); s != nil {
		s.Folded.AddBreakdown(res.BenchKey(), breakdown)
	}
	return res, nil
}

// GuestStat is one guest's share of a multi-guest measurement. Its
// CyclesPerPacket divides an even share of the CPU (the round-robin ring
// service keeps consumption fair) by the packets the guest itself moved.
type GuestStat struct {
	Guest           int // guest index (0-based)
	Packets         uint64
	CyclesPerPacket float64
}

// MultiGuestResult is a Result plus the per-guest view of a fan-out run.
type MultiGuestResult struct {
	*Result
	Guests   int
	PerGuest []GuestStat
}

// RunMultiGuest measures the domU-twin path with guests guest domains
// sharing the NIC: each guest stages Batch-frame bursts in its own
// transmit ring (or receives Batch-frame deliveries), and one boundary
// crossing per round services every guest round-robin. Measure counts
// packets per guest; the Result's aggregate figures cover all guests and
// PerGuest carries each guest's packets and effective cycles/packet.
func RunMultiGuest(dir Direction, guests int, prm Params) (*MultiGuestResult, error) {
	prm.defaults()
	if prm.Queues != 0 {
		prm.Twin.Queues = prm.Queues
	}
	if prm.Trace != nil {
		prm.Twin.Trace = prm.Trace
	}
	if guests < 1 {
		guests = 1
	}
	model, err := prm.model()
	if err != nil {
		return nil, err
	}
	p, err := netpath.NewMultiModel(netpath.Twin, prm.NumNICs, guests, model, prm.Twin)
	if err != nil {
		return nil, err
	}
	p.PostedRX = prm.PostedRX
	p.PostedTX = prm.PostedTX
	attachRecovery(p, prm)
	perGuest := make(map[mem.Owner]uint64)
	run := func(total int, phase string, record bool) error {
		for moved := 0; moved < total; {
			burst := prm.Batch
			if total-moved < burst {
				burst = total - moved
			}
			if prm.FlushPerPacket {
				p.Meter().FlushHW()
			}
			var got map[mem.Owner]int
			var err error
			if dir == TX {
				got, err = p.SendBurstMulti(0, prm.PacketSize, burst)
			} else {
				got, err = p.ReceiveBurstMulti(0, prm.PacketSize, burst)
			}
			if err != nil {
				return fmt.Errorf("netbench: multiguest %s packet %d: %w", phase, moved, err)
			}
			for id, n := range got {
				if n != burst {
					return fmt.Errorf("netbench: multiguest %s: guest %d moved %d of %d", phase, id, n, burst)
				}
				if record {
					perGuest[id] += uint64(n)
				}
			}
			moved += burst
		}
		return nil
	}
	if err := run(prm.Warmup, "warmup", false); err != nil {
		return nil, err
	}
	p.ResetMeasurement()
	upcalls0 := p.T.UpcallsPerformed()
	if err := run(prm.Measure, "measure", true); err != nil {
		return nil, err
	}

	critical, breakdown, queues := criticalPath(p)
	totalPkts := uint64(0)
	for _, n := range perGuest {
		totalPkts += n
	}
	n := float64(totalPkts)
	res := &MultiGuestResult{
		Result: &Result{
			Config:          p.Kind.String(),
			Direction:       dir,
			NumNICs:         prm.NumNICs,
			Packets:         int(totalPkts),
			Backend:         p.M.Model.Name,
			Batch:           prm.Batch,
			PostedRX:        prm.PostedRX,
			PostedTX:        prm.PostedTX,
			Queues:          queues,
			CyclesPerPacket: float64(critical) / n,
			Breakdown:       make(map[cycles.Component]float64),
		},
		Guests: guests,
	}
	for comp, c := range breakdown {
		res.Breakdown[comp] = float64(c) / n
	}
	res.SwitchesPerPacket = float64(p.M.HV.Switches) / n
	res.HypercallsPerPacket = float64(p.M.HV.Hypercalls) / n
	res.UpcallsPerPacket = float64(p.T.UpcallsPerformed()-upcalls0) / n
	res.ThroughputMbps, res.CPUUtil = Throughput(res.CyclesPerPacket, prm.NumNICs, prm.PacketSize)
	var totalWork uint64
	for _, c := range breakdown {
		totalWork += c
	}
	share := float64(totalWork) / float64(guests)
	for g, dom := range p.M.Guests {
		pkts := perGuest[dom.ID]
		st := GuestStat{Guest: g, Packets: pkts}
		if pkts > 0 {
			st.CyclesPerPacket = share / float64(pkts)
		}
		res.PerGuest = append(res.PerGuest, st)
	}
	if s := telemetry.ActiveSession(); s != nil {
		s.Folded.AddBreakdown(res.BenchKey(), breakdown)
	}
	return res, nil
}

// Throughput converts a per-packet cycle cost into achievable throughput
// (Mb/s) and the CPU utilisation at that throughput: the CPU can push
// CPUHz/cpp packets per second; the wire can carry lineRate·n.
func Throughput(cpp float64, nNICs, pktSize int) (mbps, util float64) {
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
