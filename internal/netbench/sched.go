package netbench

import (
	"fmt"
	"strings"

	"twindrivers/internal/cycles"
	"twindrivers/internal/mem"
	"twindrivers/internal/netpath"
	"twindrivers/internal/telemetry"
)

// The weighted-fair scheduling and inter-guest switching measurements.
//
// RunSched measures the contended transmit workload the DRR scheduler
// exists for: every guest permanently backlogged, service budgeted per
// crossing, so the per-guest completion counts ARE the scheduler's
// share decisions. RunVswitch measures a guest→guest stream twice —
// through the inter-guest L2 switch and through the device hairpin —
// and reports both costs.

// SchedGuestStat is one guest's share of a contended weighted run.
type SchedGuestStat struct {
	Guest   int // guest index (0-based)
	Weight  int // effective DRR weight
	Packets uint64
	Share   float64 // measured fraction of all packets moved
	Want    float64 // weight's fraction of the total weight
}

// SchedResult is a Result plus the share view of a contended run.
type SchedResult struct {
	*Result
	Guests int

	// MaxShareErrPct is the largest relative deviation of any guest's
	// measured share from its weight share, in percent. Only meaningful
	// without rate limits (a capped guest's share is bounded by its
	// rate, not its weight).
	MaxShareErrPct float64

	PerGuest []SchedGuestStat

	weights, rates []int // as configured, for the bench key
}

// BenchKey extends the Result key with the fan-out and the scheduler
// parameters, e.g. "e1000/tx/batch=16/guests=64/w=4:2:1".
func (r *SchedResult) BenchKey() string {
	return fmt.Sprintf("%s/guests=%d%s", r.Result.BenchKey(), r.Guests, schedSuffix(r.weights, r.rates))
}

// Spec renders the scheduler configuration for reports: "equal" for
// unit weights and no caps, otherwise the weight/rate vectors as they
// appear in the bench key, e.g. "w=4:2:1 r=2:0".
func (r *SchedResult) Spec() string {
	s := strings.TrimPrefix(schedSuffix(r.weights, r.rates), "/")
	if s == "" {
		return "equal"
	}
	return strings.ReplaceAll(s, "/", " ")
}

// Rates reports the rate-cap fragment ("r=2:0"), empty when uncapped.
func (r *SchedResult) Rates() string {
	return strings.TrimPrefix(schedSuffix(nil, r.rates), "/")
}

// RunSched measures the domU-twin transmit path with guests guest
// domains contending for budgeted service: every guest's ring is kept
// topped up and each boundary crossing consumes at most Batch
// descriptors per guest on average (the crossing budget is
// Batch×guests), so demand always exceeds service. Params.Weights and
// Params.Rates configure the DRR scheduler; with both nil every guest
// weighs 1 (plain round-robin), the baseline row.
func RunSched(guests int, prm Params) (*SchedResult, error) {
	prm.defaults()
	if prm.Queues != 0 {
		prm.Twin.Queues = prm.Queues
	}
	if prm.Trace != nil {
		prm.Twin.Trace = prm.Trace
	}
	prm.Twin.Weights = prm.Weights
	prm.Twin.Rates = prm.Rates
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
	p.PostedTX = prm.PostedTX
	attachRecovery(p, prm)
	budget := prm.Batch * guests
	crossings := prm.Measure / prm.Batch
	if crossings < 1 {
		crossings = 1
	}
	warmup := prm.Warmup / prm.Batch
	if warmup < 1 {
		warmup = 1
	}
	if _, err := p.SendContended(0, prm.PacketSize, warmup, budget); err != nil {
		return nil, fmt.Errorf("netbench: sched warmup: %w", err)
	}
	p.ResetMeasurement()
	upcalls0 := p.T.UpcallsPerformed()
	perGuest, err := p.SendContended(0, prm.PacketSize, crossings, budget)
	if err != nil {
		return nil, fmt.Errorf("netbench: sched measure: %w", err)
	}

	critical, breakdown, queues := criticalPath(p)
	totalPkts := uint64(0)
	for _, n := range perGuest {
		totalPkts += uint64(n)
	}
	if totalPkts == 0 {
		return nil, fmt.Errorf("netbench: sched run moved no packets")
	}
	n := float64(totalPkts)
	res := &SchedResult{
		Result: &Result{
			Config:          p.Kind.String(),
			Direction:       TX,
			NumNICs:         prm.NumNICs,
			Packets:         int(totalPkts),
			Backend:         p.M.Model.Name,
			Batch:           prm.Batch,
			PostedTX:        prm.PostedTX,
			Queues:          queues,
			CyclesPerPacket: float64(critical) / n,
			Breakdown:       make(map[cycles.Component]float64),
		},
		Guests:  guests,
		weights: prm.Weights,
		rates:   prm.Rates,
	}
	for comp, c := range breakdown {
		res.Breakdown[comp] = float64(c) / n
	}
	res.SwitchesPerPacket = float64(p.M.HV.Switches) / n
	res.HypercallsPerPacket = float64(p.M.HV.Hypercalls) / n
	res.UpcallsPerPacket = float64(p.T.UpcallsPerformed()-upcalls0) / n
	res.ThroughputMbps, res.CPUUtil = Throughput(res.CyclesPerPacket, prm.NumNICs, prm.PacketSize)

	totalW := 0
	weights := make([]int, guests)
	for g, dom := range p.M.Guests {
		weights[g] = p.T.GuestWeight(dom.ID)
		totalW += weights[g]
	}
	var perGuestByID = make(map[mem.Owner]uint64, guests)
	for id, c := range perGuest {
		perGuestByID[id] = uint64(c)
	}
	for g, dom := range p.M.Guests {
		pkts := perGuestByID[dom.ID]
		st := SchedGuestStat{
			Guest:   g,
			Weight:  weights[g],
			Packets: pkts,
			Share:   float64(pkts) / n,
			Want:    float64(weights[g]) / float64(totalW),
		}
		if len(prm.Rates) == 0 && st.Want > 0 {
			if errPct := 100 * abs(st.Share-st.Want) / st.Want; errPct > res.MaxShareErrPct {
				res.MaxShareErrPct = errPct
			}
		}
		res.PerGuest = append(res.PerGuest, st)
	}
	if s := telemetry.ActiveSession(); s != nil {
		s.Folded.AddBreakdown(res.BenchKey(), breakdown)
	}
	return res, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// VswitchResult compares one guest→guest stream delivered through the
// inter-guest L2 switch against the same stream hairpinned through the
// device (transmit to the wire, re-inject, interrupt, receive demux).
type VswitchResult struct {
	Backend    string
	PacketSize int
	Packets    int
	Batch      int

	// SwitchCPP and DeviceCPP are the two per-packet costs; Speedup is
	// their ratio (device over switch — how much the dom0-side delivery
	// saves).
	SwitchCPP float64
	DeviceCPP float64
	Speedup   float64

	SwitchBreakdown map[cycles.Component]float64
	DeviceBreakdown map[cycles.Component]float64
}

// SwitchKey and DeviceKey are the two bench keys a vswitch comparison
// files under.
func (r *VswitchResult) SwitchKey() string {
	return fmt.Sprintf("%s/local/batch=%d/switch", r.Backend, r.Batch)
}
func (r *VswitchResult) DeviceKey() string {
	return fmt.Sprintf("%s/local/batch=%d/device", r.Backend, r.Batch)
}

// RunVswitch measures a two-guest domU-twin configuration moving
// Measure frames from guest 0 to guest 1, once with TwinConfig.Switch
// on (dom0-side classify + copy, device untouched) and once off (the
// full device round-trip).
func RunVswitch(prm Params) (*VswitchResult, error) {
	prm.defaults()
	model, err := prm.model()
	if err != nil {
		return nil, err
	}
	measure := func(sw bool) (float64, map[cycles.Component]float64, error) {
		tcfg := prm.Twin
		tcfg.Switch = sw
		p, err := netpath.NewMultiModel(netpath.Twin, prm.NumNICs, 2, model, tcfg)
		if err != nil {
			return 0, nil, err
		}
		if _, err := p.SendLocal(0, prm.PacketSize, prm.Warmup, 0, 1); err != nil {
			return 0, nil, fmt.Errorf("warmup: %w", err)
		}
		p.ResetMeasurement()
		done, err := p.SendLocal(0, prm.PacketSize, prm.Measure, 0, 1)
		if err != nil {
			return 0, nil, err
		}
		if done != prm.Measure {
			return 0, nil, fmt.Errorf("moved %d of %d local frames", done, prm.Measure)
		}
		critical, breakdown, _ := criticalPath(p)
		n := float64(done)
		bd := make(map[cycles.Component]float64, len(breakdown))
		for comp, c := range breakdown {
			bd[comp] = float64(c) / n
		}
		return float64(critical) / n, bd, nil
	}
	res := &VswitchResult{
		Backend:    prm.Backend,
		PacketSize: prm.PacketSize,
		Packets:    prm.Measure,
		Batch:      prm.Batch,
	}
	if res.SwitchCPP, res.SwitchBreakdown, err = measure(true); err != nil {
		return nil, fmt.Errorf("netbench: vswitch (switched): %w", err)
	}
	if res.DeviceCPP, res.DeviceBreakdown, err = measure(false); err != nil {
		return nil, fmt.Errorf("netbench: vswitch (device): %w", err)
	}
	if res.SwitchCPP > 0 {
		res.Speedup = res.DeviceCPP / res.SwitchCPP
	}
	return res, nil
}
