package netbench

import (
	"testing"

	"twindrivers/internal/core"
	"twindrivers/internal/cost"
	"twindrivers/internal/cycles"
	"twindrivers/internal/netpath"
)

// paperCpp holds the single-NIC per-packet cycle profiles of Figures 7/8.
var paperCpp = map[string]map[Direction]float64{
	"Linux":     {TX: 7126, RX: 11166},
	"dom0":      {TX: 8310, RX: 14308},
	"domU-twin": {TX: 9972, RX: 20089},
	"domU":      {TX: 21159, RX: 35905},
}

func runAll(t *testing.T, dir Direction, nNICs, measure int) map[string]*Result {
	t.Helper()
	out := make(map[string]*Result)
	for _, kind := range netpath.Kinds() {
		r, err := Run(kind, dir, Params{NumNICs: nNICs, Measure: measure})
		if err != nil {
			t.Fatalf("%v %v: %v", kind, dir, err)
		}
		out[r.Config] = r
	}
	return out
}

// within reports |got-want|/want <= tol.
func within(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol*want
}

// TestShapeCyclesPerPacket checks every configuration's per-packet cost
// against the paper's profile within a generous tolerance, plus the strict
// ordering Linux < dom0 < twin < domU.
func TestShapeCyclesPerPacket(t *testing.T) {
	for _, dir := range []Direction{TX, RX} {
		res := runAll(t, dir, 1, 256)
		for cfg, r := range res {
			want := paperCpp[cfg][dir]
			if !within(r.CyclesPerPacket, want, 0.20) {
				t.Errorf("%s %v: cpp=%.0f, paper %.0f (>20%% off)", cfg, dir, r.CyclesPerPacket, want)
			}
		}
		order := []string{"Linux", "dom0", "domU-twin", "domU"}
		for i := 0; i < len(order)-1; i++ {
			if res[order[i]].CyclesPerPacket >= res[order[i+1]].CyclesPerPacket {
				t.Errorf("%v ordering violated: %s (%.0f) >= %s (%.0f)", dir,
					order[i], res[order[i]].CyclesPerPacket,
					order[i+1], res[order[i+1]].CyclesPerPacket)
			}
		}
	}
}

// TestShapeThroughputImprovement checks the paper's headline: TwinDrivers
// improves guest throughput by ≈2.4x (TX) and ≈2.1x (RX) over the
// unoptimized guest, reaching roughly two thirds of native.
func TestShapeThroughputImprovement(t *testing.T) {
	for _, dir := range []Direction{TX, RX} {
		res := runAll(t, dir, cost.NumNICs, 256)
		twin, domU, linux := res["domU-twin"], res["domU"], res["Linux"]
		factor := twin.ThroughputMbps / domU.ThroughputMbps
		wantFactor := 2.41
		if dir == RX {
			wantFactor = 2.17
		}
		if !within(factor, wantFactor, 0.25) {
			t.Errorf("%v improvement factor = %.2fx, paper %.2fx", dir, factor, wantFactor)
		}
		// CPU-scaled fraction of native (the paper's 64-67%).
		nativeScaled := linux.ThroughputMbps / linux.CPUUtil
		frac := twin.ThroughputMbps / twin.CPUUtil / nativeScaled
		if frac < 0.50 || frac > 0.85 {
			t.Errorf("%v twin fraction of native = %.0f%%, paper 64-67%%", dir, 100*frac)
		}
	}
}

// TestShapeBreakdown checks the structural claims of Figures 7/8: where
// the cycles go.
func TestShapeBreakdown(t *testing.T) {
	// TX: the unoptimized guest spends more in dom0 than the twin spends
	// in the hypervisor; the twin has NO dom0 involvement per packet.
	txDomU, err := Run(netpath.DomU, TX, Params{NumNICs: 1, Measure: 128})
	if err != nil {
		t.Fatal(err)
	}
	txTwin, err := Run(netpath.Twin, TX, Params{NumNICs: 1, Measure: 128})
	if err != nil {
		t.Fatal(err)
	}
	if txTwin.Breakdown[cycles.CompDom0] != 0 {
		t.Errorf("twin TX charges dom0: %.0f cycles/pkt", txTwin.Breakdown[cycles.CompDom0])
	}
	if txDomU.Breakdown[cycles.CompDom0] < 4000 {
		t.Errorf("domU TX dom0 bucket = %.0f, expected the netback/bridge cost", txDomU.Breakdown[cycles.CompDom0])
	}
	if txDomU.SwitchesPerPacket < 1.5 {
		t.Errorf("domU TX switches/pkt = %.2f, expected ~2", txDomU.SwitchesPerPacket)
	}
	if txTwin.SwitchesPerPacket != 0 {
		t.Errorf("twin TX switches/pkt = %.2f, want 0", txTwin.SwitchesPerPacket)
	}
	// The rewritten driver costs 2-3x the native driver.
	txLinux, err := Run(netpath.Linux, TX, Params{NumNICs: 1, Measure: 128})
	if err != nil {
		t.Fatal(err)
	}
	ratio := txTwin.Breakdown[cycles.CompDriver] / txLinux.Breakdown[cycles.CompDriver]
	if ratio < 1.8 || ratio > 3.5 {
		t.Errorf("rewritten/native driver = %.2fx, paper reports 2-3x", ratio)
	}
	// RX: the twin's hypervisor bucket is dominated by the guest copy.
	rxTwin, err := Run(netpath.Twin, RX, Params{NumNICs: 1, Measure: 128})
	if err != nil {
		t.Fatal(err)
	}
	copyCost := float64(cost.MTU+14) * cost.HvCopyPerByte
	if rxTwin.Breakdown[cycles.CompXen] < copyCost {
		t.Errorf("twin RX xen bucket (%.0f) below the copy cost (%.0f)", rxTwin.Breakdown[cycles.CompXen], copyCost)
	}
}

// TestUpcallSweep reproduces the mechanism behind Figure 10: every
// fast-path routine converted to an upcall costs two domain switches per
// driver invocation and collapses throughput.
func TestUpcallSweep(t *testing.T) {
	full, err := Run(netpath.Twin, TX, Params{NumNICs: cost.NumNICs, Measure: 128})
	if err != nil {
		t.Fatal(err)
	}
	if full.UpcallsPerPacket != 0 {
		t.Fatalf("full support set still upcalls: %.2f/pkt", full.UpcallsPerPacket)
	}
	// Drop one per-invocation routine (spin_trylock): at least one upcall
	// per packet.
	sup := []string{}
	for _, s := range core.DefaultHvSupport() {
		if s != "spin_trylock" {
			sup = append(sup, s)
		}
	}
	one, err := Run(netpath.Twin, TX, Params{
		NumNICs: cost.NumNICs, Measure: 128,
		Twin: core.TwinConfig{HvSupport: sup},
	})
	if err != nil {
		t.Fatal(err)
	}
	if one.UpcallsPerPacket < 1 {
		t.Fatalf("upcalls/pkt = %.2f, want >= 1", one.UpcallsPerPacket)
	}
	// The paper: one upcall per invocation drops transmit from 3902 to
	// 1638 Mb/s — better than a 2x collapse.
	if one.ThroughputMbps > 0.6*full.ThroughputMbps {
		t.Errorf("one upcall: %.0f Mb/s vs full %.0f — collapse too small",
			one.ThroughputMbps, full.ThroughputMbps)
	}
	if one.SwitchesPerPacket < 2 {
		t.Errorf("switches/pkt with one upcall = %.2f, want >= 2", one.SwitchesPerPacket)
	}
}

// TestThroughputFunction checks the cycle→throughput conversion.
func TestThroughputFunction(t *testing.T) {
	// CPU-limited: 30000 cycles/packet can push 100k pkts/s = 1200 Mb/s.
	mbps, util := throughput(30000, 5, cost.MTU)
	if util != 1.0 {
		t.Errorf("util = %v", util)
	}
	if !within(mbps, 1200, 0.01) {
		t.Errorf("mbps = %v", mbps)
	}
	// Line-limited: 1000 cycles/packet saturates 5 NICs below full CPU.
	mbps, util = throughput(1000, 5, cost.MTU)
	if mbps != cost.NICLineRateMbps*5 {
		t.Errorf("line-limited mbps = %v", mbps)
	}
	if util >= 1.0 || util <= 0 {
		t.Errorf("line-limited util = %v", util)
	}
}

// TestPacketIntegrityAllConfigs moves distinct payloads through every
// configuration in both directions and verifies byte counts.
func TestPacketIntegrityAllConfigs(t *testing.T) {
	for _, kind := range netpath.Kinds() {
		p, err := netpath.New(kind, 1, core.TwinConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if _, err := p.SendBurst(0, 400+i, 1); err != nil {
				t.Fatalf("%v send %d: %v", kind, i, err)
			}
			if _, err := p.ReceiveBurst(0, 400+i, 1); err != nil {
				t.Fatalf("%v recv %d: %v", kind, i, err)
			}
		}
		if p.TxCount != 40 || p.RxCount != 40 {
			t.Errorf("%v: tx=%d rx=%d", kind, p.TxCount, p.RxCount)
		}
		tx, rx, missed := p.M.Devs[0].NIC.Counters()
		if tx != 40+0 || rx != 40 || missed != 0 {
			t.Errorf("%v: NIC counters tx=%d rx=%d missed=%d", kind, tx, rx, missed)
		}
	}
}

// TestBatchSweepMonotonic: on the Twin path, cycles/packet must be
// monotonically non-increasing in the batch size — the whole point of
// batching the boundary crossing — in both directions, and the batch=1
// measurement must be identical to a run with the per-packet default.
func TestBatchSweepMonotonic(t *testing.T) {
	for _, dir := range []Direction{TX, RX} {
		base, err := Run(netpath.Twin, dir, Params{NumNICs: 1, Measure: 128})
		if err != nil {
			t.Fatal(err)
		}
		prev := base
		for _, batch := range []int{1, 2, 4, 8, 16, 32} {
			r, err := Run(netpath.Twin, dir, Params{NumNICs: 1, Measure: 128, Options: netpath.Options{BatchSize: batch}})
			if err != nil {
				t.Fatalf("%v batch=%d: %v", dir, batch, err)
			}
			if batch == 1 && r.CyclesPerPacket != base.CyclesPerPacket {
				t.Errorf("%v: batch=1 %.2f cyc/pkt != per-packet default %.2f",
					dir, r.CyclesPerPacket, base.CyclesPerPacket)
			}
			if r.CyclesPerPacket > prev.CyclesPerPacket {
				t.Errorf("%v: batch=%d %.2f cyc/pkt > batch=%d %.2f (not monotone)",
					dir, batch, r.CyclesPerPacket, prev.BatchSize, prev.CyclesPerPacket)
			}
			prev = r
		}
	}
}

// TestBatchAmortizesHypercalls: the transmit path's hypercall rate must
// fall as 1/batch, and batch=32 must be measurably cheaper than batch=1.
func TestBatchAmortizesHypercalls(t *testing.T) {
	r1, err := Run(netpath.Twin, TX, Params{NumNICs: 1, Measure: 128, Options: netpath.Options{BatchSize: 1}})
	if err != nil {
		t.Fatal(err)
	}
	r32, err := Run(netpath.Twin, TX, Params{NumNICs: 1, Measure: 128, Options: netpath.Options{BatchSize: 32}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.HypercallsPerPacket != 1 {
		t.Errorf("batch=1 hypercalls/pkt = %.2f, want 1", r1.HypercallsPerPacket)
	}
	if r32.HypercallsPerPacket > 1.0/32+0.001 {
		t.Errorf("batch=32 hypercalls/pkt = %.3f, want 1/32", r32.HypercallsPerPacket)
	}
	saved := r1.CyclesPerPacket - r32.CyclesPerPacket
	// At minimum the amortized hypercall itself.
	if saved < float64(cost.Hypercall)*0.9*31/32 {
		t.Errorf("batch=32 saves only %.0f cycles/pkt over batch=1", saved)
	}
}

// TestMultiGuestScalesFlat is the fan-out acceptance shape: the per-guest
// cycles/packet at 4 guests stays within 15% of the single-guest figure
// (one boundary crossing services every guest), and the round-robin ring
// service keeps the per-guest packet counts exactly fair.
func TestMultiGuestScalesFlat(t *testing.T) {
	for _, dir := range []Direction{TX, RX} {
		single, err := RunMultiGuest(dir, 1, Params{NumNICs: 1, Measure: 96, Options: netpath.Options{BatchSize: 16}})
		if err != nil {
			t.Fatal(err)
		}
		four, err := RunMultiGuest(dir, 4, Params{NumNICs: 1, Measure: 96, Options: netpath.Options{BatchSize: 16}})
		if err != nil {
			t.Fatal(err)
		}
		if four.Guests != 4 || len(four.PerGuest) != 4 {
			t.Fatalf("%v: result carries %d guests", dir, len(four.PerGuest))
		}
		for _, g := range four.PerGuest {
			if g.Packets != 96 {
				t.Errorf("%v guest %d moved %d packets, want 96", dir, g.Guest, g.Packets)
			}
			if !within(g.CyclesPerPacket, single.CyclesPerPacket, 0.15) {
				t.Errorf("%v guest %d cycles/packet = %.0f, single-guest = %.0f (>15%% apart)",
					dir, g.Guest, g.CyclesPerPacket, single.CyclesPerPacket)
			}
		}
		// The crossing amortizes across guests: hypercalls per packet fall
		// with the guest count on transmit.
		if dir == TX && !(four.HypercallsPerPacket < single.HypercallsPerPacket) {
			t.Errorf("hc/pkt did not fall with fan-out: %v vs %v",
				four.HypercallsPerPacket, single.HypercallsPerPacket)
		}
	}
}

// TestMultiGuestSingleMatchesBurst: a 1-guest multi-guest run is the same
// machine shape as the plain batched path — its aggregate cycles/packet
// stays in the same neighbourhood as Measure over the batched SendBurst
// (sanity against the fan-out harness distorting the baseline).
func TestMultiGuestSingleMatchesBurst(t *testing.T) {
	mg, err := RunMultiGuest(TX, 1, Params{NumNICs: 1, Measure: 128, Options: netpath.Options{BatchSize: 16}})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(netpath.Twin, TX, Params{NumNICs: 1, Measure: 128, Options: netpath.Options{BatchSize: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if !within(mg.CyclesPerPacket, plain.CyclesPerPacket, 0.05) {
		t.Errorf("1-guest fan-out = %.0f cyc/pkt, batched path = %.0f (>5%% apart)",
			mg.CyclesPerPacket, plain.CyclesPerPacket)
	}
}

// TestRecoveryHotPathUnchanged: attaching a recovery supervisor must not
// cost a single cycle on the fault-free path — the supervisor only runs
// once an invocation has already died. The simulation is deterministic, so
// "unchanged" here is exact equality, per direction and batch size,
// including the full four-bucket attribution.
func TestRecoveryHotPathUnchanged(t *testing.T) {
	for _, dir := range []Direction{TX, RX} {
		for _, batch := range []int{1, 8} {
			plain, err := Run(netpath.Twin, dir, Params{NumNICs: 1, Measure: 128, Options: netpath.Options{BatchSize: batch}})
			if err != nil {
				t.Fatal(err)
			}
			sup, err := Run(netpath.Twin, dir, Params{NumNICs: 1, Measure: 128, Options: netpath.Options{BatchSize: batch}, Recovery: true})
			if err != nil {
				t.Fatal(err)
			}
			if plain.CyclesPerPacket != sup.CyclesPerPacket {
				t.Errorf("%s batch=%d: %.2f cyc/pkt without supervisor, %.2f with",
					dir, batch, plain.CyclesPerPacket, sup.CyclesPerPacket)
			}
			for comp, v := range plain.Breakdown {
				if sup.Breakdown[comp] != v {
					t.Errorf("%s batch=%d bucket %s: %.2f vs %.2f", dir, batch, comp, v, sup.Breakdown[comp])
				}
			}
			if plain.HypercallsPerPacket != sup.HypercallsPerPacket {
				t.Errorf("%s batch=%d hc/pkt changed", dir, batch)
			}
		}
	}
	// The multi-guest fan-out path, same contract.
	plain, err := RunMultiGuest(TX, 4, Params{NumNICs: 1, Measure: 64, Options: netpath.Options{BatchSize: 16}})
	if err != nil {
		t.Fatal(err)
	}
	sup, err := RunMultiGuest(TX, 4, Params{NumNICs: 1, Measure: 64, Options: netpath.Options{BatchSize: 16}, Recovery: true})
	if err != nil {
		t.Fatal(err)
	}
	if plain.CyclesPerPacket != sup.CyclesPerPacket {
		t.Errorf("multi-guest: %.2f cyc/pkt without supervisor, %.2f with",
			plain.CyclesPerPacket, sup.CyclesPerPacket)
	}
}
