package netbench

import (
	"testing"

	"twindrivers/internal/core"
	"twindrivers/internal/netpath"
)

// The weighted-fair scheduling and inter-guest switch measurements:
// shares track weights at scale, rate caps bind, and the dom0-side
// switch beats the device hairpin on every backend.

// TestSchedWeightedSharesAtScale is the acceptance measurement: a
// 4:2:1-weighted 64-guest contended run lands every guest's throughput
// within 5% of its weight share.
func TestSchedWeightedSharesAtScale(t *testing.T) {
	res, err := RunSched(64, Params{
		NumNICs: 1, Measure: 128, Warmup: 32, Options: netpath.Options{BatchSize: 16},
		Twin: core.TwinConfig{Weights: []int{4, 2, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Guests != 64 || len(res.PerGuest) != 64 {
		t.Fatalf("guests = %d, per-guest rows = %d", res.Guests, len(res.PerGuest))
	}
	for _, st := range res.PerGuest {
		if want := []int{4, 2, 1}[st.Guest%3]; st.Weight != want {
			t.Fatalf("guest %d weight = %d, want %d", st.Guest, st.Weight, want)
		}
		lo, hi := st.Want*0.95, st.Want*1.05
		if st.Share < lo || st.Share > hi {
			t.Fatalf("guest %d (weight %d): share %.4f outside %.4f..%.4f",
				st.Guest, st.Weight, st.Share, lo, hi)
		}
	}
	if res.MaxShareErrPct > 5 {
		t.Fatalf("MaxShareErrPct = %.2f, want <= 5", res.MaxShareErrPct)
	}
}

// TestSchedEqualWeightsKeyAndShares: the unweighted run reports equal
// shares and files under a key with no scheduler suffix.
func TestSchedEqualWeightsKeyAndShares(t *testing.T) {
	res, err := RunSched(8, Params{NumNICs: 1, Measure: 64, Warmup: 16, Options: netpath.Options{BatchSize: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.BenchKey(), "e1000/tx/batch=16/guests=8"; got != want {
		t.Fatalf("BenchKey = %q, want %q", got, want)
	}
	for _, st := range res.PerGuest {
		if st.Weight != 1 {
			t.Fatalf("guest %d weight = %d without Weights", st.Guest, st.Weight)
		}
	}
	if res.MaxShareErrPct > 1 {
		t.Fatalf("equal-weight MaxShareErrPct = %.2f", res.MaxShareErrPct)
	}
}

// TestSchedRateLimitedRun: a rate cap binds — the capped guest's
// packets stay at rate×crossings while the uncapped guests absorb the
// slack — and the key carries both parameter suffixes.
func TestSchedRateLimitedRun(t *testing.T) {
	res, err := RunSched(4, Params{
		NumNICs: 1, Measure: 64, Warmup: 16, Options: netpath.Options{BatchSize: 16},
		Twin: core.TwinConfig{Weights: []int{8, 1, 1, 1}, Rates: []int{2, 0, 0, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.BenchKey(), "e1000/tx/batch=16/guests=4/w=8:1:1:1/r=2:0:0:0"; got != want {
		t.Fatalf("BenchKey = %q, want %q", got, want)
	}
	crossings := 64 / 16
	capped := res.PerGuest[0]
	if capped.Packets != uint64(2*crossings) {
		t.Fatalf("capped guest moved %d, want %d (2/crossing × %d crossings)",
			capped.Packets, 2*crossings, crossings)
	}
	for _, st := range res.PerGuest[1:] {
		if st.Packets <= capped.Packets {
			t.Fatalf("uncapped guest %d (%d pkts) did not absorb the capped guest's slack (%d)",
				st.Guest, st.Packets, capped.Packets)
		}
	}
}

// TestVswitchCheaperThanDevice: on every backend, guest→guest frames
// through the inter-guest switch cost measurably fewer cycles/packet
// than the device hairpin.
func TestVswitchCheaperThanDevice(t *testing.T) {
	for _, backend := range []string{"e1000", "rtl8139", "mqnic"} {
		prm := Params{NumNICs: 1, Measure: 64, Warmup: 16, Options: netpath.Options{BatchSize: 16}, Backend: backend}
		device, err := RunVswitch(prm)
		if err != nil {
			t.Fatalf("%s device: %v", backend, err)
		}
		prm.Twin.Switch = true
		switched, err := RunVswitch(prm)
		if err != nil {
			t.Fatalf("%s switched: %v", backend, err)
		}
		if got, want := switched.BenchKey(), backend+"/local/batch=16/switch"; got != want {
			t.Fatalf("BenchKey = %q, want %q", got, want)
		}
		if switched.Packets != 64 || device.Packets != 64 {
			t.Fatalf("%s: moved %d switched, %d through the device, want 64 each", backend, switched.Packets, device.Packets)
		}
		if switched.CyclesPerPacket >= device.CyclesPerPacket {
			t.Fatalf("%s: switch %.0f cyc/pkt not below device hairpin %.0f",
				backend, switched.CyclesPerPacket, device.CyclesPerPacket)
		}
		if device.CyclesPerPacket/switched.CyclesPerPacket < 1.05 {
			t.Fatalf("%s: speedup %.3fx not measurable", backend, device.CyclesPerPacket/switched.CyclesPerPacket)
		}
	}
}
