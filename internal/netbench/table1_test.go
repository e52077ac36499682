package netbench

import (
	"slices"
	"testing"

	"twindrivers/internal/core"
)

func TestTable1FastPathIsSubsetOfTen(t *testing.T) {
	tb, err := RunTable1(64)
	if err != nil {
		t.Fatal(err)
	}
	ten := core.DefaultHvSupport()
	for _, rc := range tb.FastPath {
		if !slices.Contains(ten, rc.Name) {
			t.Errorf("fast-path routine %q is not in Table 1", rc.Name)
		}
		if rc.Calls == 0 {
			t.Errorf("routine %q listed with zero calls", rc.Name)
		}
	}
	// The paper's headline: a small fraction of the full support set.
	if len(tb.FastPath) < 6 || len(tb.FastPath) > 10 {
		t.Errorf("fast path uses %d routines, paper: 10", len(tb.FastPath))
	}
	if len(tb.AllRoutines) <= len(tb.FastPath) {
		t.Errorf("driver imports %d routines, fast path %d — no reduction",
			len(tb.AllRoutines), len(tb.FastPath))
	}
	if tb.KernelSymbols < 60 {
		t.Errorf("kernel table = %d symbols", tb.KernelSymbols)
	}
	// Sorted by call count, descending.
	for i := 1; i < len(tb.FastPath); i++ {
		if tb.FastPath[i].Calls > tb.FastPath[i-1].Calls {
			t.Error("fast path not sorted by calls")
		}
	}
	// The trace covers every packet from bring-up, the warm-up quarter
	// included: one receive per traced packet pair.
	for _, rc := range tb.FastPath {
		if rc.Name == "netif_rx" && rc.Calls != 64 {
			t.Errorf("netif_rx called %d times over 64 traced packets", rc.Calls)
		}
	}
}

// TestBenchKeyDerivation pins the one key function on every shape of
// measurement: the parameters a Result ran are all it reads.
func TestBenchKeyDerivation(t *testing.T) {
	key := func(dir Direction, guests, queues int, edit func(*Params)) string {
		prm := Params{}
		edit(&prm)
		prm.defaults()
		return (&Result{Params: prm, Direction: dir, Guests: guests, Queues: queues}).BenchKey()
	}
	for _, c := range []struct{ got, want string }{
		{key(TX, 0, 1, func(*Params) {}), "e1000/tx/batch=1"},
		{key(RX, 0, 1, func(*Params) {}), "e1000/rx/batch=1"},
		{key(RX, 0, 8, func(p *Params) { p.Backend, p.BatchSize, p.PostedRX = "mqnic", 8, true }), "mqnic/rx/batch=8/posted/q8"},
		{key(TX, 0, 1, func(p *Params) { p.Backend, p.BatchSize, p.PostedTX = "rtl8139", 32, true }), "rtl8139/tx/batch=32/postedtx"},
		{key(RX, 256, 1, func(p *Params) { p.BatchSize = 16 }), "e1000/rx/batch=16/guests=256"},
		{key(TX, 8, 4, func(p *Params) { p.Backend, p.BatchSize = "mqnic", 32 }), "mqnic/tx/batch=32/q4/guests=8"},
		{key(TX, 64, 1, func(p *Params) { p.BatchSize, p.Twin.Weights, p.Twin.Rates = 16, []int{8, 1}, []int{4, 0} }),
			"e1000/tx/batch=16/guests=64/w=8:1/r=4:0"},
		{key(Local, 2, 8, func(p *Params) { p.Backend, p.BatchSize, p.Twin.Switch = "mqnic", 16, true }), "mqnic/local/batch=16/switch"},
		{key(Local, 2, 1, func(p *Params) { p.BatchSize = 16 }), "e1000/local/batch=16/device"},
	} {
		if c.got != c.want {
			t.Errorf("BenchKey = %q, want %q", c.got, c.want)
		}
	}
}
