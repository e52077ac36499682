package report

import (
	"path/filepath"
	"strings"
	"testing"

	"twindrivers/internal/cycles"
)

func sampleBench() *Bench {
	b := &Bench{Area: "batch", Unit: "cyc/pkt"}
	b.Add("e1000/tx/batch=1", 9000, nil)
	b.Add("e1000/tx/batch=32", 4000, map[cycles.Component]float64{cycles.CompDomU: 2500, cycles.CompXen: 1500})
	b.Add("e1000/rx/batch=8/posted", 6500, nil)
	return b
}

// TestBenchRoundTrip pins the on-disk format: WriteFile sorts entries by
// config key (regenerated baselines diff cleanly) and LoadBench reads the
// set back identically.
func TestBenchRoundTrip(t *testing.T) {
	dir := t.TempDir()
	b := sampleBench()
	if err := b.WriteFile(dir); err != nil {
		t.Fatal(err)
	}
	path := BenchPath(dir, "batch")
	if filepath.Base(path) != "BENCH_batch.json" {
		t.Fatalf("bench file named %s", filepath.Base(path))
	}
	got, err := LoadBench(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Area != "batch" || got.Unit != "cyc/pkt" || got.Quick {
		t.Fatalf("round trip lost metadata: %+v", got)
	}
	if len(got.Entries) != 3 {
		t.Fatalf("round trip lost entries: %+v", got.Entries)
	}
	for i := 1; i < len(got.Entries); i++ {
		if got.Entries[i-1].Config >= got.Entries[i].Config {
			t.Fatalf("entries not sorted: %q then %q", got.Entries[i-1].Config, got.Entries[i].Config)
		}
	}
	if e, ok := got.Lookup("e1000/tx/batch=32"); !ok || e.CyclesPerPacket != 4000 {
		t.Fatalf("lookup after round trip: %+v %v", e, ok)
	}
	if err := CompareBench(b, got, 0); err != nil {
		t.Fatalf("identical benches compare clean at zero tolerance: %v", err)
	}
}

// TestCompareBenchCatchesRegression is the gate's teeth: a +10% cycles/
// packet regression on one configuration must fail a 5%-tolerance
// comparison, naming the configuration — and pass once the tolerance
// admits it.
func TestCompareBenchCatchesRegression(t *testing.T) {
	base := sampleBench()
	cur := sampleBench()
	cur.Entries[1].CyclesPerPacket *= 1.10 // e1000/tx/batch=32: +10%

	err := CompareBench(base, cur, 5)
	if err == nil {
		t.Fatal("a +10% regression passed a 5% gate")
	}
	if !strings.Contains(err.Error(), "e1000/tx/batch=32") {
		t.Fatalf("regression error does not name the configuration: %v", err)
	}
	if err := CompareBench(base, cur, 15); err != nil {
		t.Fatalf("+10%% within a 15%% tolerance must pass: %v", err)
	}
	// With a tolerance an improvement is never a failure.
	cur.Entries[1].CyclesPerPacket = base.Entries[1].CyclesPerPacket * 0.5
	if err := CompareBench(base, cur, 5); err != nil {
		t.Fatalf("an improvement failed the gate: %v", err)
	}
	// At tolerance 0 the gate is exact both ways: a number that got
	// cheaper is a stale baseline ...
	err = CompareBench(base, cur, 0)
	if err == nil || !strings.Contains(err.Error(), "e1000/tx/batch=32") || !strings.Contains(err.Error(), "benchgate -update") {
		t.Fatalf("a cheaper number passed the exact gate, or without the regenerate hint: %v", err)
	}
	// ... and so is a breakdown bucket that moved under an unchanged total.
	cur = sampleBench()
	cur.Entries[1].Breakdown = map[string]float64{"domU": 2400, "xen": 1600}
	err = CompareBench(base, cur, 0)
	if err == nil || !strings.Contains(err.Error(), "e1000/tx/batch=32") || !strings.Contains(err.Error(), "domU 2500.0→2400.0") {
		t.Fatalf("a moved bucket passed the exact gate, or unnamed: %v", err)
	}
	if err := CompareBench(base, cur, 5); err != nil {
		t.Fatalf("a moved bucket under an unchanged total failed a toleranced gate: %v", err)
	}
}

// TestCompareBenchCoverage pins the coverage rules: a configuration the
// current run no longer measures fails (silent coverage loss), a new
// configuration missing from the baseline fails (the baseline must be
// regenerated to cover it), and quick/full measurement sets never compare.
func TestCompareBenchCoverage(t *testing.T) {
	base := sampleBench()

	missing := sampleBench()
	missing.Entries = missing.Entries[:2] // drops e1000/rx/batch=8/posted
	if err := CompareBench(base, missing, 5); err == nil || !strings.Contains(err.Error(), "no longer measured") {
		t.Fatalf("dropped configuration not caught: %v", err)
	}

	extra := sampleBench()
	extra.Add("rtl8139/tx/batch=1", 12000, nil)
	if err := CompareBench(base, extra, 5); err == nil || !strings.Contains(err.Error(), "missing from the baseline") {
		t.Fatalf("unbaselined configuration not caught: %v", err)
	}

	quick := sampleBench()
	quick.Quick = true
	if err := CompareBench(base, quick, 5); err == nil || !strings.Contains(err.Error(), "quick") {
		t.Fatalf("quick/full mismatch not caught: %v", err)
	}

	other := &Bench{Area: "rxpath"}
	if err := CompareBench(base, other, 5); err == nil {
		t.Fatal("cross-area comparison not caught")
	}
}
