package report

import (
	"strings"
	"testing"

	"twindrivers/internal/cycles"
)

func TestAddBreakdownRoundTrip(t *testing.T) {
	b := &Bench{Area: "batch"}
	b.Add("e1000/tx/batch=32", 2000, map[cycles.Component]float64{
		cycles.CompDom0: 1200, cycles.CompXen: 800,
	})
	b.Add("plain", 100, nil)
	e, ok := b.Lookup("e1000/tx/batch=32")
	if !ok || e.Breakdown["dom0"] != 1200 || e.Breakdown["xen"] != 800 {
		t.Fatalf("breakdown not stored: %+v", e)
	}
	if p, _ := b.Lookup("plain"); p.Breakdown != nil {
		t.Fatal("Add without breakdown should leave the field empty")
	}
}

func TestBreakdownDrift(t *testing.T) {
	base := BenchEntry{Breakdown: map[string]float64{"dom0": 1000, "xen": 500}}
	cur := BenchEntry{Breakdown: map[string]float64{"dom0": 1100, "xen": 500, "domU": 50}}
	got := BreakdownDrift(base, cur)
	for _, want := range []string{"dom0 1000.0→1100.0 (+10.0%)", "domU 0→50.0 (new)", "xen 500.0→500.0 (+0.0%)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("drift %q missing %q", got, want)
		}
	}
	if BreakdownDrift(BenchEntry{}, cur) != "" {
		t.Fatal("drift against a breakdown-less baseline should be empty")
	}
}
