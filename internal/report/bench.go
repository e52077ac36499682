package report

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"

	"twindrivers/internal/cycles"
)

// The machine-readable side of the evaluation: each sweep area emits a
// BENCH_<area>.json with one cycles/packet number per measured
// configuration. The files are committed as baselines, and the bench gate
// (cmd/benchgate) re-measures and compares against them — a performance
// regression beyond the noise tolerance fails CI the same way a broken
// test does. The simulation is deterministic, so the tolerance guards
// intentional cost-model changes, not run-to-run noise; a change that
// moves a number beyond it must regenerate the baseline deliberately
// (benchgate -update) and show the diff in review.

// BenchEntry is one measured configuration of an area.
type BenchEntry struct {
	// Config is the stable key naming the configuration, e.g.
	// "e1000/rx/batch=8/posted" or "recovery/wild-write/guests=4/post".
	Config string `json:"config"`

	// CyclesPerPacket is the measured cost, in the area's Unit.
	CyclesPerPacket float64 `json:"cycles_per_packet"`

	// Breakdown attributes the cost per cycles.Meter component
	// (dom0/domU/xen/driver), in the area's Unit. Optional: areas whose
	// number is not a per-packet meter total (e.g. recovery MTTR) omit
	// it, and the gate only compares it when both sides carry it.
	Breakdown map[string]float64 `json:"breakdown,omitempty"`
}

// Bench is one area's measurement set — the content of BENCH_<area>.json.
type Bench struct {
	Area    string       `json:"area"`
	Unit    string       `json:"unit"`
	Quick   bool         `json:"quick"`
	Entries []BenchEntry `json:"entries"`
}

// Add records one configuration's measurement along with its
// per-component attribution (a netbench Result.Breakdown; nil for areas
// whose number is not a per-packet meter total).
func (b *Bench) Add(config string, cyclesPerPacket float64, breakdown map[cycles.Component]float64) {
	e := BenchEntry{Config: config, CyclesPerPacket: cyclesPerPacket}
	if len(breakdown) > 0 {
		e.Breakdown = make(map[string]float64, len(breakdown))
		for comp, v := range breakdown {
			e.Breakdown[comp.String()] = v
		}
	}
	b.Entries = append(b.Entries, e)
}

// BreakdownDrift renders the per-component movement between a baseline
// entry and a current one ("dom0 4210.0→4288.5 (+1.9%)"), or "" when
// either side carries no breakdown. cmd/benchgate -v prints it so a
// gated regression names the bucket that moved.
func BreakdownDrift(base, cur BenchEntry) string {
	if len(base.Breakdown) == 0 || len(cur.Breakdown) == 0 {
		return ""
	}
	either := maps.Clone(base.Breakdown)
	maps.Copy(either, cur.Breakdown)
	comps := make([]string, 0, len(either))
	for c := range either {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	parts := make([]string, 0, len(comps))
	for _, c := range comps {
		b0, c0 := base.Breakdown[c], cur.Breakdown[c]
		switch {
		case b0 == 0 && c0 == 0:
			continue
		case b0 == 0:
			parts = append(parts, fmt.Sprintf("%s 0→%.1f (new)", c, c0))
		default:
			parts = append(parts, fmt.Sprintf("%s %.1f→%.1f (%+.1f%%)", c, b0, c0, 100*(c0-b0)/b0))
		}
	}
	return strings.Join(parts, ", ")
}

// Lookup finds one configuration's entry.
func (b *Bench) Lookup(config string) (BenchEntry, bool) {
	for _, e := range b.Entries {
		if e.Config == config {
			return e, true
		}
	}
	return BenchEntry{}, false
}

// BenchPath is the canonical file name of an area's bench inside dir.
func BenchPath(dir, area string) string {
	return filepath.Join(dir, "BENCH_"+area+".json")
}

// WriteFile writes the bench as BENCH_<area>.json under dir, entries
// sorted by config key so regenerated files diff cleanly.
func (b *Bench) WriteFile(dir string) error {
	sort.Slice(b.Entries, func(i, j int) bool { return b.Entries[i].Config < b.Entries[j].Config })
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(BenchPath(dir, b.Area), append(data, '\n'), 0o644)
}

// LoadBench reads one BENCH_<area>.json.
func LoadBench(path string) (*Bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// CompareBench checks a fresh measurement set against a committed
// baseline. It returns an error naming every configuration whose
// cycles/packet regressed beyond tolerancePct, every baseline
// configuration the current run no longer measures (coverage loss), and
// every new configuration the baseline does not carry (the baseline must
// be regenerated so the gate covers it). At tolerance 0 the comparison is
// exact in both directions: a number that got cheaper, or a breakdown
// bucket that moved under an unchanged total, fails too — a deterministic
// simulation either reproduces its baseline entry to the digit or the
// baseline is stale. Quick and full measurements are never comparable.
func CompareBench(baseline, current *Bench, tolerancePct float64) error {
	if baseline.Area != current.Area {
		return fmt.Errorf("bench areas differ: baseline %q vs current %q", baseline.Area, current.Area)
	}
	if baseline.Quick != current.Quick {
		return fmt.Errorf("bench %s: baseline quick=%v but current quick=%v — packet counts differ, numbers are not comparable",
			baseline.Area, baseline.Quick, current.Quick)
	}
	var problems []string
	for _, base := range baseline.Entries {
		cur, ok := current.Lookup(base.Config)
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: no longer measured (baseline %.1f)", base.Config, base.CyclesPerPacket))
			continue
		}
		limit := base.CyclesPerPacket * (1 + tolerancePct/100)
		switch {
		case cur.CyclesPerPacket > limit:
			problems = append(problems, fmt.Sprintf("%s: %.1f cyc/pkt vs baseline %.1f (+%.1f%%, tolerance %.1f%%)",
				base.Config, cur.CyclesPerPacket, base.CyclesPerPacket,
				100*(cur.CyclesPerPacket-base.CyclesPerPacket)/base.CyclesPerPacket, tolerancePct))
		case tolerancePct == 0 && !reflect.DeepEqual(base, cur):
			drift := BreakdownDrift(base, cur)
			if drift != "" {
				drift = " [" + drift + "]"
			}
			problems = append(problems, fmt.Sprintf("%s: %v cyc/pkt vs baseline %v%s: not equal to the digit (regenerate with benchgate -update)",
				base.Config, cur.CyclesPerPacket, base.CyclesPerPacket, drift))
		}
	}
	for _, cur := range current.Entries {
		if _, ok := baseline.Lookup(cur.Config); !ok {
			problems = append(problems, fmt.Sprintf("%s: measured but missing from the baseline (regenerate with benchgate -update)", cur.Config))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("bench %s: %d problem(s):\n  %s", baseline.Area, len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}
