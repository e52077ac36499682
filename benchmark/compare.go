package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareFiles reports, per workload × end-to-end metric, whether result B
// holds against result A (the parent, or an earlier run of the same
// commit):
//
//	equal      a simulated metric that reads the same to the last digit
//	pass       no worse than A by more than the metric's bound
//	moved      a simulated metric that changed but within its bound (or got
//	           better): fine across commits, a determinism bug between two
//	           runs of one commit and seed
//	unresolved the run's own spread (rounds, or the nine set-ups) is wider than
//	           the bound and the difference lies inside it: neither "unchanged"
//	           nor "worse" is shown
//	regressed  worse than A by more than the bound and than either run's spread
//
// It exits non-zero when anything regressed or the files are incomparable.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadResult(pathA)
	if err == nil {
		var b *resultFile
		if b, err = loadResult(pathB); err == nil {
			if err = comparable(a, b); err == nil {
				return compareResults(a, b, stdout)
			}
		}
	}
	fmt.Fprintf(stderr, "benchmark: -compare: %v\n", err)
	return 2
}

func loadResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// comparable refuses two files whose inputs differ: another seed or other
// counts measure another thing.
func comparable(a, b *resultFile) error {
	ha, hb := a.Header, b.Header
	if ha.Seed != hb.Seed || ha.Seconds != hb.Seconds || ha.Rounds != hb.Rounds {
		return fmt.Errorf("incomparable: seed/seconds/rounds %d/%d/%d vs %d/%d/%d",
			ha.Seed, ha.Seconds, ha.Rounds, hb.Seed, hb.Seconds, hb.Rounds)
	}
	for _, wa := range a.Workloads {
		wb := b.find(wa.Workload)
		if wb == nil {
			continue
		}
		for _, k := range []string{"round_frames", "rounds"} {
			if wa.Counts[k] != wb.Counts[k] {
				return fmt.Errorf("incomparable: %s %s %d vs %d", wa.Workload, k, wa.Counts[k], wb.Counts[k])
			}
		}
	}
	return nil
}

func (r *resultFile) find(workload string) *outcome {
	for _, w := range r.Workloads {
		if w.Workload == workload {
			return w
		}
	}
	return nil
}

func compareResults(a, b *resultFile, w io.Writer) int {
	regressed := 0
	fmt.Fprintf(w, "%-13s %-22s %16s %16s %9s  %s\n", "workload", "metric", "A", "B", "change", "verdict")
	for _, wa := range a.Workloads {
		wb := b.find(wa.Workload)
		if wb == nil {
			fmt.Fprintf(w, "%-13s missing from B\n", wa.Workload)
			regressed++
			continue
		}
		names := make([]string, 0, len(wa.EndToEnd))
		for n := range wa.EndToEnd {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			d := defByName(n)
			mb, ok := wb.EndToEnd[n]
			if d == nil || d.informational || !ok {
				continue
			}
			va, vb := wa.EndToEnd[n].Value, mb.Value
			v := verdict(d, va, vb, wa.Spread[n], wb.Spread[n])
			if v == "regressed" {
				regressed++
			}
			change := "-"
			if va != 0 {
				change = fmt.Sprintf("%+.2f%%", 100*(vb-va)/va)
			}
			fmt.Fprintf(w, "%-13s %-22s %16.6g %16.6g %9s  %s\n", wa.Workload, n, va, vb, change, v)
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(w, "%-13s %-22s %16d %16d %9s  regressed\n", wa.Workload, "failed", wa.Failed, wb.Failed, "-")
			regressed++
		}
	}
	if regressed > 0 {
		fmt.Fprintf(w, "%d regressed\n", regressed)
		return 1
	}
	return 0
}

func verdict(d *metricDef, a, b, spreadA, spreadB float64) string {
	if d.exact && a == b {
		return "equal"
	}
	worse := b - a
	if d.better == "higher" {
		worse = a - b
	}
	bound := d.bound
	if d.sameSeed > 0 {
		bound = d.sameSeed
	}
	spread := max(spreadA, spreadB)
	if worse > max(bound, spread)*math.Abs(a)+d.absolute {
		return "regressed"
	}
	if d.exact {
		return "moved"
	}
	if spread > bound {
		return "unresolved"
	}
	return "pass"
}
