// Command benchgate is the CI performance gate: it re-measures every
// bench-emitting sweep area (full-mode packet counts, same as the
// committed baselines) and compares the cycles/packet of every
// configuration against the BENCH_<area>.json files under the baseline
// directory. Any configuration that regressed beyond the tolerance, any
// baseline configuration no longer measured, and any new configuration
// missing from the baseline fails the gate with a non-zero exit. At
// -tolerance 0 the gate is exact in both directions: a cheaper number or a
// moved breakdown bucket is a stale baseline and fails too.
//
// Usage:
//
//	benchgate                      # compare against ./bench at 5% tolerance
//	benchgate -tolerance 0         # equal to the digit, both ways (what CI runs)
//	benchgate -update              # regenerate the committed baselines
//	benchgate -v                   # also print per-component breakdown drift
//
// The simulation is deterministic, so the tolerance exists for
// intentional cost-model changes: moving a number beyond it requires a
// deliberate `benchgate -update` whose diff shows up in review.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"twindrivers"
	"twindrivers/internal/report"
)

func main() {
	baseline := flag.String("baseline", "bench", "directory holding the committed BENCH_<area>.json baselines")
	tolerance := flag.Float64("tolerance", 5.0, "allowed cycles/packet increase, percent (0 = equal to the digit, both ways)")
	update := flag.Bool("update", false, "rewrite the baselines from a fresh measurement instead of comparing")
	quick := flag.Bool("quick", false, "quick-mode packet counts (only for quick-mode baselines)")
	verbose := flag.Bool("v", false, "print per-component cycle-breakdown drift for every configuration")
	flag.Parse()

	die := func(what, area string, err error) {
		fmt.Fprintf(os.Stderr, "benchgate: %s %s: %v\n", what, area, err)
		os.Exit(1)
	}
	failed := false
	for _, area := range twindrivers.BenchAreas() {
		cur, err := twindrivers.CollectBench(io.Discard, area, *quick)
		if err != nil {
			die("measuring", area, err)
		}
		if *update {
			if err := cur.WriteFile(*baseline); err != nil {
				die("writing", area, err)
			}
			fmt.Printf("benchgate: wrote %s (%d configs)\n", report.BenchPath(*baseline, area), len(cur.Entries))
			continue
		}
		base, err := report.LoadBench(report.BenchPath(*baseline, area))
		if err != nil {
			die("loading the baseline of", area, err)
		}
		if *verbose {
			// Per-component drift regardless of pass/fail: when a number
			// moves, this names the bucket (dom0/domU/xen/driver) it
			// moved in.
			for _, b := range base.Entries {
				if c, ok := cur.Lookup(b.Config); ok {
					if drift := report.BreakdownDrift(b, c); drift != "" {
						fmt.Printf("  %s/%s: %s\n", area, b.Config, drift)
					}
				}
			}
		}
		if err := report.CompareBench(base, cur, *tolerance); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %v\n", err)
			failed = true
			continue
		}
		fmt.Printf("benchgate: ok %s (%d configs within %.1f%%)\n", area, len(base.Entries), *tolerance)
	}
	if failed {
		os.Exit(1)
	}
}
