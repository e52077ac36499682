package twindrivers_test

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"twindrivers"
	"twindrivers/internal/report"
)

// TestCollectBenchKeys runs every bench-emitting sweep in quick mode and
// pins the shape of the measurement sets: every area produces entries,
// every entry carries a positive cycles/packet, keys are unique, and the
// anchor configurations the gate most depends on are present under their
// stable names.
func TestCollectBenchKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every sweep")
	}
	anchors := map[string][]string{
		"multiguest": {"e1000/tx/batch=16/guests=1", "e1000/tx/batch=16/guests=8", "e1000/rx/batch=16/guests=4"},
		"recovery":   {"recovery/wild-write/guests=1/pre", "recovery/wild-write/guests=1/post"},
		"rxpath":     {"e1000/rx/batch=1", "e1000/rx/batch=1/posted", "rtl8139/rx/batch=32/posted"},
		"txpath":     {"e1000/tx/batch=1", "e1000/tx/batch=32", "rtl8139/tx/batch=1", "mqnic/tx/batch=8/postedtx/q8"},
		"mq":         {"mqnic/tx/batch=32/guests=8", "mqnic/tx/batch=32/q4/guests=8"},
		"sched":      {"e1000/tx/batch=16/guests=8", "e1000/tx/batch=16/guests=64/w=8:1/r=4:0", "rtl8139/local/batch=16/switch"},
	}
	for _, area := range twindrivers.BenchAreas() {
		b, err := twindrivers.CollectBench(io.Discard, area, true)
		if err != nil {
			t.Fatalf("%s: %v", area, err)
		}
		if b.Area != area || !b.Quick || b.Unit != "cyc/pkt" {
			t.Fatalf("%s: bad metadata %+v", area, b)
		}
		if len(b.Entries) == 0 {
			t.Fatalf("%s: empty measurement set", area)
		}
		seen := map[string]bool{}
		for _, e := range b.Entries {
			if seen[e.Config] {
				t.Errorf("%s: duplicate config %q", area, e.Config)
			}
			seen[e.Config] = true
			if e.CyclesPerPacket <= 0 {
				t.Errorf("%s: %s measured %.1f cyc/pkt", area, e.Config, e.CyclesPerPacket)
			}
		}
		for _, want := range anchors[area] {
			if !seen[want] {
				t.Errorf("%s: anchor config %q missing", area, want)
			}
		}
	}
}

// TestCommittedBaselinesLoad guards the committed BENCH_*.json files:
// every bench area has a full-mode baseline under bench/ that parses,
// matches its area and is non-empty — the gate cannot silently run
// against a missing or stale file set.
func TestCommittedBaselinesLoad(t *testing.T) {
	for _, area := range twindrivers.BenchAreas() {
		path := report.BenchPath("bench", area)
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("committed baseline missing: %v (regenerate with `go run ./cmd/benchgate -update`)", err)
		}
		b, err := report.LoadBench(path)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if b.Area != area || b.Quick || len(b.Entries) == 0 {
			t.Fatalf("%s: bad baseline (area=%q quick=%v entries=%d) — full-mode baselines only",
				filepath.Base(path), b.Area, b.Quick, len(b.Entries))
		}
	}
}
