package twindrivers

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"twindrivers/internal/drivermodel"
	"twindrivers/internal/netbench"
	"twindrivers/internal/recovery"
	"twindrivers/internal/report"
)

func experimentByID(t *testing.T, id string) Experiment {
	t.Helper()
	for _, e := range experiments {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("no experiment %q", id)
	return Experiment{}
}

// specKey derives a configuration's bench key without measuring it: the
// defaults netbench applies, and the queue count core clamps to the model.
func specKey(t *testing.T, c config) string {
	t.Helper()
	prm := c.prm
	if prm.Backend == "" {
		prm.Backend = "e1000"
	}
	if prm.BatchSize == 0 {
		prm.BatchSize = 1
	}
	model, ok := drivermodel.Get(prm.Backend)
	if !ok {
		t.Fatalf("unknown backend %q", prm.Backend)
	}
	queues := max(model.Queues, 1)
	if q := prm.Twin.Queues; q > 0 && q < queues {
		queues = q
	}
	return (&netbench.Result{Params: prm, Direction: c.dir, Guests: c.guests, Queues: queues}).BenchKey()
}

// TestBenchKeysReproduceCommittedFiles: the mechanical key derivation,
// applied to the full-mode row list of every bench area, reproduces the
// key set of the committed bench/BENCH_<area>.json exactly — no key lost,
// none invented, none filed twice — and the two anchors
// benchmark/reference.go reads are where it looks for them.
func TestBenchKeysReproduceCommittedFiles(t *testing.T) {
	total := 0
	for _, area := range BenchAreas() {
		var want []string
		if e := experimentByID(t, area); area == "recovery" {
			for _, inj := range recovery.Injectors() {
				for _, g := range recoveryGuestCounts(false) {
					want = append(want, recoveryKey(inj.Name, g, "pre"), recoveryKey(inj.Name, g, "post"))
				}
			}
		} else {
			for _, tb := range e.tables {
				for _, c := range tb.rows(false) {
					want = append(want, specKey(t, c))
				}
			}
		}
		base, err := report.LoadBench(report.BenchPath("bench", area))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range base.Entries {
			got = append(got, e.Config)
		}
		sort.Strings(want)
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s: committed keys\n %v\nderived keys\n %v", area, got, want)
		}
		total += len(got)
	}
	if total != 87 {
		t.Errorf("the gate holds %d rows, want 87", total)
	}
	for area, key := range map[string]string{"txpath": "e1000/tx/batch=1", "rxpath": "e1000/rx/batch=1"} {
		base, err := report.LoadBench(report.BenchPath("bench", area))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := base.Lookup(key); !ok {
			t.Errorf("benchmark/reference.go's anchor %s is missing from BENCH_%s.json", key, area)
		}
	}
}

// TestViewRowsBelongToTheirAreas: batch and backends file nothing of their
// own — every row they print is, configuration for configuration, a row of
// the txpath or rxpath area, so it measures to that row's number. The 18
// rows of the deleted BENCH_batch.json and BENCH_backends.json were
// re-measurements of these; each is pinned here against the row that
// survives it.
func TestViewRowsBelongToTheirAreas(t *testing.T) {
	owned := map[string]config{}
	committed := map[string]float64{}
	for _, area := range []string{"txpath", "rxpath"} {
		for _, tb := range experimentByID(t, area).tables {
			for _, c := range tb.rows(false) {
				owned[specKey(t, c)] = c
			}
		}
		base, err := report.LoadBench(report.BenchPath("bench", area))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range base.Entries {
			committed[e.Config] = e.CyclesPerPacket
		}
	}
	rows := map[string]int{}
	for _, view := range []string{"batch", "backends"} {
		e := experimentByID(t, view)
		if e.area {
			t.Errorf("%s is a bench area: its rows would be filed twice", view)
		}
		for _, tb := range e.tables {
			for _, c := range tb.rows(false) {
				rows[view]++
				if o := owned[specKey(t, c)]; o.via == nil || !reflect.DeepEqual(o.prm, c.prm) || o.kind != c.kind || o.dir != c.dir ||
					o.guests != c.guests || reflect.ValueOf(o.via).Pointer() != reflect.ValueOf(c.via).Pointer() {
					t.Errorf("%s row %s is not a row of the %v path area", view, specKey(t, c), c.dir)
				}
			}
		}
	}
	deleted := []struct {
		file, key string
		cpp       float64
	}{
		{"batch", "e1000/rx/batch=1", 18823.171875},
		{"batch", "e1000/rx/batch=32", 17323.0703125},
		{"batch", "e1000/rx/batch=8", 17417.3046875},
		{"batch", "e1000/tx/batch=1", 9781.875},
		{"batch", "e1000/tx/batch=32", 9471.875},
		{"batch", "e1000/tx/batch=8", 9501.875},
		{"backends", "e1000/rx/batch=1", 18823.171875},
		{"backends", "e1000/rx/batch=32", 17323.0703125},
		{"backends", "e1000/tx/batch=1", 9781.875},
		{"backends", "e1000/tx/batch=32", 9471.875},
		{"backends", "mqnic/rx/batch=1/q8", 19252.18359375},
		{"backends", "mqnic/rx/batch=32/q8", 17508.26953125},
		{"backends", "mqnic/tx/batch=1/q8", 9759},
		{"backends", "mqnic/tx/batch=32/q8", 9449},
		{"backends", "rtl8139/rx/batch=1", 25527.5078125},
		{"backends", "rtl8139/rx/batch=32", 24980.390625},
		{"backends", "rtl8139/tx/batch=1", 33068.5},
		{"backends", "rtl8139/tx/batch=32", 32758.5},
	}
	for _, d := range deleted {
		rows[d.file]--
		if got, ok := committed[d.key]; !ok || got != d.cpp {
			t.Errorf("BENCH_%s.json carried %s = %v; the path areas commit %v", d.file, d.key, d.cpp, got)
		}
	}
	for view, n := range rows {
		if n != 0 {
			t.Errorf("%s prints %+d rows more than the file it replaces carried", view, n)
		}
	}
}
