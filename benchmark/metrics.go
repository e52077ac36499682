package main

import (
	"math"
	"sort"
)

// metricDef declares one reported number. The set of names here is the
// contract: BENCHMARK.json lists exactly these (checked by the test), the
// command prints exactly these, and later issues name their claims by them.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"

	// gated: an end-to-end metric the driver holds to bound (the
	// end_to_end section of BENCHMARK.json). These are defined and non-zero
	// on every workload.
	gated bool
	// bound is the relative worsening the driver allows. It compares medians
	// over runs of different seeds on a shared box, so it has to cover the
	// spread across seeds and neighbours (README, "Bounds").
	bound float64

	// absolute is extra slack, in the metric's unit, that -compare allows on
	// top of its relative bound.
	absolute float64

	// sameSeed, when set, is the tighter relative bound -compare applies
	// (the issue's): it compares two runs of one seed, where a simulated
	// metric has no spread across seeds to cover.
	sameSeed float64

	// informational: printed, never judged by -compare.
	informational bool

	// exact: deterministic on the simulated clock — two runs of one commit
	// and seed must agree to the last digit.
	exact bool
}

var catalogue = buildCatalogue()

func buildCatalogue() []metricDef {
	defs := []metricDef{
		// End to end, gated by the driver: the issue's table, as far as the
		// driver's rules allow (README, "Bounds"). bound covers the spread over
		// ten seeds on a shared box; sameSeed is the issue's own bound, which
		// -compare applies to two runs of one seed.
		{name: "sim_cyc_per_pkt", unit: "cycles", better: "lower", gated: true, bound: 0.01, exact: true},
		{name: "sim_sojourn_p50_cyc", unit: "cycles", better: "lower", gated: true, bound: 0.25, sameSeed: 0.01, exact: true},
		{name: "sim_sojourn_p99_cyc", unit: "cycles", better: "lower", gated: true, bound: 0.25, sameSeed: 0.01, exact: true},
		{name: "host_ns_per_pkt", unit: "ns", better: "lower", gated: true, bound: 0.25},
		{name: "host_sim_mips", unit: "Minstr/s", better: "higher", gated: true, bound: 0.25},
		{name: "host_allocs_per_pkt", unit: "allocs", better: "lower", gated: true, bound: 0.02, sameSeed: 0.01, absolute: 0.05},
		{name: "host_bytes_per_pkt", unit: "bytes", better: "lower", gated: true, bound: 0.02, absolute: 16},
		{name: "host_peak_heap_mb", unit: "MB", better: "lower", gated: true, bound: 0.10},
		{name: "setup_s", unit: "s", better: "lower", gated: true, bound: 0.25},

		// End to end too, but zero when all is well or defined on one workload
		// only; the driver wants every end-to-end metric non-zero on every
		// workload, so these are listed under per_layer and held by -compare.
		{name: "fail_share", unit: "ratio", better: "lower", exact: true},
		{name: "sim_lost_share", unit: "ratio", better: "lower", exact: true},
		{name: "sim_share_err_pct", unit: "%", better: "lower", absolute: 1, exact: true},
		{name: "sim_mttr_cyc", unit: "cycles", better: "lower", bound: 0.01, exact: true},
		{name: "host_recover_ms", unit: "ms", better: "lower", bound: 0.25},
		{name: "sim_sojourn_samples", unit: "count", better: "higher", exact: true},
		// The median over rounds of a whole round's wall time, the neighbours'
		// load and the collector's cycles included.
		{name: "host_round_ns_per_pkt", unit: "ns", better: "lower", informational: true},
	}
	layer := func(name, unit, better string, exact bool) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better, exact: exact})
	}
	// Traced ladder spans: self time per completed packet on both clocks.
	for n := spanName(0); n < numSpans; n++ {
		layer(spanNames[n]+".host_ns_per_pkt", "ns", "lower", false)
		if !harnessSpan[n] { // harness work charges no simulated cycles
			layer(spanNames[n]+".sim_cyc_per_pkt", "cycles", "lower", true)
		}
	}
	// Counters read at the same boundaries, per completed packet unless named otherwise.
	for _, c := range []struct{ name, unit, better string }{
		{"cpu.instr_per_pkt", "instr", "lower"},
		{"cycles.dom0_cyc_per_pkt", "cycles", "lower"},
		{"cycles.domU_cyc_per_pkt", "cycles", "lower"},
		{"cycles.xen_cyc_per_pkt", "cycles", "lower"},
		{"cycles.driver_cyc_per_pkt", "cycles", "lower"},
		{"cycles.tlb_miss_per_pkt", "count", "lower"},
		{"cycles.l1d_miss_per_pkt", "count", "lower"},
		{"cycles.l1i_miss_per_pkt", "count", "lower"},
		{"cycles.mem_access_per_pkt", "count", "lower"},
		{"cycles.hw_flush_per_pkt", "count", "lower"},
		{"xen.hypercalls_per_pkt", "count", "lower"},
		{"xen.switches_per_pkt", "count", "lower"},
		{"xen.events_per_pkt", "count", "lower"},
		{"upcall.upcalls_per_pkt", "count", "lower"},
		{"svm.gtlb_hit_rate", "ratio", "higher"},
		{"svm.gtlb_violations", "count", "lower"},
		{"core.pool_outstanding_max", "count", "lower"},
		{"core.pinned_tx_pages_max", "count", "lower"},
		{"core.staged_depth_max", "count", "lower"},
		{"core.rx_pending_max", "count", "lower"},
		{"core.posted_tx_lost", "count", "lower"},
		{"core.queue_imbalance", "ratio", "lower"},
		{"core.sched.min_guest_pkts", "count", "higher"},
		{"vswitch.local_share", "ratio", "higher"},
		{"vswitch.flood_share", "ratio", "lower"},
		{"vswitch.spoof_dropped", "count", "lower"},
		{"vswitch.rx_dropped", "count", "lower"},
		{"vswitch.learned", "count", "lower"},
		{"recovery.faults", "count", "higher"},
		{"recovery.lost_rx_per_fault", "count", "lower"},
		{"recovery.retried_tx_per_fault", "count", "lower"},
		{"recovery.skbs_reclaimed_per_fault", "count", "lower"},
		{"bench.open_loop.backlog_max", "count", "lower"},
		{"bench.open_loop.utilisation", "ratio", "higher"},
		{"bench.traced_equals_untraced", "1", "higher"},
		{"netbench.paper_err_pct", "%", "lower"},
		{"netbench.twin_over_native", "ratio", "lower"},
		{"netbench.twin_over_domU", "ratio", "lower"},
		{"netbench.baseline_match", "1", "higher"},
	} {
		layer(c.name, c.unit, c.better, true)
	}
	// Host-clock measurements of the harness itself and of single layers.
	layer("bench.trace_overhead_pct", "%", "lower", false)
	layer("bench.harness_share_pct", "%", "lower", false)
	for _, k := range kernelDefs {
		layer(k.name, k.unit, "lower", false)
	}
	return defs
}

func defByName(name string) *metricDef {
	for i := range catalogue {
		if catalogue[i].name == name {
			return &catalogue[i]
		}
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects values by catalogue name; an unknown name is a bug.
type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	d := defByName(name)
	if d == nil {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	m[name] = metric{Value: v, Unit: d.unit}
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []uint64, p float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(max(int(math.Ceil(p*float64(len(sorted))))-1, 0), len(sorted)-1)]
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// iqrShare is the distance between the first and third quartile of v as a
// share of its median (quartiles by linear interpolation, the method of
// Python's statistics.quantiles(n=4, method="inclusive")).
func iqrShare(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return ratio(q(0.75)-q(0.25), q(0.5))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
