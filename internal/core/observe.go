package core

import (
	"fmt"

	"twindrivers/internal/cpu"
	"twindrivers/internal/cycles"
	"twindrivers/internal/mem"
	"twindrivers/internal/telemetry"
)

// Observability surface of the twin: the closure-backed gauges a
// telemetry.Registry snapshots on demand, and the per-guest TLB
// counters the posted-RX tests assert against. Nothing here runs on
// the hot path — registration happens once at machine construction,
// and every closure reads state the runtime already maintains.

// GuestTLBStats reports a guest's posted-path translation-cache
// counters: hits (24-cycle lookups) and misses (260-cycle page walks).
// The split is load-bearing for the posted-RX win, so it is exposed
// directly rather than inferred from cycle totals.
func (t *Twin) GuestTLBStats(dom mem.Owner) (hits, misses uint64) {
	if g, ok := t.guestIO[dom]; ok {
		return g.gtlb.Hits, g.gtlb.Misses
	}
	return 0, 0
}

// metricFaultKinds are the classified fault kinds the faults-by-kind
// gauge enumerates (every kind abort can record).
var metricFaultKinds = []cpu.FaultKind{
	cpu.FaultPage, cpu.FaultProtection, cpu.FaultPrivileged,
	cpu.FaultInvalidOp, cpu.FaultBadCall, cpu.FaultBadFetch,
	cpu.FaultDivide, cpu.FaultWatchdog, cpu.FaultShadowStack,
	cpu.FaultStackGuard,
}

// PublishMetrics registers this twin's gauges with a telemetry
// registry: pool occupancy, hypervisor boundary-crossing counters,
// fault counts by kind, per-guest ring/TLB state, and per-queue cycle
// and steering distribution. A machine built while a telemetry session
// is active publishes automatically; harnesses with their own registry
// call it directly. Every gauge is a closure over live state, so one
// registration serves the whole run.
func (t *Twin) PublishMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	base := map[string]string{
		"backend": t.M.Model.Name,
		"twin":    fmt.Sprintf("%d", reg.NextInstance()),
	}
	labels := func(extra ...string) map[string]string {
		m := make(map[string]string, len(base)+len(extra)/2)
		for k, v := range base {
			m[k] = v
		}
		for i := 0; i+1 < len(extra); i += 2 {
			m[extra[i]] = extra[i+1]
		}
		return m
	}
	gauge := func(name string, l map[string]string, read func() float64) {
		reg.Register(name, l, read)
	}

	gauge("twin_pool_free", labels(), func() float64 { return float64(t.PoolFree()) })
	gauge("twin_pool_outstanding", labels(), func() float64 { return float64(t.PoolOutstanding()) })
	gauge("twin_pool_capacity", labels(), func() float64 { return float64(t.PoolCapacity()) })
	gauge("twin_faults_total", labels(), func() float64 { return float64(t.Faults) })
	gauge("twin_dead", labels(), func() float64 {
		if t.Dead {
			return 1
		}
		return 0
	})
	gauge("hv_hypercalls_total", labels(), func() float64 { return float64(t.M.HV.Hypercalls) })
	gauge("hv_switches_total", labels(), func() float64 { return float64(t.M.HV.Switches) })
	gauge("hv_upcalls_total", labels(), func() float64 { return float64(t.UpcallsPerformed()) })

	for _, kind := range metricFaultKinds {
		kind := kind
		gauge("twin_faults_by_kind", labels("kind", kind.String()), func() float64 {
			n := 0
			for _, r := range t.FaultLog() {
				if r.Kind == kind {
					n++
				}
			}
			return float64(n)
		})
	}

	for _, id := range t.guestOrder {
		id := id
		g := t.guestIO[id]
		gl := labels("guest", fmt.Sprintf("%d", id))
		gauge("twin_tx_staged", gl, func() float64 {
			n, _ := t.StagedTx(id)
			return float64(n)
		})
		gauge("twin_rx_pending", gl, func() float64 { return float64(t.PendingRx(id)) })
		gauge("twin_queue", gl, func() float64 { return float64(t.QueueOf(id)) })
		gauge("gtlb_hits_total", gl, func() float64 { return float64(g.gtlb.Hits) })
		gauge("gtlb_misses_total", gl, func() float64 { return float64(g.gtlb.Misses) })
		gauge("gtlb_violations_total", gl, func() float64 { return float64(g.gtlb.Violations) })
		gauge("gtlb_cached_entries", gl, func() float64 { return float64(g.gtlb.Cached()) })
		gauge("gtlb_hit_rate", gl, func() float64 {
			total := g.gtlb.Hits + g.gtlb.Misses
			if total == 0 {
				return 0
			}
			return float64(g.gtlb.Hits) / float64(total)
		})
	}

	for q := 0; q < t.nQueues; q++ {
		q := q
		ql := labels("queue", fmt.Sprintf("%d", q))
		gauge("queue_guests", ql, func() float64 { return float64(len(t.queueGuests[q])) })
		for _, comp := range []cycles.Component{
			cycles.CompDom0, cycles.CompDomU, cycles.CompXen, cycles.CompDriver,
		} {
			comp := comp
			gauge("queue_cycles_total", labels("queue", fmt.Sprintf("%d", q), "component", comp.String()),
				func() float64 { return float64(t.queueMeters[q].Get(comp)) })
		}
	}
}
