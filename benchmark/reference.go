package main

import (
	"twindrivers/internal/netbench"
	"twindrivers/internal/netpath"
	"twindrivers/internal/report"
)

// Figures 7 and 8 of the paper: cycles per packet of the domU-twin bar.
const (
	paperFig7TwinTx = 9972.0
	paperFig8TwinRx = 20089.0
)

// reference fills the informational netbench.* numbers. The cost model is
// validated against the paper, so the two paper workloads print their
// error against it beside the number, the twin's cost relative to the
// native and unoptimized-guest configurations, and whether a standard
// 64+512-packet netbench.Run still reproduces the committed
// bench/BENCH_*.json anchor row exactly (read-only: this benchmark never
// writes under bench/). Other workloads report zeros.
func reference(m metrics, c *config, simCycPerPkt float64) {
	names := []string{"netbench.paper_err_pct", "netbench.twin_over_native", "netbench.twin_over_domU", "netbench.baseline_match"}
	for _, n := range names {
		m.set(n, 0)
	}
	var dir netbench.Direction
	var paper float64
	var area, key string
	switch c.name {
	case "tx_paper":
		dir, paper, area, key = netbench.TX, paperFig7TwinTx, "txpath", "e1000/tx/batch=1"
	case "rx_paper":
		dir, paper, area, key = netbench.RX, paperFig8TwinRx, "rxpath", "e1000/rx/batch=1"
	default:
		return
	}
	m.set("netbench.paper_err_pct", 100*(simCycPerPkt-paper)/paper)
	twin, err := netbench.Run(netpath.Twin, dir, netbench.Params{})
	if err != nil {
		return
	}
	if native, err := netbench.Run(netpath.Linux, dir, netbench.Params{}); err == nil {
		m.set("netbench.twin_over_native", ratio(twin.CyclesPerPacket, native.CyclesPerPacket))
	}
	if domU, err := netbench.Run(netpath.DomU, dir, netbench.Params{}); err == nil {
		m.set("netbench.twin_over_domU", ratio(twin.CyclesPerPacket, domU.CyclesPerPacket))
	}
	if base, err := report.LoadBench(report.BenchPath("bench", area)); err == nil {
		if e, ok := base.Lookup(key); ok && e.CyclesPerPacket == twin.CyclesPerPacket {
			m.set("netbench.baseline_match", 1)
		}
	}
}
