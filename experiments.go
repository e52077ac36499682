package twindrivers

import (
	"fmt"
	"io"
	"slices"

	"twindrivers/internal/chaos"
	"twindrivers/internal/core"
	"twindrivers/internal/cost"
	"twindrivers/internal/drivermodel"
	"twindrivers/internal/netbench"
	"twindrivers/internal/netpath"
	"twindrivers/internal/recovery"
	"twindrivers/internal/report"
	"twindrivers/internal/webbench"
)

// Experiment regenerates one table or figure of the paper. A sweep is
// data — tables of configurations plus its closing notes — and measure
// runs it; the few experiments that are not tables of netbench results
// bring their own run. An area experiment owns its rows in
// bench/BENCH_<ID>.json; a configuration belongs to exactly one area
// (batch and backends are views: they print rows picked from the txpath
// and rxpath areas).
type Experiment struct {
	ID    string // "fig5" ... "fig10", "table1", "effort"
	Title string

	area   bool
	tables []table
	notes  string // closing prose; a blank line follows it
	run    func(w io.Writer, quick bool, b *report.Bench) error
}

// Run regenerates the experiment's tables on w.
func (e Experiment) Run(w io.Writer, quick bool) error { return e.measure(w, quick, nil) }

// paper-reported values, for side-by-side rendering.
var (
	paperFig5 = map[string]float64{"Linux": 4690, "dom0": 4683, "domU-twin": 3902, "domU": 1619}
	paperFig6 = map[string]float64{"Linux": 3010, "dom0": 2839, "domU-twin": 2022, "domU": 928}
	paperFig7 = map[string]float64{"Linux": 7126, "dom0": 8310, "domU-twin": 9972, "domU": 21159}
	paperFig8 = map[string]float64{"Linux": 11166, "dom0": 14308, "domU-twin": 20089, "domU": 35905}
	paperFig9 = map[string]float64{"Linux": 855, "dom0": 712, "domU-twin": 572, "domU": 269}
)

func packets(quick bool) int {
	if quick {
		return 128
	}
	return 512
}

// config is one measured configuration: the netbench runner that drives
// it and what it runs.
type config struct {
	via    func(config) (*netbench.Result, error)
	kind   netpath.Kind // stream only; the other runners are domU-twin
	dir    netbench.Direction
	guests int // 0 on stream
	prm    netbench.Params
}

// The runners: one guest's stream; every guest bursting; backlogged guests
// under budgeted service; guest 0 → guest 1.
func stream(c config) (*netbench.Result, error) { return netbench.Run(c.kind, c.dir, c.prm) }
func fanout(c config) (*netbench.Result, error) {
	return netbench.RunMultiGuest(c.dir, c.guests, c.prm)
}
func contended(c config) (*netbench.Result, error) { return netbench.RunSched(c.guests, c.prm) }
func local(c config) (*netbench.Result, error)     { return netbench.RunVswitch(c.prm) }

// table is one printed table of a sweep: its rows are measured in order,
// rendered by print under title, and after (optional) adds the lines
// derived from the results.
type table struct {
	title string
	print func(w io.Writer, title string, rows []*netbench.Result)
	rows  func(quick bool) []config
	after func(w io.Writer, rs []*netbench.Result)
}

// measure runs an experiment, filing every measured row into b when a
// bench sink is given.
func (e Experiment) measure(w io.Writer, quick bool, b *report.Bench) error {
	if e.run != nil {
		if err := e.run(w, quick, b); err != nil {
			return err
		}
	}
	for _, t := range e.tables {
		var results []*netbench.Result
		for i, c := range t.rows(quick) {
			r, err := c.via(c)
			if err != nil {
				return fmt.Errorf("%s row %d: %w", t.title, i, err)
			}
			results = append(results, r)
			if b != nil {
				b.Add(r.BenchKey(), r.CyclesPerPacket, r.Breakdown)
			}
		}
		t.print(w, t.title, results)
		if t.after != nil {
			t.after(w, results)
		}
	}
	if e.notes != "" {
		fmt.Fprintln(w, e.notes)
	}
	return nil
}

// bench starts the experiment's empty measurement set.
func (e Experiment) bench(quick bool) *report.Bench {
	return &report.Bench{Area: e.ID, Unit: "cyc/pkt", Quick: quick}
}

// The axes of the sweeps.
var (
	directions = []netbench.Direction{netbench.TX, netbench.RX}

	// schedWeights is the weight pattern of the weighted scheduler rows:
	// 4:2:1 applied cyclically over the guest list, so every third guest
	// is a heavy, middle or light tenant.
	schedWeights = []int{4, 2, 1}
)

// BatchSizes is the batch axis of the posted-path sweeps and of the batch
// view over them: 1 is the paper's per-packet path (the baseline every
// figure uses), the larger sizes amortize the boundary crossing and, on
// receive, the interrupt and notification machinery over the batch.
func BatchSizes() []int { return []int{1, 8, 32} }

// MultiGuestCounts is the guest-count sweep of the multiguest experiment:
// 1 guest is the baseline every figure uses; the larger counts share the
// NIC through per-guest transmit rings drained round-robin under one
// boundary crossing per service round. 64 and 256 are the
// hundreds-of-guests points: 256 fills the entire guest heap layout
// (xen.MaxGuests) and the receive path processes guests in NIC-ring-sized
// waves.
func MultiGuestCounts() []int { return []int{1, 2, 4, 8, 64, 256} }

// MultiGuestBatch is the per-guest frames-per-round of the sweep, sized so
// eight guests' receive rounds still fit the NIC's descriptor ring.
const MultiGuestBatch = 16

// Fig10RemovalOrder is the order in which fast-path routines are converted
// back to upcalls for the Figure 10 sweep. netif_rx stays implemented
// throughout, as in the paper's final bar.
func Fig10RemovalOrder() []string {
	return []string{
		"spin_trylock",
		"spin_unlock_irqrestore",
		"dma_unmap_single",
		"dev_kfree_skb_any",
		"dma_map_single",
		"dma_map_page",
		"netdev_alloc_skb",
		"eth_type_trans",
		"dma_unmap_page",
	}
}

// figure is a Figure 5–8 experiment: the four configurations, in figure
// order, in one direction over nNICs NICs.
func figure(id, listed, title string, dir netbench.Direction, nNICs int,
	layout report.Table[*netbench.Result], after func(io.Writer, []*netbench.Result)) Experiment {
	rows := func(quick bool) []config {
		var rows []config
		for _, kind := range netpath.Kinds() {
			rows = append(rows, config{via: stream, kind: kind, dir: dir,
				prm: netbench.Params{NumNICs: nNICs, Measure: packets(quick)}})
		}
		return rows
	}
	return Experiment{ID: id, Title: listed,
		tables: []table{{title: title, print: layout.Print, rows: rows, after: after}}}
}

// headline prints the paper's headline factors under Figures 5 and 6.
func headline(overGuest, ofNative string) func(io.Writer, []*netbench.Result) {
	return func(w io.Writer, rs []*netbench.Result) {
		domU, twin, linux := rs[0], rs[1], rs[3] // netpath.Kinds order
		fmt.Fprintf(w, "improvement over unoptimized guest: %.2fx (paper: %s)\n",
			twin.ThroughputMbps/domU.ThroughputMbps, overGuest)
		fmt.Fprintf(w, "fraction of native (CPU-scaled):    %.0f%% (paper: %s)\n\n",
			100*(twin.ThroughputMbps/twin.CPUUtil)/(linux.ThroughputMbps/linux.CPUUtil), ofNative)
	}
}

// fig10Rows removes the fast-path routines one at a time, in
// Fig10RemovalOrder: row k runs with the first k converted to upcalls.
func fig10Rows(quick bool) []config {
	removal := Fig10RemovalOrder()
	var rows []config
	for k := 0; k <= len(removal); k++ {
		sup := slices.DeleteFunc(core.DefaultHvSupport(), func(name string) bool {
			return slices.Contains(removal[:k], name)
		})
		rows = append(rows, config{via: stream, kind: netpath.Twin, dir: netbench.TX, prm: netbench.Params{
			NumNICs: cost.NumNICs, Measure: packets(quick),
			Twin: core.TwinConfig{HvSupport: sup},
		}})
	}
	return rows
}

// pathRows is the configuration list of the txpath (dir TX) or rxpath (dir
// RX) area: the domU-twin path (single NIC, the Figure 7/8 profile setup)
// per backend and batch size, the copy path against the posted one.
func pathRows(dir netbench.Direction, quick bool) []config {
	var rows []config
	for _, name := range drivermodel.Names() {
		for _, batch := range BatchSizes() {
			for _, posted := range []bool{false, true} {
				rows = append(rows, config{via: stream, kind: netpath.Twin, dir: dir, prm: netbench.Params{
					NumNICs: 1, Measure: packets(quick), Backend: name,
					Options: netpath.Options{BatchSize: batch,
						PostedTX: posted && dir == netbench.TX, PostedRX: posted && dir == netbench.RX},
				}})
			}
		}
	}
	return rows
}

// copyRows is a view over a path area: the copy-path rows of the given
// backends at the given batch sizes, backend by backend and, within one,
// direction by direction.
func copyRows(dirs []netbench.Direction, backends []string, batches ...int) func(bool) []config {
	return func(quick bool) []config {
		var picked []config
		for _, backend := range backends {
			for _, dir := range dirs {
				for _, c := range pathRows(dir, quick) {
					if c.prm.Backend == backend && !c.prm.PostedRX && !c.prm.PostedTX && slices.Contains(batches, c.prm.BatchSize) {
						picked = append(picked, c)
					}
				}
			}
		}
		return picked
	}
}

func batchTable(dir netbench.Direction) table {
	return table{
		title: fmt.Sprintf("Batch sweep: domU-twin %s cycles/packet vs batch size", dir),
		print: report.BatchSweep.Print,
		rows:  copyRows([]netbench.Direction{dir}, []string{"e1000"}, BatchSizes()...),
	}
}

func pathSweep(id, listed, title string, dir netbench.Direction, notes string) Experiment {
	return Experiment{ID: id, Title: listed, area: true, notes: notes, tables: []table{{
		title: title, print: report.PathSweep(dir).Print,
		rows: func(quick bool) []config { return pathRows(dir, quick) },
	}}}
}

// multiGuestLoad sizes the per-guest measurement for a guest count: the
// historical packet budget up to 8 guests (those bench values are pinned),
// scaled down at the large fan-outs where total volume grows with the
// guest count anyway.
func multiGuestLoad(quick bool, g int) (perGuest, warmup int) {
	perGuest, warmup = packets(quick)/2, 0 // 0 = harness default
	switch {
	case g > 64:
		perGuest, warmup = packets(quick)/16, 16
	case g > 8:
		perGuest, warmup = packets(quick)/8, 16
	}
	return max(perGuest, MultiGuestBatch), warmup
}

// vsSingle renders a cost against the single-guest (or single-queue) one.
func vsSingle(r, single float64) float64 { return 100 * (r - single) / single }

func multiGuestTable(dir netbench.Direction) table {
	return table{
		title: fmt.Sprintf("Multi-guest sweep: domU-twin %s cycles/packet vs guest count", dir),
		print: report.MultiGuestSweep.Print,
		rows: func(quick bool) []config {
			var rows []config
			for _, g := range MultiGuestCounts() {
				perGuest, warmup := multiGuestLoad(quick, g)
				rows = append(rows, config{via: fanout, dir: dir, guests: g, prm: netbench.Params{
					NumNICs: 1, Measure: perGuest, Warmup: warmup,
					Options: netpath.Options{BatchSize: MultiGuestBatch},
				}})
			}
			return rows
		},
		after: func(w io.Writer, rs []*netbench.Result) {
			single, four, last := rs[0], rs[2], rs[len(rs)-1]
			fmt.Fprintf(w, "per-guest cycles/packet at 4 guests: %.0f vs %.0f single-guest (%+.1f%%)\n",
				four.PerGuest[0].CyclesPerPacket, single.CyclesPerPacket,
				vsSingle(four.PerGuest[0].CyclesPerPacket, single.CyclesPerPacket))
			fmt.Fprintf(w, "at %d guests (full heap layout) per-guest cost is %.0f cyc/pkt (%+.1f%% vs single)\n\n",
				last.Guests, last.PerGuest[0].CyclesPerPacket,
				vsSingle(last.PerGuest[0].CyclesPerPacket, single.CyclesPerPacket))
		},
	}
}

// mqTable fixes the load of the multi-queue sweep at eight guests staging
// 32-frame bursts: enough concurrent work that the critical path is
// dominated by the slowest queue's service loop.
var mqTable = table{
	title: "Multi-queue sweep: mqnic TX critical-path cycles/packet vs queue count",
	print: report.MQSweep.Print,
	rows: func(quick bool) []config {
		var rows []config
		for _, q := range []int{1, 2, 4, 8} {
			rows = append(rows, config{via: fanout, dir: netbench.TX, guests: 8, prm: netbench.Params{
				NumNICs: 1, Measure: packets(quick) / 2, Backend: "mqnic",
				Options: netpath.Options{BatchSize: 32},
				Twin:    core.TwinConfig{Queues: q},
			}})
		}
		return rows
	},
	after: func(w io.Writer, rs []*netbench.Result) {
		one, four := rs[0], rs[2]
		fmt.Fprintf(w, "critical-path cycles/packet at 4 queues: %.0f vs %.0f single-queue (%+.1f%%)\n\n",
			four.CyclesPerPacket, one.CyclesPerPacket, vsSingle(four.CyclesPerPacket, one.CyclesPerPacket))
	},
}

// schedTables are the scheduler sweep. The scheduler rows run the contended
// transmit workload — every guest permanently backlogged, service budgeted
// per crossing — so the per-guest completion counts are the scheduler's
// share decisions: equal weights are plain round-robin, 4:2:1 weights land
// every guest within a few percent of its weight share at 8, 64 and 256
// guests, and a rate cap binds a guest below its weight. The switch rows
// compare guest→guest delivery through the dom0-side switch against the
// device hairpin on every backend.
func schedParams(quick bool) netbench.Params {
	return netbench.Params{
		NumNICs: 1, Measure: packets(quick), Warmup: packets(quick) / 4,
		Options: netpath.Options{BatchSize: MultiGuestBatch},
	}
}

var schedTables = []table{{
	title: "Weighted-fair scheduling: contended TX shares under DRR",
	print: report.SchedSweep.Print,
	rows: func(quick bool) []config {
		var rows []config
		for _, row := range []struct {
			guests         int
			weights, rates []int
		}{
			{8, nil, nil},
			{8, schedWeights, nil},
			{64, schedWeights, nil},
			{256, schedWeights, nil},
			{64, []int{8, 1}, []int{4, 0}},
		} {
			c := config{via: contended, dir: netbench.TX, guests: row.guests, prm: schedParams(quick)}
			c.prm.Twin = core.TwinConfig{Weights: row.weights, Rates: row.rates}
			rows = append(rows, c)
		}
		return rows
	},
	after: func(w io.Writer, rs []*netbench.Result) {
		fmt.Fprintf(w, "at 64 guests weighted 4:2:1, the worst guest's share deviates %.2f%%\n", rs[2].MaxShareErrPct)
		fmt.Fprintf(w, "from its weight share; equal weights are plain round-robin.\n\n")
	},
}, {
	title: "Inter-guest switch: guest-to-guest cycles/packet, switch vs device hairpin",
	print: func(w io.Writer, title string, rs []*netbench.Result) {
		var pairs [][2]*netbench.Result
		for i := 0; i < len(rs); i += 2 {
			pairs = append(pairs, [2]*netbench.Result{rs[i], rs[i+1]})
		}
		report.VswitchCompare.Print(w, title, pairs)
	},
	rows: func(quick bool) []config {
		var rows []config
		for _, name := range drivermodel.Names() {
			for _, switched := range []bool{true, false} {
				c := config{via: local, dir: netbench.Local, guests: 2, prm: schedParams(quick)}
				c.prm.Backend, c.prm.Twin.Switch = name, switched
				rows = append(rows, c)
			}
		}
		return rows
	},
}}

// recoveryGuestCounts is the guest-count sweep of the recovery experiment.
// It stops at 8: recovery cost is per-fault, not per-guest, so the 64/256
// rows of the multiguest sweep would re-measure the same abort at great
// expense — and keeping the sweep fixed keeps BENCH_recovery.json pinned.
func recoveryGuestCounts(quick bool) []int {
	if quick {
		return []int{1, 2}
	}
	return []int{1, 2, 4, 8}
}

// recoveryKey files one phase ("pre", "post") of a recovery row.
func recoveryKey(fault string, guests int, phase string) string {
	return fmt.Sprintf("recovery/%s/guests=%d/%s", fault, guests, phase)
}

// runRecoverySweep measures transparent driver recovery end to end: each
// §4.5 fault type is injected while 1/2/4/8 guests move traffic; the
// supervisor re-derives and restarts the instance in-line, and the table
// reports MTTR in cycles, the packets lost or re-staged, and the fault-free
// cycles/packet before vs after recovery.
func runRecoverySweep(w io.Writer, quick bool, b *report.Bench) error {
	perGuest := 64
	if quick {
		perGuest = 32
	}
	var rows []*recovery.Measurement
	for _, inj := range recovery.Injectors() {
		for _, g := range recoveryGuestCounts(quick) {
			row, err := netbench.RunRecovery(inj, g, perGuest)
			if err != nil {
				return fmt.Errorf("recovery %s guests=%d: %w", inj.Name, g, err)
			}
			rows = append(rows, row)
			if b != nil {
				b.Add(recoveryKey(row.Fault, row.Guests, "pre"), row.PreCPP, nil)
				b.Add(recoveryKey(row.Fault, row.Guests, "post"), row.PostCPP, nil)
			}
		}
	}
	report.RecoverySweep(w, rows)
	return nil
}

// runSoak runs the seeded chaos soak (internal/chaos) on every registered
// backend: mixed transmit/receive traffic across four guests (copy and
// posted receive paths alternating), hostile attacks from the
// attack-surface matrix, and containment faults with supervised recovery,
// with the exactly-once accounting and abort-hygiene invariants asserted
// at every step. The rendered ledgers balance exactly; the digest replays
// byte-identically from the seed. Then the same soak with the weighted-fair
// scheduler and the inter-guest switch engaged: weights change service
// order, never accounting, so the identical invariants hold with 4:2:1 DRR
// shares and the switch-mac-spoof surface live.
func runSoak(w io.Writer, quick bool, _ *report.Bench) error {
	cfg := chaos.Config{Seed: 0xC4A05, Guests: 4, Steps: 240, Hostile: true, Faults: true}
	if quick {
		cfg.Steps = 80
	}
	for _, variant := range []struct {
		title, notes string
		weights      []int
		switched     bool
	}{
		{title: "Chaos soak: seeded hostile multi-guest run, exactly-once ledgers",
			notes: `every ledger row balances exactly: offeredTx == wireTx + lostTx and
offeredRx == delivered + lostRx, per guest, with hostile descriptors,
ring scribbles and injected driver faults running concurrently; every
abort leaves zero pooled buffers outstanding and empty guest TLBs.
`},
		{title: "Chaos soak under DRR weights 4:2:1 + inter-guest switch", weights: schedWeights, switched: true,
			notes: `the same invariants hold with weighted-fair service and the L2 switch
engaged: scheduling weights reorder service, they never change whether
a frame is accounted, and spoofed source MACs die at the port binding.
`},
	} {
		var reports []*chaos.Report
		for _, backend := range drivermodel.Names() {
			cfg.Backend, cfg.Weights, cfg.Switch = backend, variant.weights, variant.switched
			rep, err := chaos.Run(cfg)
			if err != nil {
				return fmt.Errorf("soak %s (%s): %w", backend, variant.title, err)
			}
			reports = append(reports, rep)
		}
		report.Soak(w, variant.title, reports)
		fmt.Fprintln(w, variant.notes)
	}
	return nil
}

func runFig9(w io.Writer, quick bool, _ *report.Bench) error {
	var prm webbench.Params
	if quick {
		prm = webbench.Params{Measure: 96, Step: 2000}
	}
	curves, err := webbench.RunAll(prm)
	if err != nil {
		return err
	}
	report.WebCurves(w, curves, paperFig9)
	return nil
}

func runTable1(w io.Writer, quick bool, _ *report.Bench) error {
	t, err := netbench.RunTable1(packets(quick) / 2)
	if err != nil {
		return err
	}
	report.Table1(w, t)
	return nil
}

func runEffort(w io.Writer, _ bool, _ *report.Bench) error {
	_, tw, err := core.NewTwinMachine(1, 1, core.TwinConfig{})
	if err != nil {
		return err
	}
	kv := map[string]string{
		"hypervisor support routines": fmt.Sprintf("%d (paper: 10)", len(core.DefaultHvSupport())),
		"hypervisor support code":     fmt.Sprintf("%d lines of commented Go (paper: 851 lines of C)", core.HvSupportLines()),
		"driver instructions":         fmt.Sprintf("%d -> %d after rewriting (x%.2f)", tw.RewriteStats.InputInsts, tw.RewriteStats.OutputInsts, float64(tw.RewriteStats.OutputInsts)/float64(tw.RewriteStats.InputInsts)),
		"memory-referencing fraction": fmt.Sprintf("%.1f%% of driver instructions (paper: ~25%%)", 100*tw.RewriteStats.MemRefFraction()),
		"rewrite detail":              tw.RewriteStats.String(),
		"kernel support symbol table": fmt.Sprintf("%d routines reused via dom0 (the engineering the upcalls avoid)", len(tw.M.K.SymbolNames())),
	}
	report.KeyValue(w, "Section 6.5: engineering effort", kv)
	return nil
}

// experiments is the evaluation, in paper order: the one table every
// listing, runner and bench collector reads.
var experiments = []Experiment{
	{ID: "table1", Title: "Table 1: fast-path support routines", run: runTable1},
	figure("fig5", "Figure 5: transmit throughput (netperf, 5 NICs)", "Figure 5: transmit performance (netperf)",
		netbench.TX, cost.NumNICs, report.Throughput(paperFig5), headline("2.41x", "64%")),
	figure("fig6", "Figure 6: receive throughput (netperf, 5 NICs)", "Figure 6: receive performance (netperf)",
		netbench.RX, cost.NumNICs, report.Throughput(paperFig6), headline("2.17x", "67%")),
	figure("fig7", "Figure 7: transmit cycles/packet breakdown", "Figure 7: CPU cycles per packet, transmit",
		netbench.TX, 1, report.Breakdown(paperFig7), nil),
	figure("fig8", "Figure 8: receive cycles/packet breakdown", "Figure 8: CPU cycles per packet, receive",
		netbench.RX, 1, report.Breakdown(paperFig8), nil),
	{ID: "fig9", Title: "Figure 9: web server workload", run: runFig9},
	{ID: "fig10", Title: "Figure 10: cost of upcalls",
		tables: []table{{title: "Figure 10: transmit throughput vs upcalls per driver invocation",
			print: report.UpcallSweep.Print, rows: fig10Rows}},
		notes: `paper: 0 upcalls -> 3902 Mb/s; 1 upcall -> 1638 Mb/s; all-but-netif_rx -> 359 Mb/s
(our transmit-only stream exercises the TX-path subset of the ten routines;
 the collapse shape — halving at the first upcall — is the reproduced claim)
`},
	// The domU-twin path at each batch size in both directions, showing
	// where the amortization lands in the four-bucket attribution: the
	// e1000 copy-path rows of the txpath and rxpath areas.
	{ID: "batch", Title: "Batch sweep: batched hypercall I/O (beyond the paper)",
		tables: []table{batchTable(netbench.TX), batchTable(netbench.RX)},
		notes: `batch=1 is the per-packet hypercall path of Figures 7/8 (unchanged);
larger batches amortize the hypercall (TX) and the interrupt +
notification machinery (RX) across the shared descriptor ring.
`},
	// The headline of the fan-out: per-guest cycles/packet stays
	// essentially flat as guests multiply, because the ring-service
	// fan-out amortizes the boundary crossing across guests.
	{ID: "multiguest", Title: "Multi-guest sweep: per-guest rings + round-robin service (beyond the paper)",
		area: true, tables: []table{multiGuestTable(netbench.TX), multiGuestTable(netbench.RX)},
		notes: fmt.Sprintf(`each guest stages %d-frame bursts in its own transmit ring; one
ServiceRings crossing drains all guests round-robin, so the hypercall
amortizes across guests (hc/pkt falls as 1/guests) and per-guest cost
stays flat — the fan-out the paper's in-context execution enables.
`, MultiGuestBatch)},
	{ID: "recovery", Title: "Recovery sweep: transparent driver restart, MTTR + loss (beyond the paper)",
		area: true, run: runRecoverySweep,
		notes: `MTTR covers re-derivation, image layout and configuration replay
(probe, open with IRQ re-registration and RX refill, ring re-attach).
Transmit frames are never lost — staged frames the dead instance
discarded are re-staged (retried-tx); receive frames the NIC had
consumed die with the device reset (lost-rx, bounded by one burst).
The fault-free hot path is byte-identical with the supervisor attached
(netbench's TestRecoveryHotPathUnchanged pins exact cycle equality).
`},
	// Every registered NIC backend, both directions, per-packet and
	// batched: the same derivation pipeline, containment machinery and
	// harness run whichever driver the model carries, and the table shows
	// what each device's geometry costs. The copy-path batch 1 and 32 rows
	// of the txpath and rxpath areas.
	{ID: "backends", Title: "Backend sweep: every NIC driver model through the same pipeline (beyond the paper)",
		tables: []table{{title: "Backend sweep: domU-twin cycles/packet per NIC driver model",
			print: report.BackendSweep.Print, rows: copyRows(directions, drivermodel.Names(), 1, 32)}},
		notes: `every backend is derived by the same rewrite pipeline and passes the
same conformance suite; the cost difference is the device geometry —
the rtl8139 copies whole frames into its four staging slots and out of
its receive byte ring, where the e1000 chains guest pages zero-copy.
`},
	// Posting trades the paravirtual driver's copy-out of every frame for
	// a per-packet guest-TLB translation in the hypervisor; the posted rows
	// land strictly below their copy-mode counterparts on every backend.
	pathSweep("rxpath", "RX-path sweep: posted guest buffers vs copy-mode delivery (beyond the paper)",
		"RX-path sweep: posted guest buffers vs copy-mode delivery", netbench.RX,
		`copy mode queues every frame in a pooled dom0 sk_buff, copies it into
the shared delivery region, and the guest pv driver copies it out again;
posted mode copies once, straight into the guest-posted buffer, with the
guest address resolved through the per-guest software TLB (invalidated
on abort/revive). Copy mode stays the default: batch=1 cycle identity
and the recovery hot-path equality tests pin it unchanged.
`),
	// Posting trades the guest's per-byte staging copy for a fixed
	// descriptor post, the hypervisor resolving each frame through the
	// guest TLB and pinning its pages for the device.
	pathSweep("txpath", "TX-path sweep: posted scatter/gather descriptors vs staging-copy transmit (beyond the paper)",
		"TX-path sweep: posted scatter/gather descriptors vs staging-copy transmit", netbench.TX,
		`copy mode stages every frame into the guest's shared transmit ring (a
per-byte kernel copy) before the hypervisor driver picks it up; posted
mode leaves the frame in guest memory and posts only its (addr,len)
descriptor — snapshotted once, validated through the per-guest software
TLB, the frames' pages pinned until TX completion (released on abort).
Copy mode stays the default: batch=1 cycle identity and the recovery
hot-path equality tests pin it unchanged.
`),
	// Guests shard across the queues by RSS hash of their transmit flow,
	// each queue runs its own metered service loop, and the reported
	// cycles/packet is the critical path — shared work plus the slowest
	// queue — so the cost falls as the same guest population spreads over
	// more queues.
	{ID: "mq", Title: "Multi-queue sweep: per-queue service loops + RSS steering (beyond the paper)",
		area: true, tables: []table{mqTable},
		notes: `guests shard across queues by RSS flow hash; every queue owns its own
descriptor rings, service loop and cycle meter (shared-nothing), so the
per-round wall clock is the slowest queue, not the sum of all guests.
`},
	{ID: "sched", Title: "Scheduler sweep: weighted-fair DRR shares + inter-guest switch (beyond the paper)",
		area: true, tables: schedTables,
		notes: `switched frames are classified and copied dom0-side (MAC table lookup +
per-frame forward) and never touch the device; the hairpin pays the
full transmit, wire, interrupt and receive-demux path for each frame.
`},
	{ID: "soak", Title: "Chaos soak: seeded hostile multi-guest run + attack matrix (beyond the paper)", run: runSoak},
	{ID: "effort", Title: "Section 6.5: engineering effort", run: runEffort},
}

// Experiments lists every reproducible table/figure, in paper order.
func Experiments() []Experiment { return slices.Clone(experiments) }

// BenchAreas lists the sweep experiments that emit a machine-readable
// BENCH_<area>.json measurement set alongside their tables.
func BenchAreas() []string {
	var areas []string
	for _, e := range experiments {
		if e.area {
			areas = append(areas, e.ID)
		}
	}
	return areas
}

// CollectBench runs one bench-emitting sweep and returns its measurement
// set; the human-readable tables go to w (io.Discard when only the
// numbers matter, as in the bench gate).
func CollectBench(w io.Writer, area string, quick bool) (*report.Bench, error) {
	for _, e := range experiments {
		if e.area && e.ID == area {
			b := e.bench(quick)
			return b, e.measure(w, quick, b)
		}
	}
	return nil, fmt.Errorf("no bench emission for experiment %q (have %v)", area, BenchAreas())
}

// RunExperimentBench runs experiments like RunExperiment and, given a
// directory, additionally writes BENCH_<area>.json into it for every
// bench-emitting sweep the id covers.
func RunExperimentBench(w io.Writer, id string, quick bool, dir string) error {
	var ids []string
	for _, e := range experiments {
		ids = append(ids, e.ID)
	}
	if id != "all" && !slices.Contains(ids, id) {
		return fmt.Errorf("unknown experiment %q (have %v and \"all\")", id, ids)
	}
	for _, e := range experiments {
		if id != "all" && id != e.ID {
			continue
		}
		var b *report.Bench
		if e.area && dir != "" {
			b = e.bench(quick)
		}
		err := e.measure(w, quick, b)
		if err == nil && b != nil {
			err = b.WriteFile(dir)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// RunExperiment runs one experiment by ID ("all" runs everything).
func RunExperiment(w io.Writer, id string, quick bool) error {
	return RunExperimentBench(w, id, quick, "")
}
