// Package report renders the reproduced tables and figures as text: the
// bar values of Figures 5-8 and 10 and every sweep as aligned tables (one
// renderer, Table.Print, over per-table column layouts), the Figure 9
// series as an ASCII chart, and Table 1 as the paper prints it.
package report

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"twindrivers/internal/cycles"
	"twindrivers/internal/netbench"
	"twindrivers/internal/recovery"
	"twindrivers/internal/webbench"
)

// Table is a column layout over rows of type T: every cycles/packet table
// of the evaluation (Figures 5–8 and 10, the sweeps) is one of these, and
// Print is the one renderer. Adding a column to a table is adding a col to
// its layout.
type Table[T any] []col[T]

// col is one column: its header, its width (negative = left-aligned) and
// the cell text of a row.
type col[T any] struct {
	head  string
	width int
	cell  func(T) string
}

// Print renders the title, its underline, the header row, one line per
// row and a closing blank line.
func (t Table[T]) Print(w io.Writer, title string, rows []T) {
	t.print(w, title, rows)
	fmt.Fprintln(w)
}

func (t Table[T]) print(w io.Writer, title string, rows []T) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	line := func(cell func(col[T]) string) {
		cells := make([]string, len(t))
		for i, c := range t {
			cells[i] = fmt.Sprintf("%*s", c.width, cell(c))
		}
		fmt.Fprintln(w, strings.Join(cells, " "))
	}
	line(func(c col[T]) string { return c.head })
	for _, r := range rows {
		line(func(c col[T]) string { return c.cell(r) })
	}
}

// text and num are one-column layouts, of a string and of a formatted
// number; cat joins layouts.
func text[T any](head string, width int, cell func(T) string) Table[T] {
	return Table[T]{{head, width, cell}}
}

func num[T, N any](head string, width int, format string, val func(T) N) Table[T] {
	return text(head, width, func(r T) string { return fmt.Sprintf(format, val(r)) })
}

func cat[T any](parts ...Table[T]) Table[T] {
	var t Table[T]
	for _, p := range parts {
		t = append(t, p...)
	}
	return t
}

// The column vocabulary of the netbench.Result tables.
type result = *netbench.Result

var (
	config     = text("config", -12, resultConfig)
	backend    = text("backend", -10, func(r result) string { return r.Backend })
	batch      = num("batch", 6, "%d", func(r result) int { return r.BatchSize })
	guests     = num("guests", 7, "%d", func(r result) int { return r.Guests })
	throughput = num("throughput", 14, "%.0f Mb/s", func(r result) float64 { return r.ThroughputMbps })
)

func cycPkt(width int) Table[result] {
	return num("cyc/pkt", width, "%.0f", func(r result) float64 { return r.CyclesPerPacket })
}

func hcPkt(format string) Table[result] {
	return num("hc/pkt", 8, format, func(r result) float64 { return r.HypercallsPerPacket })
}

func swPkt(width int, format string) Table[result] {
	return num("sw/pkt", width, format, func(r result) float64 { return r.SwitchesPerPacket })
}

// buckets is the four-bucket attribution of Figures 7/8; driver heads the
// derived-driver bucket ("e1000" where the table is about that backend).
func buckets(driver string) Table[result] {
	bucket := func(head string, c cycles.Component) Table[result] {
		return num(head, 8, "%.0f", func(r result) float64 { return r.Breakdown[c] })
	}
	return cat(bucket("dom0", cycles.CompDom0), bucket("domU", cycles.CompDomU),
		bucket("Xen", cycles.CompXen), bucket(driver, cycles.CompDriver))
}

// paperCol is the paper's own number for the row's configuration.
func paperCol[T any](head string, width int, format string, paper map[string]float64, name func(T) string) Table[T] {
	return text(head, width, func(r T) string {
		if v, ok := paper[name(r)]; ok {
			return fmt.Sprintf(format, v)
		}
		return "-"
	})
}

// guestSpread is the least and the greatest of a per-guest value.
func guestSpread(r result, val func(netbench.GuestStat) float64) (lo, hi float64) {
	if len(r.PerGuest) == 0 {
		return 0, 0
	}
	by := func(a, b netbench.GuestStat) int { return cmp.Compare(val(a), val(b)) }
	return val(slices.MinFunc(r.PerGuest, by)), val(slices.MaxFunc(r.PerGuest, by))
}

func guestCycPkt(g netbench.GuestStat) float64 { return g.CyclesPerPacket }

// pktsPerGuest is the per-guest packet spread, "min-max" when uneven.
func pktsPerGuest(width int) Table[result] {
	return text("pkts/guest", width, func(r result) string {
		lo, hi := guestSpread(r, func(g netbench.GuestStat) float64 { return float64(g.Packets) })
		if lo == hi {
			return fmt.Sprintf("%.0f", lo)
		}
		return fmt.Sprintf("%.0f-%.0f", lo, hi)
	})
}

func resultConfig(r result) string { return r.Config }

// Throughput is the Figure 5/6 table.
func Throughput(paper map[string]float64) Table[result] {
	return cat(config, throughput,
		num("CPU", 8, "%.0f%%", func(r result) float64 { return 100 * r.CPUUtil }),
		paperCol("paper", 14, "%8.0f Mb/s", paper, resultConfig))
}

// Breakdown is the Figure 7/8 cycles-per-packet table with the four
// attribution buckets.
func Breakdown(paper map[string]float64) Table[result] {
	return cat(config, cycPkt(9), buckets("e1000"), paperCol("paper", 9, "%.0f", paper, resultConfig))
}

// PathSweep is the posted-path table of one direction: per backend and
// batch size, the domU-twin cycles/packet of the copy path next to the
// posted path. The posted rows trade a guest-side copy (domU bucket) for a
// per-packet guest-TLB lookup (Xen bucket) — the net is the win.
func PathSweep(dir netbench.Direction) Table[result] {
	head := map[netbench.Direction]string{netbench.TX: "tx-path", netbench.RX: "rx-path"}[dir]
	return cat(backend, batch, text(head, -7, func(r result) string {
		if r.PostedRX || r.PostedTX {
			return "posted"
		}
		return "copy"
	}), cycPkt(9), buckets("driver"), throughput)
}

// The other sweep tables.
var (
	// UpcallSweep is Figure 10: transmit throughput as a function of the
	// number of upcalls per driver invocation.
	UpcallSweep = cat(
		num("upcalls", 8, "%.0f", func(r result) float64 { return r.UpcallsPerPacket }),
		throughput, cycPkt(10), swPkt(10, "%.1f"))

	// BatchSweep is the batched-hypercall sweep: domU-twin cycles/packet
	// and transition rates as a function of the batch size.
	BatchSweep = cat(batch, cycPkt(9), buckets("e1000"), hcPkt("%.2f"), swPkt(8, "%.2f"), throughput)

	// MultiGuestSweep is the fan-out sweep: aggregate and per-guest
	// cycles/packet, the fairness spread, and the transition rates as a
	// function of the guest count.
	MultiGuestSweep = cat(guests, cycPkt(9),
		num("guest-min", 9, "%.0f", func(r result) float64 { lo, _ := guestSpread(r, guestCycPkt); return lo }),
		num("guest-max", 9, "%.0f", func(r result) float64 { _, hi := guestSpread(r, guestCycPkt); return hi }),
		pktsPerGuest(12), hcPkt("%.3f"), swPkt(8, "%.3f"), throughput)

	// MQSweep is the multi-queue sweep: critical-path cycles/packet —
	// the shared work plus the slowest queue's service loop — as a
	// function of the service-queue count, beside the total work.
	MQSweep = cat(num("queues", 7, "%d", func(r result) int { return r.Queues }),
		guests, cycPkt(9), buckets("driver"), throughput)

	// BackendSweep is the multi-backend comparison: the same derivation
	// pipeline and harness per NIC driver model, direction and batch size
	// (the driver bucket is whichever backend's derived code ran).
	BackendSweep = cat(backend,
		text("direction", 9, func(r result) string { return r.Direction.String() }),
		batch, cycPkt(9), buckets("driver"), hcPkt("%.3f"), throughput)

	// SchedSweep is the weighted-fair scheduling sweep: contended transmit
	// cycles/packet, the worst deviation of any guest's measured share
	// from its weight share — the scheduler's contract — and the
	// per-guest packet spread the weights cause.
	SchedSweep = cat(guests,
		text("sched", -16, func(r result) string { return r.SchedSpec() }), cycPkt(9),
		text("share-err", 10, func(r result) string {
			if len(r.Twin.Rates) > 0 {
				return "rated" // a cap binds shares by rate, not weight
			}
			return fmt.Sprintf("%.2f%%", r.MaxShareErrPct)
		}),
		pktsPerGuest(13), hcPkt("%.3f"), throughput)

	// VswitchCompare is the inter-guest switch comparison: per backend,
	// the guest→guest cycles/packet through the dom0-side L2 switch
	// against the same stream hairpinned through the device. A row is the
	// {switched, device} pair.
	VswitchCompare = cat(
		text("backend", -10, func(r [2]result) string { return r[0].Backend }),
		num("pktsize", 9, "%d", func(r [2]result) int { return r[0].PacketSize }),
		num("switch", 14, "%.0f c/p", func(r [2]result) float64 { return r[0].CyclesPerPacket }),
		num("device", 14, "%.0f c/p", func(r [2]result) float64 { return r[1].CyclesPerPacket }),
		num("speedup", 9, "%.2fx", func(r [2]result) float64 { return r[1].CyclesPerPacket / r[0].CyclesPerPacket }))
)

type recoveryRow = *recovery.Measurement

var recoveryTable = cat(
	text("fault", -14, func(r recoveryRow) string { return r.Fault }),
	num("guests", 7, "%d", func(r recoveryRow) int { return r.Guests }),
	num("MTTR(cyc)", 12, "%d", func(r recoveryRow) uint64 { return r.MTTRCycles }),
	num("lost-rx", 8, "%d", func(r recoveryRow) uint64 { return r.LostRx }),
	num("retried-tx", 10, "%d", func(r recoveryRow) uint64 { return r.RetriedTx }),
	num("delivered", 10, "%d", func(r recoveryRow) uint64 { return r.Delivered }),
	num("pre-cpp", 9, "%.0f", func(r recoveryRow) float64 { return r.PreCPP }),
	num("post-cpp", 9, "%.0f", func(r recoveryRow) float64 { return r.PostCPP }),
	num("Δ%", 7, "%+.1f%%", func(r recoveryRow) float64 {
		if r.PreCPP > 0 {
			return 100 * (r.PostCPP - r.PreCPP) / r.PreCPP
		}
		return 0
	}))

// RecoverySweep renders the transparent-recovery experiment: for each
// fault type and guest count, the measured MTTR in cycles, the packets
// lost or re-staged across the fault, and the fault-free cycles/packet
// before versus after (proving the recovered instance is as good as the
// original); then the twin's rendered fault log per row, so the report
// shows what faulted (kind, entry symbol, cycle stamp), not only what the
// restart cost.
func RecoverySweep(w io.Writer, rows []recoveryRow) {
	recoveryTable.print(w, "Recovery sweep: MTTR and packet loss per fault type and guest count", rows)
	logged := false
	for _, r := range rows {
		for _, line := range r.FaultLog {
			if !logged {
				fmt.Fprintf(w, "\nfault log:\n")
				logged = true
			}
			fmt.Fprintf(w, "  %s/guests=%d: %s\n", r.Fault, r.Guests, line)
		}
	}
	fmt.Fprintln(w)
}

// WebCurves renders Figure 9 as an ASCII chart plus a peak table.
func WebCurves(w io.Writer, curves []*webbench.Curve, paper map[string]float64) {
	// Peak table first.
	cat(text("config", -12, func(c *webbench.Curve) string { return c.Config }),
		num("peak", 11, "%.0f Mb/s", func(c *webbench.Curve) float64 { return c.PeakMbps }),
		num("capacity", 12, "%.0f req/s", func(c *webbench.Curve) float64 { return c.CapacityReqs }),
		paperCol("paper peak", 12, "%7.0f Mb/s", paper, func(c *webbench.Curve) string { return c.Config }),
	).Print(w, "Figure 9: web server throughput vs request rate", curves)

	// ASCII chart: rows = throughput bands, columns = request rate.
	const height = 16
	maxM := 0.0
	for _, c := range curves {
		maxM = max(maxM, c.PeakMbps)
	}
	if maxM == 0 {
		return
	}
	marks := map[string]byte{"Linux": 'L', "dom0": 'D', "domU-twin": 'T', "domU": 'U'}
	cols := len(curves[0].Points)
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	for _, c := range curves {
		m := marks[c.Config]
		for x, pt := range c.Points {
			y := int(pt.Mbps / maxM * float64(height-1))
			row := height - 1 - y
			if grid[row][x] == ' ' {
				grid[row][x] = m
			}
		}
	}
	for i, row := range grid {
		label := "      "
		if i == 0 {
			label = fmt.Sprintf("%5.0f ", maxM)
		} else if i == height-1 {
			label = "    0 "
		}
		fmt.Fprintf(w, "%s|%s\n", label, string(row))
	}
	fmt.Fprintf(w, "      +%s\n", strings.Repeat("-", cols))
	fmt.Fprintf(w, "       0 ... %d req/s   (L=Linux D=dom0 T=domU-twin U=domU)\n\n",
		curves[0].Points[cols-1].RequestRate)
}

// table1Descriptions gives the paper's one-line description for each
// Table-1 routine.
var table1Descriptions = map[string]string{
	"netdev_alloc_skb":       "allocate sk_buffs",
	"dev_kfree_skb_any":      "free sk_buffs",
	"netif_rx":               "receive network packets",
	"dma_map_single":         "map DMA buffer",
	"dma_map_page":           "map DMA page",
	"dma_unmap_single":       "unmap DMA buffer",
	"dma_unmap_page":         "unmap DMA page",
	"spin_trylock":           "acquire spinlock",
	"spin_unlock_irqrestore": "release spinlock, restore interrupts",
	"eth_type_trans":         "process MAC header",
}

// Table1 renders the fast-path support routine table.
func Table1(w io.Writer, t *netbench.Table1) {
	cat(text("routine", -26, func(rc netbench.RoutineCount) string { return rc.Name }),
		text("description", -40, func(rc netbench.RoutineCount) string {
			return table1Descriptions[strings.TrimSuffix(rc.Name, " (upcall)")]
		}),
		num("calls", 10, "%d", func(rc netbench.RoutineCount) uint64 { return rc.Calls }),
	).Print(w, "Table 1: support routines on the error-free transmit/receive path", t.FastPath)
	fmt.Fprintf(w, "Fast-path routines: %d of %d imported support routines\n",
		len(t.FastPath), len(t.AllRoutines))
	fmt.Fprintf(w, "(kernel support table: %d symbols; paper: 10 of 97)\n\n", t.KernelSymbols)
}

// KeyValue renders a sorted key/value block (rewrite statistics etc.).
func KeyValue(w io.Writer, title string, kv map[string]string) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("=", len(title)))
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-32s %s\n", k, kv[k])
	}
	fmt.Fprintln(w)
}
