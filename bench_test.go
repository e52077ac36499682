// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6), plus ablations of the design choices DESIGN.md calls out. The
// testing.B iteration count is used to repeat the measurement; the numbers
// that matter are the custom metrics (Mb/s, cycles/packet, ...) reported
// per benchmark, which correspond directly to the paper's axes.
package twindrivers_test

import (
	"io"
	"strconv"
	"testing"

	"twindrivers"
	"twindrivers/internal/asm"
	"twindrivers/internal/core"
	"twindrivers/internal/cost"
	"twindrivers/internal/cycles"
	"twindrivers/internal/e1000"
	"twindrivers/internal/kernel"
	"twindrivers/internal/netbench"
	"twindrivers/internal/netpath"
	"twindrivers/internal/recovery"
	"twindrivers/internal/rewrite"
	"twindrivers/internal/webbench"
)

// measureOnce runs one netbench measurement and reports its metrics.
func measureOnce(b *testing.B, kind netpath.Kind, dir netbench.Direction, nNICs int, tcfg core.TwinConfig) *netbench.Result {
	b.Helper()
	r, err := netbench.Run(kind, dir, netbench.Params{
		NumNICs: nNICs, Measure: 256, Twin: tcfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// benchConfigs runs all four configurations in one direction, reporting
// the figure's bars as metrics (config names embedded in sub-benchmarks).
func benchConfigs(b *testing.B, dir netbench.Direction, nNICs int) {
	for _, kind := range netpath.Kinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var last *netbench.Result
			for i := 0; i < b.N; i++ {
				last = measureOnce(b, kind, dir, nNICs, core.TwinConfig{})
			}
			b.ReportMetric(last.ThroughputMbps, "Mb/s")
			b.ReportMetric(last.CyclesPerPacket, "cycles/pkt")
			b.ReportMetric(100*last.CPUUtil, "%CPU")
		})
	}
}

// --- Figures 5 and 6: netperf throughput, 5 NICs --------------------------

func BenchmarkFig5TransmitThroughput(b *testing.B) {
	benchConfigs(b, netbench.TX, cost.NumNICs)
}

func BenchmarkFig6ReceiveThroughput(b *testing.B) {
	benchConfigs(b, netbench.RX, cost.NumNICs)
}

// --- Figures 7 and 8: cycles/packet profiles, single NIC ------------------

func benchBreakdown(b *testing.B, dir netbench.Direction) {
	for _, kind := range netpath.Kinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var last *netbench.Result
			for i := 0; i < b.N; i++ {
				last = measureOnce(b, kind, dir, 1, core.TwinConfig{})
			}
			b.ReportMetric(last.CyclesPerPacket, "cycles/pkt")
			b.ReportMetric(last.Breakdown[cycles.CompDom0], "dom0")
			b.ReportMetric(last.Breakdown[cycles.CompDomU], "domU")
			b.ReportMetric(last.Breakdown[cycles.CompXen], "xen")
			b.ReportMetric(last.Breakdown[cycles.CompDriver], "e1000")
		})
	}
}

func BenchmarkFig7TransmitCycleBreakdown(b *testing.B) {
	benchBreakdown(b, netbench.TX)
}

func BenchmarkFig8ReceiveCycleBreakdown(b *testing.B) {
	benchBreakdown(b, netbench.RX)
}

// --- Figure 9: web server workload ----------------------------------------

func BenchmarkFig9WebServerThroughput(b *testing.B) {
	for _, kind := range netpath.Kinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			var last *webbench.Curve
			for i := 0; i < b.N; i++ {
				c, err := webbench.Run(kind, webbench.Params{Measure: 96, Step: 2000})
				if err != nil {
					b.Fatal(err)
				}
				last = c
			}
			b.ReportMetric(last.PeakMbps, "peakMb/s")
			b.ReportMetric(last.CapacityReqs, "req/s")
		})
	}
}

// --- Figure 10: cost of upcalls --------------------------------------------

func BenchmarkFig10UpcallCost(b *testing.B) {
	removal := twindrivers.Fig10RemovalOrder()
	for k := 0; k <= len(removal); k++ {
		k := k
		name := "upcalled-0"
		if k > 0 {
			name = "upcalled-" + removal[k-1]
		}
		b.Run(name, func(b *testing.B) {
			removed := map[string]bool{}
			for _, n := range removal[:k] {
				removed[n] = true
			}
			var sup []string
			for _, n := range core.DefaultHvSupport() {
				if !removed[n] {
					sup = append(sup, n)
				}
			}
			var last *netbench.Result
			for i := 0; i < b.N; i++ {
				last = measureOnce(b, netpath.Twin, netbench.TX, cost.NumNICs,
					core.TwinConfig{HvSupport: sup})
			}
			b.ReportMetric(last.ThroughputMbps, "Mb/s")
			b.ReportMetric(last.UpcallsPerPacket, "upcalls/pkt")
		})
	}
}

// --- Batch sweep: batched hypercall I/O --------------------------------------

// BenchmarkBatchSweep measures the domU-twin path at each batch size in
// both directions (single NIC): the cycles saved per packet come from
// amortizing the hypercall (TX) and the interrupt + notification machinery
// (RX) over the shared descriptor ring.
func BenchmarkBatchSweep(b *testing.B) {
	for _, dir := range []netbench.Direction{netbench.TX, netbench.RX} {
		for _, batch := range twindrivers.BatchSizes() {
			dir, batch := dir, batch
			b.Run(dir.String()+"/batch-"+strconv.Itoa(batch), func(b *testing.B) {
				var last *netbench.Result
				for i := 0; i < b.N; i++ {
					r, err := netbench.Run(netpath.Twin, dir, netbench.Params{
						NumNICs: 1, Measure: 256, Options: netpath.Options{BatchSize: batch},
					})
					if err != nil {
						b.Fatal(err)
					}
					last = r
				}
				b.ReportMetric(last.CyclesPerPacket, "cycles/pkt")
				b.ReportMetric(last.HypercallsPerPacket, "hc/pkt")
				b.ReportMetric(last.ThroughputMbps, "Mb/s")
			})
		}
	}
}

// --- Backend sweep: every NIC driver model through the same pipeline ---------

// BenchmarkBackendSweep measures the domU-twin path over every registered
// NIC backend in both directions, per-packet and batched: the same
// derivation pipeline and harness, different device geometry.
func BenchmarkBackendSweep(b *testing.B) {
	for _, backend := range twindrivers.Backends() {
		for _, dir := range []netbench.Direction{netbench.TX, netbench.RX} {
			for _, batch := range []int{1, 32} {
				backend, dir, batch := backend, dir, batch
				b.Run(backend+"/"+dir.String()+"/batch-"+strconv.Itoa(batch), func(b *testing.B) {
					var last *netbench.Result
					for i := 0; i < b.N; i++ {
						r, err := netbench.Run(netpath.Twin, dir, netbench.Params{
							NumNICs: 1, Measure: 256, Options: netpath.Options{BatchSize: batch}, Backend: backend,
						})
						if err != nil {
							b.Fatal(err)
						}
						last = r
					}
					b.ReportMetric(last.CyclesPerPacket, "cycles/pkt")
					b.ReportMetric(last.HypercallsPerPacket, "hc/pkt")
					b.ReportMetric(last.ThroughputMbps, "Mb/s")
				})
			}
		}
	}
}

// --- RX-path sweep: posted guest buffers vs copy-mode delivery ---------------

// BenchmarkRXPathSweep measures the domU-twin receive path per backend and
// batch size in both delivery modes: the posted rows land strictly below
// their copy-mode counterparts because the guest's per-frame copy-out is
// replaced by one direct copy into the posted buffer (plus a cached
// guest-TLB translation).
func BenchmarkRXPathSweep(b *testing.B) {
	for _, backend := range twindrivers.Backends() {
		for _, batch := range twindrivers.BatchSizes() {
			for _, posted := range []bool{false, true} {
				backend, batch, posted := backend, batch, posted
				mode := "copy"
				if posted {
					mode = "posted"
				}
				b.Run(backend+"/batch-"+strconv.Itoa(batch)+"/"+mode, func(b *testing.B) {
					var last *netbench.Result
					for i := 0; i < b.N; i++ {
						r, err := netbench.Run(netpath.Twin, netbench.RX, netbench.Params{
							NumNICs: 1, Measure: 256, Backend: backend,
							Options: netpath.Options{BatchSize: batch, PostedRX: posted},
						})
						if err != nil {
							b.Fatal(err)
						}
						last = r
					}
					b.ReportMetric(last.CyclesPerPacket, "cycles/pkt")
					b.ReportMetric(last.Breakdown[cycles.CompDomU], "domU")
					b.ReportMetric(last.Breakdown[cycles.CompXen], "xen")
					b.ReportMetric(last.ThroughputMbps, "Mb/s")
				})
			}
		}
	}
}

// --- Multi-guest sweep: per-guest rings + round-robin service ----------------

// BenchmarkMultiGuestSweep measures the domU-twin path at 1/2/4/8 guests in
// both directions (single NIC): every guest owns a transmit ring, one
// boundary crossing services all rings round-robin, and the per-guest
// cycles/packet stays flat while hypercalls/packet falls with the fan-out.
func BenchmarkMultiGuestSweep(b *testing.B) {
	for _, dir := range []netbench.Direction{netbench.TX, netbench.RX} {
		for _, guests := range twindrivers.MultiGuestCounts() {
			dir, guests := dir, guests
			b.Run(dir.String()+"/guests-"+strconv.Itoa(guests), func(b *testing.B) {
				var last *netbench.Result
				for i := 0; i < b.N; i++ {
					r, err := netbench.RunMultiGuest(dir, guests, netbench.Params{
						NumNICs: 1, Measure: 128, Options: netpath.Options{BatchSize: twindrivers.MultiGuestBatch},
					})
					if err != nil {
						b.Fatal(err)
					}
					last = r
				}
				b.ReportMetric(last.CyclesPerPacket, "cycles/pkt")
				b.ReportMetric(last.PerGuest[0].CyclesPerPacket, "guest-cycles/pkt")
				b.ReportMetric(last.HypercallsPerPacket, "hc/pkt")
				b.ReportMetric(last.SwitchesPerPacket, "sw/pkt")
			})
		}
	}
}

// --- Table 1: fast-path support routine trace -------------------------------

func BenchmarkTable1FastPathRoutines(b *testing.B) {
	var last *netbench.Table1
	for i := 0; i < b.N; i++ {
		t, err := netbench.RunTable1(128)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.ReportMetric(float64(len(last.FastPath)), "fastpath-routines")
	b.ReportMetric(float64(len(last.AllRoutines)), "driver-imports")
	b.ReportMetric(float64(last.KernelSymbols), "kernel-symbols")
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationLiveness compares the liveness-guided rewrite against
// forced spilling (the paper's footnote 3: liveness analysis avoids
// spilling "most of the time").
func BenchmarkAblationLiveness(b *testing.B) {
	for _, forced := range []bool{false, true} {
		name := "liveness"
		if forced {
			name = "force-spill"
		}
		forced := forced
		b.Run(name, func(b *testing.B) {
			var last *netbench.Result
			for i := 0; i < b.N; i++ {
				last = measureOnce(b, netpath.Twin, netbench.TX, 1, core.TwinConfig{
					Rewrite: rewrite.Options{ForceSpill: forced},
				})
			}
			b.ReportMetric(last.Breakdown[cycles.CompDriver], "driver-cycles/pkt")
			b.ReportMetric(last.CyclesPerPacket, "cycles/pkt")
		})
	}
}

// BenchmarkAblationStackChecks measures the §4.5.1 extension: bounds checks
// on variable-offset stack accesses.
func BenchmarkAblationStackChecks(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "plain"
		if on {
			name = "stack-checks"
		}
		on := on
		b.Run(name, func(b *testing.B) {
			var last *netbench.Result
			for i := 0; i < b.N; i++ {
				last = measureOnce(b, netpath.Twin, netbench.TX, 1, core.TwinConfig{
					Rewrite: rewrite.Options{CheckStack: on},
				})
			}
			b.ReportMetric(last.Breakdown[cycles.CompDriver], "driver-cycles/pkt")
		})
	}
}

// BenchmarkAblationStlbSize sweeps the software translation table size:
// small tables raise the hash-collision rate, sending hot pages through
// the slow path (the paper fixed 4096 entries / 16 MB; this shows why).
func BenchmarkAblationStlbSize(b *testing.B) {
	for _, entries := range []int{16, 64, 256, 1024, 4096} {
		entries := entries
		b.Run(sizeName(entries), func(b *testing.B) {
			var last *netbench.Result
			for i := 0; i < b.N; i++ {
				// RX: the interrupt path's register page collides with the
				// adapter page in small tables.
				last = measureOnce(b, netpath.Twin, netbench.RX, 1, core.TwinConfig{STLBEntries: entries})
			}
			b.ReportMetric(last.CyclesPerPacket, "cycles/pkt")
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1024:
		return "entries-" + string(rune('0'+n/1024)) + "k"
	default:
		d := []byte{}
		for v := n; v > 0; v /= 10 {
			d = append([]byte{byte('0' + v%10)}, d...)
		}
		return "entries-" + string(d)
	}
}

// BenchmarkAblationShadowStack measures the return-address shadow stack.
func BenchmarkAblationShadowStack(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "plain"
		if on {
			name = "shadow-stack"
		}
		on := on
		b.Run(name, func(b *testing.B) {
			var last *netbench.Result
			for i := 0; i < b.N; i++ {
				last = measureOnce(b, netpath.Twin, netbench.TX, 1, core.TwinConfig{
					ShadowStack: on,
				})
			}
			b.ReportMetric(last.CyclesPerPacket, "cycles/pkt")
		})
	}
}

// --- Microbenchmarks of the mechanisms ---------------------------------------

// BenchmarkRewriteDriver measures the rewriter itself over the full e1000
// driver (derivation is offline, but its speed still matters for module
// load time).
func BenchmarkRewriteDriver(b *testing.B) {
	u, err := asm.AssembleWithEquates(e1000.Source, kernel.Equates())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rewrite.Rewrite(u, rewrite.Options{RejectPrivileged: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssembleDriver measures the assembler front end.
func BenchmarkAssembleDriver(b *testing.B) {
	eq := kernel.Equates()
	for i := 0; i < b.N; i++ {
		if _, err := asm.AssembleWithEquates(e1000.Source, eq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwinTransmit measures one guest transmit through the derived
// driver (the simulator's hot loop).
func BenchmarkTwinTransmit(b *testing.B) {
	m, tw, err := core.NewTwinMachine(1, 1, core.TwinConfig{})
	if err != nil {
		b.Fatal(err)
	}
	d := m.Devs[0]
	d.NIC.OnTransmit = func([]byte) {}
	m.HV.Switch(m.DomU)
	frame := core.EthernetFrame([6]byte{1, 1, 1, 1, 1, 1}, d.NIC.MAC, 0x0800, make([]byte, cost.MTU-14))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tw.GuestTransmit(d, frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTwinReceive measures one injected frame taken through the
// derived driver's interrupt handler and delivered to the guest (copy mode).
func BenchmarkTwinReceive(b *testing.B) {
	m, tw, err := core.NewTwinMachine(1, 1, core.TwinConfig{})
	if err != nil {
		b.Fatal(err)
	}
	d := m.Devs[0]
	m.HV.Switch(m.DomU)
	frame := core.EthernetFrame(d.NIC.MAC, [6]byte{1, 1, 1, 1, 1, 1}, 0x0800, make([]byte, cost.MTU-14))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !d.NIC.Inject(frame) {
			b.Fatal("inject failed: no RX descriptors")
		}
		if err := tw.HandleIRQ(d); err != nil {
			b.Fatal(err)
		}
		if pkts, err := tw.DeliverPending(m.DomU); err != nil || len(pkts) != 1 {
			b.Fatalf("delivered %d frames, %v", len(pkts), err)
		}
	}
}

// BenchmarkNativeTransmit is the same for the original driver in dom0.
func BenchmarkNativeTransmit(b *testing.B) {
	m, err := core.NewMachine(1)
	if err != nil {
		b.Fatal(err)
	}
	d := m.Devs[0]
	d.NIC.OnTransmit = func([]byte) {}
	frame := core.EthernetFrame([6]byte{1, 1, 1, 1, 1, 1}, d.NIC.MAC, 0x0800, make([]byte, cost.MTU-14))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		skb, err := m.NewTxSkb(d, frame)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.DevQueueXmit(d, skb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentPipeline runs the complete quick evaluation end to end
// (everything cmd/twinbench -quick does).
func BenchmarkExperimentPipeline(b *testing.B) {
	if testing.Short() {
		b.Skip("long")
	}
	for i := 0; i < b.N; i++ {
		if err := twindrivers.RunExperiment(io.Discard, "all", true); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Recovery sweep: transparent driver restart ------------------------------

// BenchmarkRecoverySweep measures the restart path per fault type and
// guest count: MTTR in simulated cycles (re-derivation + configuration
// replay), the receive frames lost with the dead instance, and the staged
// transmit frames re-staged after it.
func BenchmarkRecoverySweep(b *testing.B) {
	for _, inj := range twindrivers.FaultInjectors() {
		for _, guests := range []int{1, 4} {
			inj, guests := inj, guests
			b.Run(inj.Name+"/guests-"+strconv.Itoa(guests), func(b *testing.B) {
				var last *recovery.Measurement
				for i := 0; i < b.N; i++ {
					r, err := netbench.RunRecovery(inj, guests, 32)
					if err != nil {
						b.Fatal(err)
					}
					last = r
				}
				b.ReportMetric(float64(last.MTTRCycles), "MTTR-cycles")
				b.ReportMetric(float64(last.LostRx), "lost-rx")
				b.ReportMetric(float64(last.RetriedTx), "retried-tx")
				b.ReportMetric(last.PostCPP, "post-cycles/pkt")
			})
		}
	}
}

// BenchmarkRecoveryHotPath pins the zero-cost claim: the domU-twin hot
// path with a recovery supervisor attached reports exactly the same
// cycles/packet as without one (the supervisor only runs after a fault).
func BenchmarkRecoveryHotPath(b *testing.B) {
	for _, supervised := range []bool{false, true} {
		name := "plain"
		if supervised {
			name = "supervised"
		}
		supervised := supervised
		b.Run(name, func(b *testing.B) {
			var last *netbench.Result
			for i := 0; i < b.N; i++ {
				r, err := netbench.Run(netpath.Twin, netbench.TX, netbench.Params{
					NumNICs: 1, Measure: 256, Options: netpath.Options{BatchSize: 8}, Recovery: supervised,
				})
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.CyclesPerPacket, "cycles/pkt")
			b.ReportMetric(last.HypercallsPerPacket, "hc/pkt")
		})
	}
}
