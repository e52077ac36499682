package report

import (
	"strings"
	"testing"

	"twindrivers/internal/core"
	"twindrivers/internal/cycles"
	"twindrivers/internal/netbench"
	"twindrivers/internal/webbench"
)

func sampleResults() []*netbench.Result {
	return []*netbench.Result{
		{Config: "Linux", ThroughputMbps: 4690, CPUUtil: 0.97, CyclesPerPacket: 7400,
			Breakdown: map[cycles.Component]float64{cycles.CompDom0: 6500, cycles.CompDriver: 900}},
		{Config: "domU-twin", ThroughputMbps: 3694, CPUUtil: 1.0, CyclesPerPacket: 9800,
			Breakdown: map[cycles.Component]float64{cycles.CompDomU: 5600, cycles.CompXen: 1900, cycles.CompDriver: 2300}},
	}
}

func TestThroughputTable(t *testing.T) {
	var b strings.Builder
	Throughput(map[string]float64{"Linux": 4690}).Print(&b, "Figure 5", sampleResults())
	out := b.String()
	for _, want := range []string{"Figure 5", "Linux", "domU-twin", "4690", "3694", "97%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestBreakdownTable(t *testing.T) {
	var b strings.Builder
	Breakdown(map[string]float64{"domU-twin": 9972}).Print(&b, "Figure 7", sampleResults())
	out := b.String()
	for _, want := range []string{"cyc/pkt", "dom0", "e1000", "9800", "9972"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestUpcallSweepTable(t *testing.T) {
	var b strings.Builder
	UpcallSweep.Print(&b, "Figure 10: transmit throughput vs upcalls per driver invocation", []*netbench.Result{
		{UpcallsPerPacket: 0, ThroughputMbps: 3694, CyclesPerPacket: 9800},
		{UpcallsPerPacket: 1, ThroughputMbps: 1700, CyclesPerPacket: 21000, SwitchesPerPacket: 2},
	})
	out := b.String()
	if !strings.Contains(out, "Figure 10") || !strings.Contains(out, "1700") {
		t.Errorf("sweep table wrong:\n%s", out)
	}
}

func TestWebCurvesChart(t *testing.T) {
	curves := []*webbench.Curve{
		{Config: "Linux", PeakMbps: 800, CapacityReqs: 7000,
			Points: []webbench.Point{{RequestRate: 2000, Mbps: 244}, {RequestRate: 4000, Mbps: 488}, {RequestRate: 8000, Mbps: 800}, {RequestRate: 12000, Mbps: 780}}},
		{Config: "domU", PeakMbps: 400, CapacityReqs: 3500,
			Points: []webbench.Point{{RequestRate: 2000, Mbps: 244}, {RequestRate: 4000, Mbps: 400}, {RequestRate: 8000, Mbps: 380}, {RequestRate: 12000, Mbps: 350}}},
	}
	var b strings.Builder
	WebCurves(&b, curves, map[string]float64{"Linux": 855})
	out := b.String()
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "L") || !strings.Contains(out, "U") {
		t.Errorf("chart wrong:\n%s", out)
	}
	if !strings.Contains(out, "855") {
		t.Error("paper value missing")
	}
}

func TestTable1Rendering(t *testing.T) {
	tb := &netbench.Table1{
		FastPath: []netbench.RoutineCount{
			{Name: "netif_rx", Calls: 128},
			{Name: "dma_map_single", Calls: 128},
		},
		AllRoutines:   []string{"a", "b", "c", "netif_rx", "dma_map_single"},
		KernelSymbols: 89,
	}
	var b strings.Builder
	Table1(&b, tb)
	out := b.String()
	for _, want := range []string{"netif_rx", "receive network packets", "2 of 5", "89 symbols"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestKeyValueSorted(t *testing.T) {
	var b strings.Builder
	KeyValue(&b, "Effort", map[string]string{"zebra": "1", "alpha": "2"})
	out := b.String()
	if strings.Index(out, "alpha") > strings.Index(out, "zebra") {
		t.Error("keys not sorted")
	}
}

func TestMultiGuestSweepTable(t *testing.T) {
	var b strings.Builder
	results := []*netbench.Result{
		{CyclesPerPacket: 9500, ThroughputMbps: 938, HypercallsPerPacket: 0.06,
			Guests: 1, PerGuest: []netbench.GuestStat{{Guest: 0, Packets: 128, CyclesPerPacket: 9500}}},
		{CyclesPerPacket: 9600, ThroughputMbps: 938, HypercallsPerPacket: 0.015, SwitchesPerPacket: 0.06,
			Guests: 4, PerGuest: []netbench.GuestStat{
				{Guest: 0, Packets: 128, CyclesPerPacket: 9590},
				{Guest: 1, Packets: 128, CyclesPerPacket: 9600},
				{Guest: 2, Packets: 128, CyclesPerPacket: 9610},
				{Guest: 3, Packets: 127, CyclesPerPacket: 9680},
			}},
	}
	MultiGuestSweep.Print(&b, "Multi-guest sweep", results)
	out := b.String()
	for _, want := range []string{"guests", "guest-min", "guest-max", "9590", "9680", "127-128", "938 Mb/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep table missing %q:\n%s", want, out)
		}
	}
}

// TestDescriptionsCoverTableOne: the description column covers exactly the
// paper's ten routines — the hypervisor's native support set.
func TestDescriptionsCoverTableOne(t *testing.T) {
	if len(table1Descriptions) != 10 {
		t.Errorf("descriptions = %d, want the paper's 10", len(table1Descriptions))
	}
	for _, name := range core.DefaultHvSupport() {
		if table1Descriptions[name] == "" {
			t.Errorf("Table-1 routine %s has no description", name)
		}
	}
}
