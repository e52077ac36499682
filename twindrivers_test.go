package twindrivers_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"twindrivers"
)

func TestRewriteFacade(t *testing.T) {
	out, stats, err := twindrivers.Rewrite(twindrivers.DriverSource, twindrivers.RewriteOptions{
		RejectPrivileged: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MemRewritten == 0 {
		t.Error("no memory rewriting happened")
	}
	if !strings.Contains(out, "__twin_stlb") {
		t.Error("output lacks stlb references")
	}
	// A second pass over the output still assembles (sanity of Print).
	if _, _, err := twindrivers.Rewrite(out, twindrivers.RewriteOptions{}); err != nil {
		t.Fatalf("re-rewrite: %v", err)
	}
}

func TestPublicMachineRoundTrip(t *testing.T) {
	m, tw, err := twindrivers.NewTwinMachine(1, 1, twindrivers.TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	var wire [][]byte
	d.NIC.OnTransmit = func(p []byte) { wire = append(wire, append([]byte(nil), p...)) }
	m.HV.Switch(m.DomU)
	frame := twindrivers.EthernetFrame([6]byte{1, 2, 3, 4, 5, 6}, d.NIC.MAC, 0x0800, []byte("public api"))
	if err := tw.GuestTransmit(d, frame); err != nil {
		t.Fatal(err)
	}
	if len(wire) != 1 || !bytes.Equal(wire[0], frame) {
		t.Error("frame corrupted")
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := twindrivers.Experiments()
	want := map[string]bool{"table1": true, "fig5": true, "fig6": true, "fig7": true,
		"fig8": true, "fig9": true, "fig10": true, "batch": true, "multiguest": true,
		"effort": true}
	for _, e := range exps {
		delete(want, e.ID)
		if e.Title == "" {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	if len(want) != 0 {
		t.Errorf("missing experiments: %v", want)
	}
	if err := twindrivers.RunExperiment(io.Discard, "nonsense", true); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunExperimentEffort(t *testing.T) {
	var b strings.Builder
	if err := twindrivers.RunExperiment(&b, "effort", true); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"engineering effort", "851", "hypervisor support routines"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

// TestSoakFullMode runs the soak experiment exactly as `twinbench
// -experiment soak` does — full mode, 240 steps on every backend, plain
// and weighted+switched — so tier-1 owns the advertised command. Quick
// mode (80 steps) ends before the slab double free of PR 10 bit, which is
// how the command stayed red for six PRs.
func TestSoakFullMode(t *testing.T) {
	var b strings.Builder
	if err := twindrivers.RunExperiment(&b, "soak", false); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "240 steps"); n != 2*len(twindrivers.Backends()) {
		t.Errorf("soak rendered %d full-mode runs, want both variants on every backend:\n%s", n, b.String())
	}
}

func TestDefaultHvSupportIsTableOne(t *testing.T) {
	s := twindrivers.DefaultHvSupport()
	if len(s) != 10 {
		t.Errorf("support set = %d routines, paper: 10", len(s))
	}
}

func TestFig10RemovalOrder(t *testing.T) {
	order := twindrivers.Fig10RemovalOrder()
	ten := map[string]bool{}
	for _, n := range twindrivers.DefaultHvSupport() {
		ten[n] = true
	}
	seen := map[string]bool{}
	for _, n := range order {
		if !ten[n] {
			t.Errorf("removal order contains %q, not in Table 1", n)
		}
		if n == "netif_rx" {
			t.Error("netif_rx must stay implemented (the paper's final bar)")
		}
		if seen[n] {
			t.Errorf("duplicate %q", n)
		}
		seen[n] = true
	}
	if len(order) != 9 {
		t.Errorf("removal order has %d entries, want 9 (all but netif_rx)", len(order))
	}
}

func TestDriverSourceExported(t *testing.T) {
	if len(twindrivers.DriverSource) < 10_000 {
		t.Error("driver source suspiciously small")
	}
	if !strings.Contains(twindrivers.DriverSource, "e1000_xmit_frame") {
		t.Error("driver source missing transmit entry")
	}
}
