package core

import (
	"runtime/debug"
	"testing"

	"twindrivers/internal/cost"
)

// raceBuild reports whether this binary carries race-detector
// instrumentation, which allocates on its own account.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestHotPathAllocBudget pins the host allocations of the two warm
// per-packet paths at zero: the simulated machine allocates nothing per
// packet, and DeliverPending hands the guest its frames in buffers the
// guest's receive queue reuses. A change that raises either count has put
// an allocation back on the hot path.
func TestHotPathAllocBudget(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector's instrumentation allocates; the budget is for plain builds")
	}
	const (
		txBudget = 0
		rxBudget = 0
	)
	m, tw, err := NewTwinMachine(1, 1, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	d.NIC.OnTransmit = func([]byte) {}
	m.HV.Switch(m.DomU)

	out := EthernetFrame([6]byte{1, 1, 1, 1, 1, 1}, d.NIC.MAC, 0x0800, make([]byte, cost.MTU-14))
	tx := func() {
		if err := tw.GuestTransmit(d, out); err != nil {
			t.Fatal(err)
		}
	}
	in := EthernetFrame(d.NIC.MAC, [6]byte{1, 1, 1, 1, 1, 1}, 0x0800, make([]byte, cost.MTU-14))
	rx := func() {
		if !d.NIC.Inject(in) {
			t.Fatal("inject failed: no RX descriptors")
		}
		if err := tw.HandleIRQ(d); err != nil {
			t.Fatal(err)
		}
		if pkts, err := tw.DeliverPending(m.DomU); err != nil || len(pkts) != 1 {
			t.Fatalf("delivered %d frames, %v", len(pkts), err)
		}
	}
	// Warm both paths through a full descriptor-ring lap first: first
	// touches fill the stlb, grow the device's gather buffer and the
	// meter's component stack.
	for i := 0; i < 300; i++ {
		tx()
		rx()
	}
	if n := testing.AllocsPerRun(200, tx); n > txBudget {
		t.Errorf("warm GuestTransmit allocates %.1f times per packet, budget %d", n, txBudget)
	}
	if n := testing.AllocsPerRun(200, rx); n > rxBudget {
		t.Errorf("warm receive (inject, interrupt, deliver) allocates %.1f times per packet, budget %d", n, rxBudget)
	}
}
