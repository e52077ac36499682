package netpath

import (
	"runtime/debug"
	"testing"

	"twindrivers/internal/core"
	"twindrivers/internal/drivermodel"
	"twindrivers/internal/mqnic"
	"twindrivers/internal/rtl8139"
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

// TestBurstAllocBudget pins the host allocations per packet of warm
// SendBurst/ReceiveBurst calls, and per call of the fan-out forms. Every
// frame, delivery and descriptor list lives in a buffer its owner reuses,
// so what is left is the per-guest result maps: ServiceRings' (one per
// posted crossing) and the fan-out forms' own. A change that raises any
// count has put an allocation back on the data path.
func TestBurstAllocBudget(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector's instrumentation allocates; the budget is for plain builds")
	}
	warm := func(p *Path, step func()) {
		p.M.Devs[0].Dev.SetOnTransmit(func([]byte) {})
		for i := 0; i < 8; i++ {
			step()
		}
	}
	for _, c := range []struct {
		model       *drivermodel.Model // nil: the e1000
		batch, size int
		posted      bool
		tx, rx      float64 // allocations per packet
	}{
		{nil, 1, 1514, false, 0, 0},
		{nil, 8, 1514, false, 0, 0},
		{nil, 32, 64, true, 0.1, 0},
		{rtl8139.DriverModel(), 8, 1514, false, 0, 0},
		{mqnic.DriverModel(), 8, 1514, false, 0, 0},
	} {
		p, err := NewMultiModel(Twin, 1, 1, c.model, core.TwinConfig{})
		if err != nil {
			t.Fatal(err)
		}
		name := p.M.Model.Name
		p.BatchSize, p.PostedTX, p.PostedRX = c.batch, c.posted, c.posted
		tx := func() {
			if _, err := p.SendBurst(0, c.size, c.batch); err != nil {
				t.Fatal(err)
			}
		}
		rx := func() {
			if _, err := p.ReceiveBurst(0, c.size, c.batch); err != nil {
				t.Fatal(err)
			}
		}
		warm(p, func() { tx(); rx() })
		if got := testing.AllocsPerRun(50, tx) / float64(c.batch); got > c.tx {
			t.Errorf("%s batch %d posted=%v: SendBurst %.3f allocs/pkt, budget %.1f", name, c.batch, c.posted, got, c.tx)
		}
		if got := testing.AllocsPerRun(50, rx) / float64(c.batch); got > c.rx {
			t.Errorf("%s batch %d posted=%v: ReceiveBurst %.3f allocs/pkt, budget %.1f", name, c.batch, c.posted, got, c.rx)
		}
	}
	for _, c := range []struct {
		guests int
		posted bool
		tx, rx float64 // allocations per call of 8 frames per guest
	}{
		{1, false, 2, 2},
		{1, true, 4, 2},
		{4, false, 4, 2},
		{4, true, 4, 2},
	} {
		p, err := NewMulti(Twin, 1, c.guests, core.TwinConfig{})
		if err != nil {
			t.Fatal(err)
		}
		p.PostedTX, p.PostedRX = c.posted, c.posted
		tx := func() {
			if _, err := p.SendBurstMulti(0, 64, 8); err != nil {
				t.Fatal(err)
			}
		}
		rx := func() {
			if _, err := p.ReceiveBurstMulti(0, 64, 8); err != nil {
				t.Fatal(err)
			}
		}
		warm(p, func() { tx(); rx() })
		if got := testing.AllocsPerRun(50, tx); got > c.tx {
			t.Errorf("%d guests posted=%v: SendBurstMulti %.0f allocs/call, budget %.0f", c.guests, c.posted, got, c.tx)
		}
		if got := testing.AllocsPerRun(50, rx); got > c.rx {
			t.Errorf("%d guests posted=%v: ReceiveBurstMulti %.0f allocs/call, budget %.0f", c.guests, c.posted, got, c.rx)
		}
	}
}
