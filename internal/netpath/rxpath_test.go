package netpath

import (
	"testing"

	"twindrivers/internal/core"
	"twindrivers/internal/drivermodel"
	"twindrivers/internal/e1000"
	"twindrivers/internal/mem"
	"twindrivers/internal/rtl8139"
)

// Posted-receive path tests at the configuration level: full bursts, the
// multi-guest fan-out, and loss accounting when a bad posted descriptor
// (or a mid-batch delivery fault) costs frames mid-burst.

// TestPostedBurstMovesAllPackets: a posted-mode receive burst completes
// every frame across several ring-sized chunks, with zero loss.
func TestPostedBurstMovesAllPackets(t *testing.T) {
	p, err := New(Twin, 1, core.TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.BatchSize = 16
	p.PostedRX = true
	const n = 100 // several posted-ring refills
	got, err := p.ReceiveBurst(0, 800, n)
	if err != nil {
		t.Fatal(err)
	}
	if got != n || p.RxCount != n {
		t.Fatalf("moved %d (count %d), want %d", got, p.RxCount, n)
	}
	if p.LostRx != 0 {
		t.Fatalf("lossless burst lost %d", p.LostRx)
	}
}

// TestPostedPerPacketSetting: BatchSize <= 1 in posted mode degenerates to
// one-frame post/deliver rounds and still moves everything.
func TestPostedPerPacketSetting(t *testing.T) {
	p, err := New(Twin, 1, core.TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.PostedRX = true
	got, err := p.ReceiveBurst(0, 400, 10)
	if err != nil || got != 10 {
		t.Fatalf("moved %d, %v", got, err)
	}
}

// TestPostedBurstCheaperPerPacket: the posted path beats the copy path on
// the same burst shape — the end-to-end form of the netbench acceptance.
func TestPostedBurstCheaperPerPacket(t *testing.T) {
	run := func(posted bool) float64 {
		p, err := New(Twin, 1, core.TwinConfig{})
		if err != nil {
			t.Fatal(err)
		}
		p.BatchSize = 8
		p.PostedRX = posted
		if _, err := p.ReceiveBurst(0, 1500, 64); err != nil {
			t.Fatal(err)
		}
		p.ResetMeasurement()
		if _, err := p.ReceiveBurst(0, 1500, 64); err != nil {
			t.Fatal(err)
		}
		return float64(p.Meter().Total()) / 64
	}
	copyCpp, postedCpp := run(false), run(true)
	if !(postedCpp < copyCpp) {
		t.Fatalf("posted %.0f cyc/pkt not below copy %.0f", postedCpp, copyCpp)
	}
}

// TestPostedHostileDescriptorCountedOnce: a hostile descriptor pre-posted
// on the guest's ring costs exactly one frame, counted exactly once in
// LostRx, while the burst completes with a replacement — the mid-burst
// partial-failure accounting contract.
func TestPostedHostileDescriptorCountedOnce(t *testing.T) {
	p, err := New(Twin, 1, core.TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.BatchSize = 8
	p.PostedRX = true
	// The guest scribbles one hostile descriptor ahead of the honest
	// ones: the first delivery of the burst consumes it and loses that
	// frame; every later frame lands in an honest buffer.
	if n, err := p.T.PostRxBuffers(p.M.DomU, []core.RxPost{{Addr: 0xF1000040, Len: 4096}}); err != nil || n != 1 {
		t.Fatalf("hostile pre-post: %d, %v", n, err)
	}
	const n = 24
	got, err := p.ReceiveBurst(0, 600, n)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("burst moved %d of %d", got, n)
	}
	if p.LostRx != 1 {
		t.Fatalf("LostRx = %d, want exactly 1 (no double-count)", p.LostRx)
	}
	if p.RxCount != n {
		t.Fatalf("RxCount = %d, want %d", p.RxCount, n)
	}
}

// TestPostedMultiGuestBursts: every guest posts its own buffers and gets
// its full per-guest delivery count.
func TestPostedMultiGuestBursts(t *testing.T) {
	p, err := NewMulti(Twin, 1, 3, core.TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.PostedRX = true
	got, err := p.ReceiveBurstMulti(0, 900, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, dom := range p.M.Guests {
		if got[dom.ID] != 20 {
			t.Errorf("guest %d received %d of 20", dom.ID, got[dom.ID])
		}
	}
	if p.LostRx != 0 {
		t.Errorf("lossless fan-out lost %d", p.LostRx)
	}
}

// TestPostedZeroProgressRoundTerminates: a delivery round that loses every
// frame (the guest pre-posted a batch of too-short descriptors) must end
// the burst with a short count instead of repeating — the zero-progress
// guard against re-posting and re-losing forever. The losses are counted
// exactly once, and the queued frames deliver on the next honest burst.
func TestPostedZeroProgressRoundTerminates(t *testing.T) {
	p, err := New(Twin, 1, core.TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.BatchSize = 4
	p.PostedRX = true
	// Hostile guest: four descriptors whose buffers cannot hold any frame.
	short := make([]core.RxPost, 4)
	for i := range short {
		short[i] = core.RxPost{Addr: 0xB0000000, Len: 8}
	}
	if n, err := p.T.PostRxBuffers(p.M.DomU, short); err != nil || n != 4 {
		t.Fatalf("pre-post: %d, %v", n, err)
	}
	got, err := p.ReceiveBurst(0, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("zero-progress burst reported %d delivered", got)
	}
	if p.LostRx != 4 {
		t.Fatalf("LostRx = %d, want exactly 4", p.LostRx)
	}
	// The injected frames stayed queued behind the honest buffers posted
	// in that round; the next burst drains them.
	if got, err := p.ReceiveBurst(0, 400, 4); err != nil || got != 4 {
		t.Fatalf("drain burst: %d, %v", got, err)
	}
	if p.LostRx != 4 {
		t.Fatalf("losses double-counted: LostRx = %d", p.LostRx)
	}
}

// TestReceiveRoundsFitTheDevice: a receive step larger than the device's
// receive ring is issued in rounds the ring holds — whole MTU frames in the
// rtl8139's 64 KiB byte ring, half the e1000's 256 descriptors — so every
// frame is delivered and none is lost, on the stream and on the fan-out.
func TestReceiveRoundsFitTheDevice(t *testing.T) {
	cases := []struct {
		name          string
		model         *drivermodel.Model
		batch, frames int
		multi         bool
	}{
		{"rtl8139 stream", rtl8139.DriverModel(), 64, 64, false},
		{"e1000 stream", e1000.DriverModel(), 300, 300, false},
		{"rtl8139 fan-out", rtl8139.DriverModel(), 0, 64, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := NewMultiModel(Twin, 1, 1, c.model, core.TwinConfig{})
			if err != nil {
				t.Fatal(err)
			}
			p.BatchSize = c.batch
			for round := 0; round < 2; round++ {
				got := 0
				if c.multi {
					var m map[mem.Owner]int
					m, err = p.ReceiveBurstMulti(0, 1514, c.frames)
					got = m[p.M.DomU.ID]
				} else {
					got, err = p.ReceiveBurst(0, 1514, c.frames)
				}
				if err != nil || got != c.frames {
					t.Fatalf("burst %d: delivered %d of %d: %v", round, got, c.frames, err)
				}
			}
			if p.RxCount != uint64(2*c.frames) || p.LostRx != 0 || p.T.PendingRx(p.M.DomU.ID) != 0 {
				t.Errorf("RxCount %d LostRx %d pending %d, want %d, 0, 0",
					p.RxCount, p.LostRx, p.T.PendingRx(p.M.DomU.ID), 2*c.frames)
			}
		})
	}
}
