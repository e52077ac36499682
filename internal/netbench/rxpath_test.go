package netbench

import (
	"testing"

	"twindrivers/internal/drivermodel"
	"twindrivers/internal/netpath"
)

// TestPostedRXCheaperThanCopy is the posted-path acceptance bar: on every
// registered backend, posted-buffer receive must land strictly below
// copy-mode receive at batch 8 and 32 (and, as measured, at batch 1 too) —
// the guest's per-frame copy-out is gone and the cached guest-TLB lookup
// that replaced it is far cheaper.
func TestPostedRXCheaperThanCopy(t *testing.T) {
	for _, backend := range drivermodel.Names() {
		for _, batch := range []int{1, 8, 32} {
			copyR, err := Run(netpath.Twin, RX, Params{
				NumNICs: 1, Measure: 128, Options: netpath.Options{BatchSize: batch}, Backend: backend,
			})
			if err != nil {
				t.Fatalf("%s copy batch=%d: %v", backend, batch, err)
			}
			postR, err := Run(netpath.Twin, RX, Params{
				NumNICs: 1, Measure: 128, Backend: backend, Options: netpath.Options{BatchSize: batch, PostedRX: true},
			})
			if err != nil {
				t.Fatalf("%s posted batch=%d: %v", backend, batch, err)
			}
			if batch >= 8 && !(postR.CyclesPerPacket < copyR.CyclesPerPacket) {
				t.Errorf("%s batch=%d: posted %.0f cyc/pkt not below copy %.0f",
					backend, batch, postR.CyclesPerPacket, copyR.CyclesPerPacket)
			}
			t.Logf("%s batch=%d: copy %.0f, posted %.0f cyc/pkt",
				backend, batch, copyR.CyclesPerPacket, postR.CyclesPerPacket)
		}
	}
}

// TestPostedRXLeavesCopyModeUntouched pins the legacy path: a copy-mode
// measurement taken after the posted path existed must be cycle-identical
// to the copy-mode default — the posted machinery (ring allocation, guest
// TLB) costs nothing until a guest posts.
func TestPostedRXLeavesCopyModeUntouched(t *testing.T) {
	a, err := Run(netpath.Twin, RX, Params{NumNICs: 1, Measure: 128, Options: netpath.Options{BatchSize: 8}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(netpath.Twin, RX, Params{NumNICs: 1, Measure: 128, Options: netpath.Options{BatchSize: 8, PostedRX: false}})
	if err != nil {
		t.Fatal(err)
	}
	if a.CyclesPerPacket != b.CyclesPerPacket {
		t.Errorf("copy mode drifted: %.2f vs %.2f cyc/pkt", a.CyclesPerPacket, b.CyclesPerPacket)
	}
}

// TestPostedRXMultiGuest runs the fan-out harness in posted mode: every
// guest posts its own buffers, every guest gets its full delivery count,
// and the aggregate stays below the copy-mode aggregate.
func TestPostedRXMultiGuest(t *testing.T) {
	copyR, err := RunMultiGuest(RX, 4, Params{NumNICs: 1, Measure: 64, Options: netpath.Options{BatchSize: 16}})
	if err != nil {
		t.Fatal(err)
	}
	postR, err := RunMultiGuest(RX, 4, Params{NumNICs: 1, Measure: 64, Options: netpath.Options{BatchSize: 16, PostedRX: true}})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range postR.PerGuest {
		if g.Packets != 64 {
			t.Errorf("posted guest %d moved %d packets, want 64", g.Guest, g.Packets)
		}
	}
	if !(postR.CyclesPerPacket < copyR.CyclesPerPacket) {
		t.Errorf("posted multi-guest %.0f cyc/pkt not below copy %.0f",
			postR.CyclesPerPacket, copyR.CyclesPerPacket)
	}
}
