package netbench

import (
	"testing"

	"twindrivers/internal/drivermodel"
	"twindrivers/internal/netpath"
)

// TestPostedTXCheaperThanCopy is the posted-transmit acceptance bar: on
// every registered backend, posted scatter/gather transmit must land
// strictly below copy-mode transmit at batch 8 and 32 — the guest's
// per-byte staging copy is gone, replaced by a fixed descriptor post and
// a cached guest-TLB lookup.
func TestPostedTXCheaperThanCopy(t *testing.T) {
	for _, backend := range drivermodel.Names() {
		for _, batch := range []int{1, 8, 32} {
			copyR, err := Run(netpath.Twin, TX, Params{
				NumNICs: 1, Measure: 128, Options: netpath.Options{BatchSize: batch}, Backend: backend,
			})
			if err != nil {
				t.Fatalf("%s copy batch=%d: %v", backend, batch, err)
			}
			postR, err := Run(netpath.Twin, TX, Params{
				NumNICs: 1, Measure: 128, Backend: backend, Options: netpath.Options{BatchSize: batch, PostedTX: true},
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

// TestPostedTXLeavesCopyModeUntouched pins the legacy path: a copy-mode
// transmit measurement taken after the posted path existed must be
// cycle-identical to the copy-mode default — the posted-TX machinery
// (ring allocation, pin table) costs nothing until a guest posts.
func TestPostedTXLeavesCopyModeUntouched(t *testing.T) {
	a, err := Run(netpath.Twin, TX, Params{NumNICs: 1, Measure: 128, Options: netpath.Options{BatchSize: 8}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(netpath.Twin, TX, Params{NumNICs: 1, Measure: 128, Options: netpath.Options{BatchSize: 8, PostedTX: false}})
	if err != nil {
		t.Fatal(err)
	}
	if a.CyclesPerPacket != b.CyclesPerPacket {
		t.Errorf("copy mode drifted: %.2f vs %.2f cyc/pkt", a.CyclesPerPacket, b.CyclesPerPacket)
	}
}

// TestPostedTXMultiGuest runs the fan-out harness in posted mode: every
// guest posts its own descriptors, every guest gets its full transmit
// count, and the aggregate stays below the copy-mode aggregate.
func TestPostedTXMultiGuest(t *testing.T) {
	copyR, err := RunMultiGuest(TX, 4, Params{NumNICs: 1, Measure: 64, Options: netpath.Options{BatchSize: 16}})
	if err != nil {
		t.Fatal(err)
	}
	postR, err := RunMultiGuest(TX, 4, Params{NumNICs: 1, Measure: 64, Options: netpath.Options{BatchSize: 16, PostedTX: true}})
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
