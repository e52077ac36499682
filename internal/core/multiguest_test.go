package core

import (
	"bytes"
	"errors"
	"testing"

	"twindrivers/internal/mem"
	"twindrivers/internal/telemetry"
	"twindrivers/internal/xen"
)

// guestFrames builds n distinct frames sourced from guest index g.
func guestFrames(d *NICDev, g, n, size int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = EthernetFrame([6]byte{2, 2, 2, 2, byte(g), byte(i)}, d.NIC.MAC, 0x0800, payload(size, byte(g*16+i)))
	}
	return frames
}

func TestMultiGuestBringup(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 4, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Guests) != 4 || m.DomU != m.Guests[0] {
		t.Fatalf("guests = %d, DomU aliasing broken", len(m.Guests))
	}
	if len(tw.guestIO) != 4 || len(tw.guestOrder) != 4 {
		t.Fatalf("guestIO = %d rings", len(tw.guestIO))
	}
	// Disjoint per-guest state: rings, slots and bounce buffers live in
	// each guest's own heap region.
	seen := map[uint32]mem.Owner{}
	for id, g := range tw.guestIO {
		base := xen.GuestKernelBase + uint32(id-1)*xen.GuestHeapStride
		for _, a := range append([]uint32{g.bounce, g.ring.Base}, g.slots...) {
			if a < base || a >= base+xen.GuestHeapStride {
				t.Fatalf("guest %d I/O address %#x outside its heap region [%#x, %#x)", id, a, base, base+xen.GuestHeapStride)
			}
			if prev, dup := seen[a]; dup {
				t.Fatalf("address %#x shared between guests %d and %d", a, prev, id)
			}
			seen[a] = id
		}
	}
	if _, _, err := NewTwinMachine(1, xen.MaxGuests+1, TwinConfig{}); err == nil {
		t.Error("guest count above the heap-layout bound accepted")
	}
}

// TestMultiGuestTransmitContexts: each guest transmits through its own
// bounce buffer and ring from its own context, and every frame reaches the
// wire intact — the "runs in whatever guest context is current" property
// at N guests.
func TestMultiGuestTransmitContexts(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 3, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	got := capture(d)
	var want [][]byte
	for g, dom := range m.Guests {
		m.HV.Switch(dom)
		frames := guestFrames(d, g, 4, 700)
		for _, f := range frames {
			if err := tw.GuestTransmit(d, f); err != nil {
				t.Fatalf("guest %d transmit: %v", g, err)
			}
		}
		want = append(want, frames...)
	}
	if len(*got) != len(want) {
		t.Fatalf("wire saw %d of %d frames", len(*got), len(want))
	}
	for i := range want {
		if !bytes.Equal((*got)[i], want[i]) {
			t.Errorf("frame %d corrupted", i)
		}
	}
}

// TestServiceRingsDrainsAllGuestsOneCrossing: guests stage independently;
// one ServiceRings call (one hypercall, zero domain switches) drains every
// ring.
func TestServiceRingsDrainsAllGuestsOneCrossing(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 4, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	got := capture(d)
	for g, dom := range m.Guests {
		m.HV.Switch(dom)
		staged, err := tw.StageTransmitBatch(dom, guestFrames(d, g, 5, 600))
		if err != nil || staged != 5 {
			t.Fatalf("guest %d staged %d: %v", g, staged, err)
		}
	}
	m.HV.ResetStats()
	sw := m.HV.Switches
	sent, err := tw.ServiceRings(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for id, n := range sent {
		if n != 5 {
			t.Errorf("guest %d sent %d, want 5", id, n)
		}
		total += n
	}
	if total != 20 || len(*got) != 20 {
		t.Fatalf("sent %d wire %d, want 20", total, len(*got))
	}
	if m.HV.Hypercalls != 1 {
		t.Errorf("hypercalls = %d, want 1 for the whole fan-out", m.HV.Hypercalls)
	}
	if m.HV.Switches != sw {
		t.Errorf("ServiceRings performed %d domain switches", m.HV.Switches-sw)
	}
}

// TestServiceRingsRoundRobinFairness: under a budget smaller than the
// backlog, a guest with a deep ring cannot starve a guest with a shallow
// one — consumption round-robins one descriptor per guest per pass.
func TestServiceRingsRoundRobinFairness(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 2, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	capture(d)
	deep, shallow := m.Guests[0], m.Guests[1]
	if _, err := tw.StageTransmitBatch(deep, guestFrames(d, 0, 32, 300)); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.StageTransmitBatch(shallow, guestFrames(d, 1, 4, 300)); err != nil {
		t.Fatal(err)
	}
	sent, err := tw.ServiceRings(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sent[deep.ID] != 4 || sent[shallow.ID] != 4 {
		t.Fatalf("budget-8 service: deep=%d shallow=%d, want 4/4", sent[deep.ID], sent[shallow.ID])
	}
	// The rest stays staged and drains on the next crossings.
	rest, err := tw.ServiceRings(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rest[deep.ID] != 28 || rest[shallow.ID] != 0 {
		t.Fatalf("second service: deep=%d shallow=%d, want 28/0", rest[deep.ID], rest[shallow.ID])
	}
}

// TestHostileRingHeaderContained is the core-level trust-boundary
// regression test: a guest that scribbles its ring's head/tail words must
// not make the hypervisor drain bogus descriptors — the drain refuses with
// ErrRingCorrupt, discards that guest's staged work, leaves other guests
// and the buffer pool intact.
func TestHostileRingHeaderContained(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 2, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	got := capture(d)
	evil, honest := m.Guests[0], m.Guests[1]
	if _, err := tw.StageTransmitBatch(evil, guestFrames(d, 0, 3, 400)); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.StageTransmitBatch(honest, guestFrames(d, 1, 3, 400)); err != nil {
		t.Fatal(err)
	}
	free := tw.PoolFree()
	// The guest scribbles its guest-writable tail word: Len would be ~2^32.
	eio := tw.guestIO[evil.ID]
	if err := evil.AS.Store(eio.ring.Base+8, 4, 0xFFFFFFF0); err != nil {
		t.Fatal(err)
	}
	sent, err := tw.ServiceRings(d, 0)
	if !errors.Is(err, mem.ErrRingCorrupt) {
		t.Fatalf("ServiceRings err = %v, want ErrRingCorrupt", err)
	}
	if sent[evil.ID] != 0 {
		t.Errorf("drained %d descriptors from the corrupt ring", sent[evil.ID])
	}
	if tw.PoolFree() != free {
		t.Errorf("pool leaked: %d -> %d", free, tw.PoolFree())
	}
	if tw.Dead {
		t.Fatal("a scribbled ring header killed the driver instance")
	}
	// The evil guest's staged work is discarded; the honest guest's ring
	// still drains on the next crossing.
	wire := len(*got)
	sent, err = tw.ServiceRings(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sent[honest.ID] != 3 || sent[evil.ID] != 0 {
		t.Fatalf("post-recovery service: %v", sent)
	}
	if len(*got)-wire != 3 {
		t.Errorf("honest guest's frames lost: wire grew %d", len(*got)-wire)
	}
	// The hostile header also cannot make the guest-side Push overwrite:
	// batch transmit from the evil guest errors cleanly until reset.
	m.HV.Switch(evil)
	if err := evil.AS.Store(eio.ring.Base+8, 4, 0xFFFFFFF0); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.GuestTransmitBatch(d, guestFrames(d, 0, 2, 400)); !errors.Is(err, mem.ErrRingCorrupt) {
		t.Fatalf("GuestTransmitBatch on corrupt ring = %v, want ErrRingCorrupt", err)
	}
	// GuestTransmitBatch reset the ring on the way out: transmit works again.
	if sent, err := tw.GuestTransmitBatch(d, guestFrames(d, 0, 2, 400)); err != nil || sent != 2 {
		t.Fatalf("post-reset batch: sent=%d err=%v", sent, err)
	}
}

// TestSweepEndCountsOnlyConsumedDescriptors is the regression test for
// the sweep's consumed count: a corrupt ring header — on the staged ring
// or the posted-TX ring — fails the sweep before any descriptor is
// popped, so the count EvSweepEnd reports must equal the frames the wire
// saw, not one more.
func TestSweepEndCountsOnlyConsumedDescriptors(t *testing.T) {
	for _, ring := range []string{"staged", "posted"} {
		t.Run(ring, func(t *testing.T) {
			tr := telemetry.New(0)
			m, tw, err := NewTwinMachine(1, 2, TwinConfig{Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			d := m.Devs[0]
			got := capture(d)
			honest, evil := m.Guests[0], m.Guests[1]
			if _, err := tw.StageTransmitBatch(honest, guestFrames(d, 0, 3, 400)); err != nil {
				t.Fatal(err)
			}
			eio := tw.guestIO[evil.ID]
			scribbled := eio.txRing
			if ring == "staged" {
				scribbled = eio.ring
				if _, err := tw.StageTransmitBatch(evil, guestFrames(d, 1, 3, 400)); err != nil {
					t.Fatal(err)
				}
			}
			// The guest scribbles its guest-writable tail word.
			if err := evil.AS.Store(scribbled.Base+8, 4, 0xFFFFFFF0); err != nil {
				t.Fatal(err)
			}
			// Round-robin reaches the evil guest after one honest frame.
			if _, err := tw.ServiceRings(d, 0); !errors.Is(err, mem.ErrRingCorrupt) {
				t.Fatalf("ServiceRings err = %v, want ErrRingCorrupt", err)
			}
			var ends []telemetry.Event
			for _, e := range tw.qLanes[0].Events() {
				if e.Kind == telemetry.EvSweepEnd {
					ends = append(ends, e)
				}
			}
			if len(ends) != 1 {
				t.Fatalf("recorded %d sweep ends, want 1", len(ends))
			}
			if len(*got) != 1 || ends[0].B != uint64(len(*got)) {
				t.Fatalf("EvSweepEnd reports %d consumed, the wire saw %d frames (want 1)", ends[0].B, len(*got))
			}
		})
	}
}

// TestMultiGuestReceiveCoalescedPerGuest: receive demux delivers each
// guest's packets to its own queue, and a batch window raises exactly one
// notification per guest.
func TestMultiGuestReceiveCoalescedPerGuest(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 3, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	macs := make([][6]byte, len(m.Guests))
	for g, dom := range m.Guests {
		macs[g] = [6]byte{0x02, 0x54, 0x57, 0x49, 0x4E, byte(g)}
		tw.RegisterGuestMAC(macs[g], dom.ID)
	}
	m.HV.Switch(m.DomU)
	const per = 4
	want := make([][][]byte, len(m.Guests))
	for i := 0; i < per; i++ {
		for g := range m.Guests {
			f := EthernetFrame(macs[g], [6]byte{1, 1, 1, 1, 1, byte(i)}, 0x0800, payload(500, byte(g*8+i)))
			if !d.NIC.Inject(f) {
				t.Fatal("inject")
			}
			want[g] = append(want[g], f)
		}
	}
	// One interrupt drains the NIC for everybody.
	if err := tw.HandleIRQ(d); err != nil {
		t.Fatal(err)
	}
	for g, dom := range m.Guests {
		if n := tw.PendingRx(dom.ID); n != per {
			t.Fatalf("guest %d pending = %d, want %d", g, n, per)
		}
	}
	ev := m.HV.Events
	tw.Coalescer.Begin()
	for g, dom := range m.Guests {
		// Two partial deliveries per guest: still one notification each.
		for k := 0; k < 2; k++ {
			pkts, err := tw.DeliverPendingBatch(dom, per/2)
			if err != nil {
				t.Fatal(err)
			}
			for j, pkt := range pkts {
				if !bytes.Equal(pkt, want[g][k*per/2+j]) {
					t.Errorf("guest %d packet %d corrupted", g, k*per/2+j)
				}
			}
		}
	}
	tw.Coalescer.End()
	if got := m.HV.Events - ev; got != uint64(len(m.Guests)) {
		t.Errorf("window raised %d notifications, want one per guest (%d)", got, len(m.Guests))
	}
}

// TestCopyDeliveryBuffersArePerGuest: a copy delivery's frames live in
// buffers the guest's receive queue reuses, valid until the next delivery
// to the same guest — so deliveries to another guest, of more and larger
// frames than the first guest's buffer holds, must leave them intact.
func TestCopyDeliveryBuffersArePerGuest(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 2, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	macs := make([][6]byte, len(m.Guests))
	for g, dom := range m.Guests {
		macs[g] = [6]byte{0x02, 0x54, 0x57, 0x49, 0x4E, byte(g)}
		tw.RegisterGuestMAC(macs[g], dom.ID)
	}
	m.HV.Switch(m.DomU)
	deliver := func(g, n, size int, seed byte) (got, want [][]byte) {
		for i := 0; i < n; i++ {
			f := EthernetFrame(macs[g], [6]byte{1, 1, 1, 1, 1, byte(i)}, 0x0800, payload(size, seed+byte(i)))
			if !d.NIC.Inject(f) {
				t.Fatal("inject")
			}
			want = append(want, f)
		}
		if err := tw.HandleIRQ(d); err != nil {
			t.Fatal(err)
		}
		got, err := tw.DeliverPending(m.Guests[g])
		if err != nil || len(got) != n {
			t.Fatalf("guest %d: delivered %d of %d: %v", g, len(got), n, err)
		}
		return got, want
	}
	gotA, wantA := deliver(0, 2, 300, 0x10)
	deliver(1, 4, 1400, 0x20)
	deliver(1, 4, 1400, 0x30)
	for i := range wantA {
		if !bytes.Equal(gotA[i], wantA[i]) {
			t.Errorf("guest 0 frame %d changed under deliveries to guest 1", i)
		}
	}
}

// TestStageOnFullRingDoesNotClobber: on a full ring the producer slot
// aliases the oldest unconsumed descriptor's staging buffer, so staging
// must refuse BEFORE writing — otherwise backpressure silently corrupts a
// staged frame.
func TestStageOnFullRingDoesNotClobber(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 1, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	got := capture(d)
	frames := guestFrames(d, 0, TxRingSlots, 500)
	if staged, err := tw.StageTransmitBatch(m.DomU, frames); err != nil || staged != TxRingSlots {
		t.Fatalf("staged %d: %v", staged, err)
	}
	// Ring is full: further staging must stop at zero without touching
	// the staged bytes.
	extra := guestFrames(d, 1, 2, 500)
	if staged, err := tw.StageTransmitBatch(m.DomU, extra); err != nil || staged != 0 {
		t.Fatalf("staged %d on a full ring: %v", staged, err)
	}
	sent, err := tw.ServiceRings(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sent[m.DomU.ID] != TxRingSlots || len(*got) != TxRingSlots {
		t.Fatalf("sent %v wire %d", sent, len(*got))
	}
	for i, f := range frames {
		if !bytes.Equal((*got)[i], f) {
			t.Fatalf("frame %d corrupted by staging onto a full ring", i)
		}
	}
	// And the refused frames stage cleanly once space frees up.
	if staged, err := tw.StageTransmitBatch(m.DomU, extra); err != nil || staged != 2 {
		t.Fatalf("post-drain staging: %d, %v", staged, err)
	}
}
