package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
)

// batchFrames builds n distinct frames for device d.
func batchFrames(d *NICDev, n, size int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = EthernetFrame([6]byte{2, 2, 2, 2, 2, byte(i)}, d.NIC.MAC, 0x0800, payload(size, byte(i)))
	}
	return frames
}

func TestBatchTransmitDeliversAllFramesInOrder(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 1, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	got := capture(d)
	m.HV.Switch(m.DomU)
	sw := m.HV.Switches

	frames := batchFrames(d, 10, 800)
	sent, err := tw.GuestTransmitBatch(d, frames)
	if err != nil {
		t.Fatalf("batch transmit: %v", err)
	}
	if sent != len(frames) {
		t.Fatalf("sent = %d, want %d", sent, len(frames))
	}
	if len(*got) != len(frames) {
		t.Fatalf("wire saw %d packets", len(*got))
	}
	for i, f := range frames {
		if !bytes.Equal((*got)[i], f) {
			t.Errorf("frame %d corrupted through the ring + frag chain", i)
		}
	}
	if m.HV.Switches != sw {
		t.Errorf("batch transmit performed %d domain switches", m.HV.Switches-sw)
	}
}

// TestBatchOfOneIsCycleIdentical is the load-bearing equivalence: a batch
// of one — through GuestTransmitBatch, or staged and drained by a
// ServiceRings crossing budgeted to one descriptor — must charge exactly
// the cycles, hypercalls and events of the per-packet GuestTransmit, so
// all existing per-packet results stay valid. All three run with nil
// Weights (the one sweep, every guest weighing 1), once with the default
// hypervisor support and once with the two spinlock routines turned into
// upcalls: two upcalls per invocation, whose dom0 notifications a batch
// of one must not coalesce.
func TestBatchOfOneIsCycleIdentical(t *testing.T) {
	upcalls := slices.DeleteFunc(DefaultHvSupport(), func(name string) bool {
		return name == "spin_trylock" || name == "spin_unlock_irqrestore"
	})
	t.Run("default", func(t *testing.T) { batchOfOneMatches(t, TwinConfig{}) })
	t.Run("upcalls", func(t *testing.T) { batchOfOneMatches(t, TwinConfig{HvSupport: upcalls}) })
}

func batchOfOneMatches(t *testing.T, cfg TwinConfig) {
	type charges struct {
		total              uint64
		perComp            string
		hypercalls, events uint64
	}
	run := func(send func(tw *Twin, m *Machine, d *NICDev, frame []byte) error) charges {
		m, tw, err := NewTwinMachine(1, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := m.Devs[0]
		d.NIC.OnTransmit = func([]byte) {}
		m.HV.Switch(m.DomU)
		m.HV.Meter.Reset()
		m.HV.ResetStats()
		for i := 0; i < 50; i++ {
			frame := EthernetFrame([6]byte{2, 2, 2, 2, 2, 2}, d.NIC.MAC, 0x0800, payload(1200, byte(i)))
			if err := send(tw, m, d, frame); err != nil {
				t.Fatal(err)
			}
		}
		return charges{m.HV.Meter.Total(), m.HV.Meter.String(), m.HV.Hypercalls, m.HV.Events}
	}
	perPacket := run(func(tw *Twin, m *Machine, d *NICDev, frame []byte) error {
		return tw.GuestTransmit(d, frame)
	})
	batchOfOne := map[string]charges{
		"GuestTransmitBatch": run(func(tw *Twin, m *Machine, d *NICDev, frame []byte) error {
			_, err := tw.GuestTransmitBatch(d, [][]byte{frame})
			return err
		}),
		"budgeted ServiceRings": run(func(tw *Twin, m *Machine, d *NICDev, frame []byte) error {
			// The first round stages a frame extra, so one always stays
			// behind: every crossing is cut short by its budget of one.
			frames := [][]byte{frame}
			if n, _ := tw.StagedTx(m.DomU.ID); n == 0 {
				frames = append(frames, frame)
			}
			if _, err := tw.StageTransmitBatch(m.DomU, frames); err != nil {
				return err
			}
			sent, err := tw.ServiceRings(d, 1)
			if err == nil && sent[m.DomU.ID] != 1 {
				err = fmt.Errorf("budgeted crossing sent %d", sent[m.DomU.ID])
			}
			return err
		}),
	}
	for name, got := range batchOfOne {
		if got != perPacket {
			t.Errorf("%s of one differs from per-packet:\n got  %+v\n want %+v", name, got, perPacket)
		}
	}
}

func TestBatchLargerThanRingIsChunked(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 1, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	got := capture(d)
	m.HV.Switch(m.DomU)
	m.HV.ResetStats()

	const n = 2*TxRingSlots + 7 // 71: three ring-sized chunks
	sent, err := tw.GuestTransmitBatch(d, batchFrames(d, n, 600))
	if err != nil {
		t.Fatal(err)
	}
	if sent != n || len(*got) != n {
		t.Fatalf("sent = %d wire = %d, want %d", sent, len(*got), n)
	}
	if want := uint64(3); m.HV.Hypercalls != want {
		t.Errorf("hypercalls = %d, want %d (one per ring-full)", m.HV.Hypercalls, want)
	}
}

func TestBatchRejectsOversizedFrame(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 1, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	got := capture(d)
	m.HV.Switch(m.DomU)

	frames := batchFrames(d, 3, 600)
	frames[1] = make([]byte, TxSlotBytes+1)
	sent, err := tw.GuestTransmitBatch(d, frames)
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
	if sent != 0 || len(*got) != 0 {
		t.Errorf("sent %d / wire %d frames despite validation failure", sent, len(*got))
	}
}

func TestBatchPartialOnPoolExhaustion(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 1, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	d.NIC.OnTransmit = func([]byte) {}
	m.HV.Switch(m.DomU)

	// Leave exactly one pooled sk_buff: the driver's tx clean cannot
	// recycle it before the next frame asks, so the batch completes short
	// with ErrTxBusy, reporting how many frames went out.
	for tw.PoolFree() > 1 {
		if _, ok := tw.poolGet(); !ok {
			t.Fatal("pool drain failed")
		}
	}
	sent, err := tw.GuestTransmitBatch(d, batchFrames(d, 8, 600))
	if !errors.Is(err, ErrTxBusy) {
		t.Fatalf("err = %v, want ErrTxBusy (sent=%d)", err, sent)
	}
	if sent < 1 || sent >= 8 {
		t.Errorf("sent = %d, want a short but nonzero count", sent)
	}
	// The ring was cleaned up: a refilled pool transmits normally again.
	for i := 0; i < 8; i++ {
		tw.poolPut(m.K.AllocSkb(0))
	}
	if ln, _ := tw.guestIO[m.DomU.ID].ring.Len(); ln != 0 {
		t.Fatalf("ring still holds %d stale descriptors", ln)
	}
}

func TestBatchReceiveSingleIRQDrainsAll(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 1, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	m.HV.Switch(m.DomU)

	const n = 24
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = EthernetFrame(d.NIC.MAC, [6]byte{3, 3, 3, 3, 3, byte(i)}, 0x0800, payload(900, byte(i)))
		if !d.NIC.Inject(frames[i]) {
			t.Fatalf("inject %d failed", i)
		}
	}
	// One coalesced interrupt services the whole burst.
	if err := tw.HandleIRQ(d); err != nil {
		t.Fatal(err)
	}
	if got := tw.PendingRx(m.DomU.ID); got != n {
		t.Fatalf("pending rx after one IRQ = %d, want %d", got, n)
	}
	ev := m.HV.Events
	pkts, err := tw.DeliverPendingBatch(m.DomU, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != n {
		t.Fatalf("delivered %d", len(pkts))
	}
	for i := range pkts {
		if !bytes.Equal(pkts[i], frames[i]) {
			t.Errorf("packet %d corrupted", i)
		}
	}
	if m.HV.Events-ev != 1 {
		t.Errorf("batch delivery raised %d guest notifications, want 1", m.HV.Events-ev)
	}
}

func TestDeliverPendingBatchBoundsTheBatch(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 1, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	m.HV.Switch(m.DomU)
	for i := 0; i < 5; i++ {
		if !d.NIC.Inject(EthernetFrame(d.NIC.MAC, [6]byte{3, 3, 3, 3, 3, byte(i)}, 0x0800, payload(200, byte(i)))) {
			t.Fatal("inject failed")
		}
	}
	if err := tw.HandleIRQ(d); err != nil {
		t.Fatal(err)
	}
	pkts, err := tw.DeliverPendingBatch(m.DomU, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 3 || tw.PendingRx(m.DomU.ID) != 2 {
		t.Fatalf("first call: %d delivered, %d pending", len(pkts), tw.PendingRx(m.DomU.ID))
	}
	pkts, err = tw.DeliverPendingBatch(m.DomU, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 2 || tw.PendingRx(m.DomU.ID) != 0 {
		t.Fatalf("second call: %d delivered, %d pending", len(pkts), tw.PendingRx(m.DomU.ID))
	}
}

func TestBatchCoalescesNotificationsInsideWindow(t *testing.T) {
	m, tw, err := NewTwinMachine(1, 1, TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	m.HV.Switch(m.DomU)
	for i := 0; i < 4; i++ {
		if !d.NIC.Inject(EthernetFrame(d.NIC.MAC, [6]byte{3, 3, 3, 3, 3, byte(i)}, 0x0800, payload(200, byte(i)))) {
			t.Fatal("inject failed")
		}
	}
	if err := tw.HandleIRQ(d); err != nil {
		t.Fatal(err)
	}
	ev := m.HV.Events
	tw.Coalescer.Begin()
	for i := 0; i < 2; i++ {
		if _, err := tw.DeliverPendingBatch(m.DomU, 2); err != nil {
			t.Fatal(err)
		}
	}
	tw.Coalescer.End()
	if m.HV.Events-ev != 1 {
		t.Errorf("window raised %d notifications, want 1", m.HV.Events-ev)
	}
	if tw.Coalescer.Coalesced == 0 {
		t.Error("coalescer absorbed nothing")
	}
}

// TestBatchUpcallIRQCoalescing: with a support routine demoted to an
// upcall, a batch performs the upcall per frame (the routine must still
// run) but the virtual-interrupt deliveries to dom0 coalesce to one per
// batch window.
func TestBatchUpcallIRQCoalescing(t *testing.T) {
	sup := []string{}
	for _, n := range DefaultHvSupport() {
		if n != "spin_unlock_irqrestore" {
			sup = append(sup, n)
		}
	}
	m, tw, err := NewTwinMachine(1, 1, TwinConfig{HvSupport: sup})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	d.NIC.OnTransmit = func([]byte) {}
	m.HV.Switch(m.DomU)

	const n = 8
	up0 := tw.UpcallsPerformed()
	del0, co0 := tw.Coalescer.Delivered, tw.Coalescer.Coalesced
	sent, err := tw.GuestTransmitBatch(d, batchFrames(d, n, 600))
	if err != nil || sent != n {
		t.Fatalf("sent = %d err = %v", sent, err)
	}
	ups := tw.UpcallsPerformed() - up0
	if ups < n {
		t.Fatalf("upcalls = %d, want >= %d (one per frame)", ups, n)
	}
	delivered := tw.Coalescer.Delivered - del0
	coalesced := tw.Coalescer.Coalesced - co0
	if delivered != 1 {
		t.Errorf("dom0 IRQ deliveries = %d, want 1 per batch", delivered)
	}
	if coalesced != ups-1 {
		t.Errorf("coalesced = %d, want %d", coalesced, ups-1)
	}
}
