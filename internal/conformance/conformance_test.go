// Package conformance proves the driver-generic claim: one table of
// behaviors — bring-up, burst TX/RX, batch-of-one cycle identity,
// hostile-header containment, fault → recovery → replay, management ops —
// executed against EVERY registered NIC backend, with no backend-specific
// skips. A third backend registering itself lands under the same contract
// automatically.
package conformance

import (
	"bytes"
	"errors"
	"testing"

	"twindrivers/internal/core"
	"twindrivers/internal/cpu"
	"twindrivers/internal/drivermodel"
	"twindrivers/internal/kernel"
	"twindrivers/internal/netpath"
	"twindrivers/internal/recovery"

	// Link every backend under test.
	_ "twindrivers/internal/e1000"
	_ "twindrivers/internal/mqnic"
	_ "twindrivers/internal/rtl8139"
)

// backends returns every registered model; the suite refuses to run
// against fewer than two (one data point proves nothing).
func backends(t *testing.T) []*drivermodel.Model {
	t.Helper()
	ms := drivermodel.All()
	if len(ms) < 2 {
		t.Fatalf("conformance needs at least two registered backends, have %v", drivermodel.Names())
	}
	return ms
}

// newTwin brings up a twinned machine of the given backend.
func newTwin(t *testing.T, m *drivermodel.Model, guests int, cfg core.TwinConfig) (*core.Machine, *core.Twin) {
	t.Helper()
	mach, tw, err := core.NewTwinMachineModel(1, guests, m, cfg)
	if err != nil {
		t.Fatalf("%s: bring-up: %v", m.Name, err)
	}
	return mach, tw
}

// frame builds a distinct test frame. The MAC pair is fixed — every test
// frame belongs to ONE flow — because a multi-queue device steers received
// frames by flow hash and only guarantees delivery order within a flow;
// the frames stay distinguishable through the id-patterned payload.
func frame(size int, id byte) []byte {
	payload := make([]byte, size-14)
	for i := range payload {
		payload[i] = id ^ byte(i*7)
	}
	return core.EthernetFrame([6]byte{2, 2, 2, 2, 2, 2}, [6]byte{0x02, 0x51, 0x52, 0, 0, 1}, 0x0800, payload)
}

// capture wires a device's transmit side to a slice.
func capture(d *core.NICDev) *[][]byte {
	var wire [][]byte
	d.Dev.SetOnTransmit(func(p []byte) { wire = append(wire, append([]byte(nil), p...)) })
	return &wire
}

// TestConformance runs the shared behavior table against every backend.
func TestConformance(t *testing.T) {
	behaviors := []struct {
		name string
		run  func(t *testing.T, m *drivermodel.Model)
	}{
		{"bringup", checkBringup},
		{"burst-tx", checkBurstTx},
		{"burst-rx", checkBurstRx},
		{"posted-rx", checkPostedRx},
		{"posted-hostile-descriptor", checkPostedHostile},
		{"posted-tx", checkPostedTx},
		{"posted-tx-hostile-descriptor", checkPostedTxHostile},
		{"batch1-cycle-identity", checkBatchOfOneIdentity},
		{"hostile-header-containment", checkHostileHeader},
		{"fault-recovery-replay", checkFaultRecoveryReplay},
		{"management-stats", checkManagementStats},
		{"mq-steering-stable", checkMQSteeringStable},
		{"mq-hostile-descriptor", checkMQHostileDescriptor},
		{"switch-unicast-learning", checkSwitchUnicastLearning},
		{"switch-broadcast-fanout", checkSwitchBroadcastFanout},
		{"switch-mac-spoof-isolated", checkSwitchMacSpoofIsolated},
		{"contended-switched-shares", checkContendedSwitchedShares},
	}
	for _, m := range backends(t) {
		for _, b := range behaviors {
			t.Run(m.Name+"/"+b.name, func(t *testing.T) { b.run(t, m) })
		}
	}
}

// checkBringup: probe + open through the VM instance left the device and
// the kernel in operating state.
func checkBringup(t *testing.T, m *drivermodel.Model) {
	mach, tw := newTwin(t, m, 1, core.TwinConfig{})
	d := mach.Devs[0]
	if !d.Dev.LinkUp() {
		t.Error("link down after bring-up")
	}
	if got := len(mach.K.Netdevs()); got != 1 {
		t.Errorf("register_netdev count = %d", got)
	}
	flags, _ := mach.Dom0.AS.Load(d.Netdev+kernel.NdFlags, 4)
	if flags&kernel.NdFlagQueueStopped != 0 {
		t.Error("queue stopped after open")
	}
	if flags&kernel.NdFlagUp == 0 {
		t.Error("netdev not marked up")
	}
	if mach.K.PendingTimers() < 1 {
		t.Error("watchdog not armed by open")
	}
	// The derived instance resolved the model's hot-path entries.
	if tw.HVImage == nil || tw.RewriteStats == nil {
		t.Fatal("no derived hypervisor instance")
	}
	if _, ok := tw.HVImage.FuncEntry(m.Entries.Xmit); !ok {
		t.Errorf("derived image lacks %s", m.Entries.Xmit)
	}
	if _, ok := tw.HVImage.FuncEntry(m.Entries.Intr); !ok {
		t.Errorf("derived image lacks %s", m.Entries.Intr)
	}
}

// checkBurstTx: a batched guest transmit delivers every frame byte-exact,
// in order, without a domain switch.
func checkBurstTx(t *testing.T, m *drivermodel.Model) {
	mach, tw := newTwin(t, m, 1, core.TwinConfig{})
	d := mach.Devs[0]
	wire := capture(d)
	mach.HV.Switch(mach.DomU)
	sw := mach.HV.Switches

	frames := make([][]byte, 24)
	for i := range frames {
		frames[i] = frame(60+i*60, byte(i))
	}
	sent, err := tw.GuestTransmitBatch(d, frames)
	if err != nil || sent != len(frames) {
		t.Fatalf("sent %d of %d: %v", sent, len(frames), err)
	}
	if len(*wire) != len(frames) {
		t.Fatalf("wire saw %d packets", len(*wire))
	}
	for i := range frames {
		if !bytes.Equal((*wire)[i], frames[i]) {
			t.Errorf("frame %d corrupted (%d vs %d bytes)", i, len((*wire)[i]), len(frames[i]))
		}
	}
	if mach.HV.Switches != sw {
		t.Errorf("transmit burst performed %d domain switches", mach.HV.Switches-sw)
	}
}

// checkBurstRx: one coalesced interrupt drains an injected burst; delivery
// hands the guest byte-exact frames under a single notification.
func checkBurstRx(t *testing.T, m *drivermodel.Model) {
	mach, tw := newTwin(t, m, 1, core.TwinConfig{})
	d := mach.Devs[0]
	mach.HV.Switch(mach.DomU)

	frames := make([][]byte, 24)
	for i := range frames {
		frames[i] = frame(60+i*60, byte(0x40+i))
		if !d.Dev.Inject(frames[i]) {
			t.Fatalf("inject %d", i)
		}
	}
	if err := tw.HandleIRQ(d); err != nil {
		t.Fatal(err)
	}
	if got := tw.PendingRx(mach.DomU.ID); got != len(frames) {
		t.Fatalf("one IRQ queued %d of %d", got, len(frames))
	}
	ev := mach.HV.Events
	pkts, err := tw.DeliverPendingBatch(mach.DomU, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != len(frames) {
		t.Fatalf("delivered %d", len(pkts))
	}
	for i := range pkts {
		if !bytes.Equal(pkts[i], frames[i]) {
			t.Errorf("packet %d corrupted", i)
		}
	}
	if mach.HV.Events-ev != 1 {
		t.Errorf("burst delivery raised %d notifications, want 1", mach.HV.Events-ev)
	}
	if _, _, missed := d.Dev.Counters(); missed != 0 {
		t.Errorf("device missed %d packets", missed)
	}
}

// checkPostedRx: the posted-buffer receive path delivers a burst
// byte-exact straight into guest-posted buffers, in order, with zero loss
// and one coalesced notification — per backend.
func checkPostedRx(t *testing.T, m *drivermodel.Model) {
	mach, tw := newTwin(t, m, 1, core.TwinConfig{})
	d := mach.Devs[0]
	mach.HV.Switch(mach.DomU)

	const n = 16
	var bufs []uint32
	var posts []core.RxPost
	for i := 0; i < n; i++ {
		b := mach.HV.AllocHeap(mach.DomU, 2048)
		bufs = append(bufs, b)
		posts = append(posts, core.RxPost{Addr: b, Len: 2048})
	}
	if posted, err := tw.PostRxBuffers(mach.DomU, posts); err != nil || posted != n {
		t.Fatalf("posted %d of %d: %v", posted, n, err)
	}
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = frame(60+i*90, byte(0x60+i))
		if !d.Dev.Inject(frames[i]) {
			t.Fatalf("inject %d", i)
		}
	}
	if err := tw.HandleIRQ(d); err != nil {
		t.Fatal(err)
	}
	ev := mach.HV.Events
	del, err := tw.DeliverPendingPosted(mach.DomU, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(del.Frames) != n || del.Lost != 0 {
		t.Fatalf("delivered %d lost %d, want %d/0", len(del.Frames), del.Lost, n)
	}
	if mach.HV.Events-ev != 1 {
		t.Errorf("posted burst raised %d notifications, want 1", mach.HV.Events-ev)
	}
	for i, fr := range del.Frames {
		if fr.Addr != bufs[i] {
			t.Errorf("frame %d landed at %#x, posted %#x", i, fr.Addr, bufs[i])
		}
		got, err := mach.DomU.AS.ReadBytes(fr.Addr, fr.Len)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, frames[i]) {
			t.Errorf("frame %d corrupted in posted buffer", i)
		}
	}
}

// checkPostedHostile: a hostile posted descriptor (hypervisor-range
// address) loses exactly its own frame and moves no hypervisor byte; the
// twin survives and the neighbouring honest descriptor still delivers.
func checkPostedHostile(t *testing.T, m *drivermodel.Model) {
	mach, tw := newTwin(t, m, 1, core.TwinConfig{})
	d := mach.Devs[0]
	mach.HV.Switch(mach.DomU)

	good := mach.HV.AllocHeap(mach.DomU, 2048)
	hvAddr := tw.HVImage.CodeBase
	hvBefore, _ := mach.HV.HVSpace.Load(hvAddr, 4)
	posts := []core.RxPost{
		{Addr: hvAddr, Len: 4096},
		{Addr: good, Len: 2048},
	}
	if n, err := tw.PostRxBuffers(mach.DomU, posts); err != nil || n != 2 {
		t.Fatalf("post: %d, %v", n, err)
	}
	f1, f2 := frame(400, 0x71), frame(500, 0x72)
	for _, f := range [][]byte{f1, f2} {
		if !d.Dev.Inject(f) {
			t.Fatal("inject")
		}
	}
	if err := tw.HandleIRQ(d); err != nil {
		t.Fatal(err)
	}
	del, err := tw.DeliverPendingPosted(mach.DomU, 0)
	if err != nil {
		t.Fatalf("hostile descriptor errored the batch: %v", err)
	}
	if tw.Dead {
		t.Fatal("hostile posted descriptor killed the twin")
	}
	if len(del.Frames) != 1 || del.Lost != 1 {
		t.Fatalf("delivered %d lost %d, want 1/1", len(del.Frames), del.Lost)
	}
	if got, _ := mach.DomU.AS.ReadBytes(good, len(f2)); !bytes.Equal(got, f2) {
		t.Error("honest delivery corrupted")
	}
	if v, _ := mach.HV.HVSpace.Load(hvAddr, 4); v != hvBefore {
		t.Error("hostile descriptor wrote hypervisor memory")
	}
}

// checkPostedTx: the posted-descriptor transmit path puts a burst of
// guest-resident frames on the wire byte-exact, in order, with zero loss
// and without a domain switch — per backend, whether the backend chains
// the pinned guest pages zero-copy (e1000, mqnic) or falls back to the
// hypervisor-side bounce copy (rtl8139).
func checkPostedTx(t *testing.T, m *drivermodel.Model) {
	mach, tw := newTwin(t, m, 1, core.TwinConfig{})
	d := mach.Devs[0]
	wire := capture(d)
	mach.HV.Switch(mach.DomU)
	sw := mach.HV.Switches

	const n = 16
	frames := make([][]byte, n)
	descs := make([]core.TxPost, n)
	for i := range frames {
		frames[i] = frame(60+i*90, byte(0x80+i))
		buf := mach.HV.AllocHeap(mach.DomU, 2048)
		if err := mach.DomU.AS.WriteBytes(buf, frames[i]); err != nil {
			t.Fatal(err)
		}
		descs[i] = core.TxPost{Addr: buf, Len: uint32(len(frames[i]))}
	}
	if posted, err := tw.PostTxDescriptors(mach.DomU, descs); err != nil || posted != n {
		t.Fatalf("posted %d of %d: %v", posted, n, err)
	}
	sent, err := tw.ServiceRings(d, 0)
	if err != nil || sent[mach.DomU.ID] != n {
		t.Fatalf("serviced %d of %d: %v", sent[mach.DomU.ID], n, err)
	}
	if lost := tw.PostedTxLost(mach.DomU.ID); lost != 0 {
		t.Fatalf("lost %d posted frames", lost)
	}
	if len(*wire) != n {
		t.Fatalf("wire saw %d packets", len(*wire))
	}
	for i := range frames {
		if !bytes.Equal((*wire)[i], frames[i]) {
			t.Errorf("frame %d corrupted (%d vs %d bytes)", i, len((*wire)[i]), len(frames[i]))
		}
	}
	if mach.HV.Switches != sw {
		t.Errorf("posted transmit performed %d domain switches", mach.HV.Switches-sw)
	}
}

// checkPostedTxHostile: a hostile posted-TX descriptor (hypervisor-range
// address) loses exactly its own frame and moves no hypervisor byte; the
// twin survives and the neighbouring honest descriptor still transmits.
func checkPostedTxHostile(t *testing.T, m *drivermodel.Model) {
	mach, tw := newTwin(t, m, 1, core.TwinConfig{})
	d := mach.Devs[0]
	wire := capture(d)
	mach.HV.Switch(mach.DomU)

	honest := frame(500, 0x92)
	good := mach.HV.AllocHeap(mach.DomU, 2048)
	if err := mach.DomU.AS.WriteBytes(good, honest); err != nil {
		t.Fatal(err)
	}
	hvAddr := tw.HVImage.CodeBase
	hvBefore, _ := mach.HV.HVSpace.Load(hvAddr, 4)
	descs := []core.TxPost{
		{Addr: hvAddr, Len: 400},
		{Addr: good, Len: uint32(len(honest))},
	}
	if n, err := tw.PostTxDescriptors(mach.DomU, descs); err != nil || n != 2 {
		t.Fatalf("post: %d, %v", n, err)
	}
	sent, err := tw.ServiceRings(d, 0)
	if err != nil {
		t.Fatalf("hostile descriptor errored the sweep: %v", err)
	}
	if tw.Dead {
		t.Fatal("hostile posted-TX descriptor killed the twin")
	}
	if sent[mach.DomU.ID] != 1 || tw.PostedTxLost(mach.DomU.ID) != 1 {
		t.Fatalf("sent %d lost %d, want 1/1", sent[mach.DomU.ID], tw.PostedTxLost(mach.DomU.ID))
	}
	if len(*wire) != 1 || !bytes.Equal((*wire)[0], honest) {
		t.Fatalf("honest transmit corrupted (wire %d frames)", len(*wire))
	}
	if v, _ := mach.HV.HVSpace.Load(hvAddr, 4); v != hvBefore {
		t.Error("hostile descriptor wrote hypervisor memory")
	}
}

// checkBatchOfOneIdentity: a batch of one charges exactly the cycles,
// hypercalls and events of the per-packet path — per backend.
func checkBatchOfOneIdentity(t *testing.T, m *drivermodel.Model) {
	run := func(batched bool) (total uint64, comp string, hypercalls, events uint64) {
		mach, tw := newTwin(t, m, 1, core.TwinConfig{})
		d := mach.Devs[0]
		d.Dev.SetOnTransmit(func([]byte) {})
		mach.HV.Switch(mach.DomU)
		mach.HV.Meter.Reset()
		mach.HV.ResetStats()
		for i := 0; i < 30; i++ {
			f := frame(1200, byte(i))
			if batched {
				if _, err := tw.GuestTransmitBatch(d, [][]byte{f}); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := tw.GuestTransmit(d, f); err != nil {
					t.Fatal(err)
				}
			}
		}
		return mach.HV.Meter.Total(), mach.HV.Meter.String(), mach.HV.Hypercalls, mach.HV.Events
	}
	pTotal, pComp, pHC, pEv := run(false)
	bTotal, bComp, bHC, bEv := run(true)
	if pTotal != bTotal || pComp != bComp {
		t.Errorf("cycles differ: per-packet %d (%s), batch-of-1 %d (%s)", pTotal, pComp, bTotal, bComp)
	}
	if pHC != bHC || pEv != bEv {
		t.Errorf("transitions differ: hc %d vs %d, ev %d vs %d", pHC, bHC, pEv, bEv)
	}
}

// checkHostileHeader: a guest scribbling its ring's guest-writable header
// words is contained — the corrupt ring is reported and reset, the twin
// stays alive, and the other guest's staged traffic still drains.
func checkHostileHeader(t *testing.T, m *drivermodel.Model) {
	mach, tw := newTwin(t, m, 2, core.TwinConfig{})
	d := mach.Devs[0]
	wire := capture(d)
	g1, g2 := mach.Guests[0], mach.Guests[1]

	// Stage honest work on guest 2.
	honest := [][]byte{frame(300, 0xB1), frame(500, 0xB2)}
	if n, err := tw.StageTransmitBatch(g2, honest); err != nil || n != 2 {
		t.Fatalf("stage: %d, %v", n, err)
	}
	// Guest 1 scribbles its ring tail word (base+8 — see mem/ring.go's
	// header layout) with a hostile value.
	var base uint32
	for _, ev := range mach.Config.Events {
		if ev.Op == core.OpRing && ev.Dom == g1.ID {
			base = ev.Addr
		}
	}
	if base == 0 {
		t.Fatal("no recorded ring base for guest 1")
	}
	if err := g1.AS.Store(base+8, 4, 0xFFFF0000); err != nil {
		t.Fatal(err)
	}

	// The first sweep must report the corruption without dying. On a
	// multi-queue twin the sweep continues past the corrupt queue and
	// drains guest 2's queue in the same pass; on a single-queue twin
	// guest 2 drains on the sweep after the reset. Either way guest 2's
	// traffic is on the wire byte-exact within two sweeps.
	sent1, err := tw.ServiceRings(d, 0)
	if err == nil {
		t.Fatal("hostile ring header accepted")
	}
	if tw.Dead {
		t.Fatal("hostile header killed the twin (should be contained)")
	}
	sent2, err := tw.ServiceRings(d, 0)
	if err != nil {
		t.Fatalf("post-containment sweep: %v", err)
	}
	if got := sent1[g2.ID] + sent2[g2.ID]; got != 2 || len(*wire) != 2 {
		t.Fatalf("guest 2 moved %d frames (wire %d), want 2", got, len(*wire))
	}
	for i := range honest {
		if !bytes.Equal((*wire)[i], honest[i]) {
			t.Errorf("guest 2 frame %d corrupted", i)
		}
	}
}

// checkFaultRecoveryReplay: a wild write through driver data kills the
// instance; the supervisor re-derives it through the same pipeline and
// replays the configuration log — including the model's own probe
// argument list (the rtl8139's four-argument probe is the regression this
// pins: replay must not assume the e1000's three-word signature).
func checkFaultRecoveryReplay(t *testing.T, m *drivermodel.Model) {
	mach, tw := newTwin(t, m, 1, core.TwinConfig{})
	d := mach.Devs[0]
	wire := capture(d)
	sup := recovery.New(mach, tw, recovery.Policy{})
	mach.HV.Switch(mach.DomU)

	if err := tw.GuestTransmit(d, frame(400, 1)); err != nil {
		t.Fatalf("pre-fault transmit: %v", err)
	}

	// Wild write: netdev->priv aimed at hypervisor memory (model-generic —
	// every driver dereferences its priv pointer on the next invocation).
	if err := mach.Dom0.AS.Store(d.Netdev+kernel.NdPriv, 4, 0xF1000040); err != nil {
		t.Fatal(err)
	}
	err := tw.GuestTransmit(d, frame(400, 2))
	if !errors.Is(err, core.ErrDriverDead) {
		t.Fatalf("wild write not contained: %v", err)
	}
	log := tw.FaultLog()
	if len(log) == 0 || log[len(log)-1].Kind != cpu.FaultProtection {
		t.Fatalf("fault log: %v", log)
	}
	if log[len(log)-1].Entry != m.Entries.Xmit {
		t.Errorf("fault attributed to %q, want %q", log[len(log)-1].Entry, m.Entries.Xmit)
	}

	ev, err := sup.Recover()
	if err != nil || ev == nil {
		t.Fatalf("recovery failed: %v", err)
	}
	// Traffic resumes both directions on the replayed configuration.
	txf := frame(700, 3)
	if err := tw.GuestTransmit(d, txf); err != nil {
		t.Fatalf("post-recovery transmit: %v", err)
	}
	if got := (*wire)[len(*wire)-1]; !bytes.Equal(got, txf) {
		t.Error("post-recovery frame corrupted")
	}
	rxf := frame(600, 4)
	if !d.Dev.Inject(rxf) {
		t.Fatal("post-recovery inject (device not re-opened by replay?)")
	}
	if err := tw.HandleIRQ(d); err != nil {
		t.Fatal(err)
	}
	pkts, err := tw.DeliverPending(mach.DomU)
	if err != nil || len(pkts) != 1 || !bytes.Equal(pkts[0], rxf) {
		t.Fatalf("post-recovery receive: %d pkts, %v", len(pkts), err)
	}
	// The replayed open re-armed the driver watchdog.
	if mach.K.PendingTimers() < 1 {
		t.Error("replay lost the watchdog timer")
	}
}

// checkManagementStats: management operations keep running through the VM
// instance (§3.1) — get_stats reflects the traffic the hypervisor
// instance moved, and the watchdog harvests device counters and re-arms.
func checkManagementStats(t *testing.T, m *drivermodel.Model) {
	mach, tw := newTwin(t, m, 1, core.TwinConfig{})
	d := mach.Devs[0]
	d.Dev.SetOnTransmit(func([]byte) {})
	mach.HV.Switch(mach.DomU)
	for i := 0; i < 3; i++ {
		if err := tw.GuestTransmit(d, frame(500, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	statsAddr, err := mach.CallDriver(m.Entries.Stats, d.Netdev)
	if err != nil {
		t.Fatalf("get_stats: %v", err)
	}
	txPkts, _ := mach.Dom0.AS.Load(statsAddr, 4)
	if txPkts != 3 {
		t.Errorf("get_stats reports %d tx packets, want 3", txPkts)
	}
	// Watchdog: advance time, fire, confirm it re-armed.
	before := mach.K.PendingTimers()
	mach.K.Tick()
	mach.K.Tick()
	mach.K.Tick()
	if err := mach.RunTimers(); err != nil {
		t.Fatalf("watchdog: %v", err)
	}
	if mach.K.PendingTimers() != before {
		t.Errorf("watchdog did not re-arm (%d timers, was %d)", mach.K.PendingTimers(), before)
	}
	tx, _, _ := d.Dev.Counters()
	if tx != 3 {
		t.Errorf("device tx counter = %d, want 3", tx)
	}
}

// portMAC is the per-guest MAC the switch behaviors register as static
// table entries.
func portMAC(gi int) [6]byte {
	return [6]byte{0x02, 0x51, 0x52, 0x53, 0, byte(gi + 1)}
}

// newSwitched brings up an nGuest twin with the inter-guest switch on
// and each guest's MAC registered, wire captured.
func newSwitched(t *testing.T, m *drivermodel.Model, guests int) (*core.Machine, *core.Twin, *core.NICDev, *[][]byte) {
	t.Helper()
	mach, tw := newTwin(t, m, guests, core.TwinConfig{Switch: true})
	d := mach.Devs[0]
	wire := capture(d)
	for gi, dom := range mach.Guests {
		tw.RegisterGuestMAC(portMAC(gi), dom.ID)
	}
	return mach, tw, d, wire
}

// localFrame builds a guest→guest frame between two registered ports.
func localFrame(src, dst [6]byte, id byte) []byte {
	payload := make([]byte, 200)
	for i := range payload {
		payload[i] = id ^ byte(i*5)
	}
	return core.EthernetFrame(dst, src, 0x0800, payload)
}

// checkSwitchUnicastLearning: a unicast between registered ports is
// delivered dom0-side byte-exact without touching the device, and a
// source MAC the switch learns from cross traffic redirects later
// frames dom0-side too — per backend.
func checkSwitchUnicastLearning(t *testing.T, m *drivermodel.Model) {
	mach, tw, d, wire := newSwitched(t, m, 2)
	f := localFrame(portMAC(0), portMAC(1), 0xD1)
	if n, err := tw.StageTransmitBatch(mach.Guests[0], [][]byte{f}); err != nil || n != 1 {
		t.Fatalf("stage: %d, %v", n, err)
	}
	sent, err := tw.ServiceRings(d, 0)
	if err != nil || sent[mach.Guests[0].ID] != 1 {
		t.Fatalf("serviced %v: %v", sent, err)
	}
	if len(*wire) != 0 {
		t.Fatalf("guest-to-guest unicast reached the device (%d wire frames)", len(*wire))
	}
	got, err := tw.DeliverPending(mach.Guests[1])
	if err != nil || len(got) != 1 || !bytes.Equal(got[0], f) {
		t.Fatalf("local delivery: %d frames, err %v", len(got), err)
	}
	// Learning: guest 1 transmits from an unregistered secondary MAC to
	// an external destination; the switch learns the source, and guest
	// 0's next frame to that MAC is delivered locally, off the wire.
	second := [6]byte{0x02, 0xEE, 0, 0, 0, 0x42}
	learn := core.EthernetFrame([6]byte{0, 0x50, 0x56, 9, 9, 9}, second, 0x0800, make([]byte, 120))
	if _, err := tw.StageTransmitBatch(mach.Guests[1], [][]byte{learn}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.ServiceRings(d, 0); err != nil {
		t.Fatal(err)
	}
	if len(*wire) != 1 {
		t.Fatalf("external frame missed the device (%d wire frames)", len(*wire))
	}
	toLearned := localFrame(portMAC(0), second, 0xD2)
	if _, err := tw.StageTransmitBatch(mach.Guests[0], [][]byte{toLearned}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.ServiceRings(d, 0); err != nil {
		t.Fatal(err)
	}
	if len(*wire) != 1 {
		t.Fatalf("frame to a learned local MAC reached the device")
	}
	got, err = tw.DeliverPending(mach.Guests[1])
	if err != nil || len(got) != 1 || !bytes.Equal(got[0], toLearned) {
		t.Fatalf("learned-MAC delivery: %d frames, err %v", len(got), err)
	}
}

// checkSwitchBroadcastFanout: a broadcast fans out to every other port
// dom0-side AND reaches the wire exactly once; the sender never hears
// its own frame — per backend.
func checkSwitchBroadcastFanout(t *testing.T, m *drivermodel.Model) {
	mach, tw, d, wire := newSwitched(t, m, 3)
	bcast := [6]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	f := localFrame(portMAC(1), bcast, 0xD3)
	if _, err := tw.StageTransmitBatch(mach.Guests[1], [][]byte{f}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.ServiceRings(d, 0); err != nil {
		t.Fatal(err)
	}
	if len(*wire) != 1 || !bytes.Equal((*wire)[0], f) {
		t.Fatalf("wire carried %d broadcast frames, want 1", len(*wire))
	}
	for gi, dom := range mach.Guests {
		want := 1
		if gi == 1 {
			want = 0 // never reflected to the sender
		}
		if n := tw.PendingRx(dom.ID); n != want {
			t.Fatalf("PendingRx(guest %d) = %d, want %d", gi, n, want)
		}
		if want == 0 {
			continue
		}
		got, err := tw.DeliverPending(dom)
		if err != nil || len(got) != 1 || !bytes.Equal(got[0], f) {
			t.Fatalf("guest %d broadcast copy: %d frames, err %v", gi, len(got), err)
		}
	}
}

// checkSwitchMacSpoofIsolated: a guest forging another port's static
// MAC as its source loses exactly that frame — not delivered, not
// wired, counted against the forger — and the victim's own traffic is
// untouched — per backend.
func checkSwitchMacSpoofIsolated(t *testing.T, m *drivermodel.Model) {
	mach, tw, d, wire := newSwitched(t, m, 3)
	forged := localFrame(portMAC(0), portMAC(1), 0xD4) // guest 2 claims guest 0's MAC
	if _, err := tw.StageTransmitBatch(mach.Guests[2], [][]byte{forged}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.ServiceRings(d, 0); err != nil {
		t.Fatal(err)
	}
	if tw.Dead {
		t.Fatal("spoofed frame killed the twin")
	}
	if len(*wire) != 0 {
		t.Fatal("spoofed frame reached the wire")
	}
	for gi, dom := range mach.Guests {
		if n := tw.PendingRx(dom.ID); n != 0 {
			t.Fatalf("spoofed frame delivered to guest %d", gi)
		}
	}
	if n := tw.VswitchSpoofDropped(mach.Guests[2].ID); n != 1 {
		t.Fatalf("VswitchSpoofDropped(forger) = %d, want 1", n)
	}
	legit := localFrame(portMAC(0), portMAC(1), 0xD5)
	if _, err := tw.StageTransmitBatch(mach.Guests[0], [][]byte{legit}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.ServiceRings(d, 0); err != nil {
		t.Fatal(err)
	}
	got, err := tw.DeliverPending(mach.Guests[1])
	if err != nil || len(got) != 1 || !bytes.Equal(got[0], legit) {
		t.Fatalf("victim's traffic perturbed after spoof attempt: %d frames, err %v", len(got), err)
	}
}

// checkContendedSwitchedShares: the contended transmit workload with the
// inter-guest switch on — every guest permanently backlogged, 4 crossings
// of budget 64, weights 4:2:1. Each guest's frames carry its own
// registered station MAC, so the count SendContended reports for a guest
// is the count the wire saw from it and the switch drops nothing as
// spoofed (a workload stamping one MAC on every guest reports 32 each
// while the wire sees one guest's 32). On the model's native queue count
// and on one queue; with one queue every guest shares the budget, so each
// lands within one DRR quantum per crossing of its weight share.
func checkContendedSwitchedShares(t *testing.T, m *drivermodel.Model) {
	const guests, crossings, budget = 8, 4, 64
	for _, queues := range []int{0, 1} {
		p, err := netpath.NewMultiModel(netpath.Twin, 1, guests, m,
			core.TwinConfig{Switch: true, Weights: []int{4, 2, 1}, Queues: queues})
		if err != nil {
			t.Fatalf("queues=%d: bring-up: %v", queues, err)
		}
		wire := capture(p.M.Devs[0])
		sent, err := p.SendContended(0, 600, crossings, budget)
		if err != nil {
			t.Fatalf("queues=%d: %v", queues, err)
		}
		onWire := make([]int, guests)
		for _, f := range *wire {
			if !bytes.Equal(f[6:11], []byte{0x02, 0x54, 0x57, 0x49, 0x4E}) || int(f[11]) >= guests {
				t.Fatalf("queues=%d: wire frame from unregistered source % x", queues, f[6:12])
			}
			onWire[f[11]]++
		}
		total, totalW := 0, 0
		for _, dom := range p.M.Guests {
			total += sent[dom.ID]
			totalW += p.T.GuestWeight(dom.ID)
		}
		if total == 0 || total != len(*wire) {
			t.Fatalf("queues=%d: reported %d frames, wire saw %d", queues, total, len(*wire))
		}
		for g, dom := range p.M.Guests {
			if sent[dom.ID] != onWire[g] {
				t.Errorf("queues=%d guest %d: reported %d sent, wire saw %d", queues, g, sent[dom.ID], onWire[g])
			}
			if n := p.T.VswitchSpoofDropped(dom.ID); n != 0 {
				t.Errorf("queues=%d guest %d: %d frames dropped as spoofed", queues, g, n)
			}
			if p.T.QueueCount() == 1 {
				w := p.T.GuestWeight(dom.ID)
				want := float64(total) * float64(w) / float64(totalW)
				if d := float64(sent[dom.ID]) - want; d > float64(w*crossings) || -d > float64(w*crossings) {
					t.Errorf("guest %d (weight %d): %d frames, weight share %.1f", g, w, sent[dom.ID], want)
				}
			}
		}
	}
}

// queueTxCounts reads the per-queue transmit counters, viewing a
// single-queue device as the degenerate one-entry vector.
func queueTxCounts(d *core.NICDev) []uint64 {
	if qc, ok := d.Dev.(drivermodel.QueueCounters); ok {
		return qc.QueueTxCounts()
	}
	tx, _, _ := d.Dev.Counters()
	return []uint64{uint64(tx)}
}

// checkMQSteeringStable: a burst from one guest — one flow — lands on
// exactly one transmit queue; steering never migrates a flow mid-burst.
// Single-queue backends pass as the degenerate one-queue case.
func checkMQSteeringStable(t *testing.T, m *drivermodel.Model) {
	mach, tw := newTwin(t, m, 1, core.TwinConfig{})
	d := mach.Devs[0]
	d.Dev.SetOnTransmit(func([]byte) {})
	mach.HV.Switch(mach.DomU)

	before := queueTxCounts(d)
	const n = 12
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = frame(200+i*40, byte(i))
	}
	sent, err := tw.GuestTransmitBatch(d, frames)
	if err != nil || sent != n {
		t.Fatalf("sent %d of %d: %v", sent, n, err)
	}
	after := queueTxCounts(d)
	if len(after) != len(before) {
		t.Fatalf("queue count changed mid-burst: %d -> %d", len(before), len(after))
	}
	moved := -1
	for q := range after {
		if after[q] == before[q] {
			continue
		}
		if moved >= 0 {
			t.Fatalf("flow migrated: queues %d and %d both moved", moved, q)
		}
		moved = q
		if after[q]-before[q] != n {
			t.Errorf("queue %d moved %d frames, want %d", q, after[q]-before[q], n)
		}
	}
	if moved < 0 {
		t.Fatal("no queue counter moved")
	}
	if want := tw.QueueOf(mach.DomU.ID); want >= 0 && tw.QueueCount() > 1 && moved != want {
		t.Errorf("burst landed on queue %d, guest is sharded onto %d", moved, want)
	}
}

// checkMQHostileDescriptor: a hostile ring descriptor on queue k loses
// only its own queue's staged frame — on a multi-queue twin the OTHER
// queues drain in the very sweep that reports the corruption. On a
// single-queue twin the two guests share the queue, so isolation degrades
// to the next-sweep containment of hostile-header-containment.
func checkMQHostileDescriptor(t *testing.T, m *drivermodel.Model) {
	mach, tw := newTwin(t, m, 2, core.TwinConfig{})
	d := mach.Devs[0]
	wire := capture(d)
	g1, g2 := mach.Guests[0], mach.Guests[1]

	honest := [][]byte{frame(300, 0xC1), frame(500, 0xC2)}
	if n, err := tw.StageTransmitBatch(g2, honest); err != nil || n != 2 {
		t.Fatalf("stage: %d, %v", n, err)
	}
	victim := [][]byte{frame(400, 0xC3)}
	if n, err := tw.StageTransmitBatch(g1, victim); err != nil || n != 1 {
		t.Fatalf("stage victim: %d, %v", n, err)
	}
	var base uint32
	for _, ev := range mach.Config.Events {
		if ev.Op == core.OpRing && ev.Dom == g1.ID {
			base = ev.Addr
		}
	}
	if base == 0 {
		t.Fatal("no recorded ring base for guest 1")
	}
	if err := g1.AS.Store(base+8, 4, 0xFFFF0000); err != nil {
		t.Fatal(err)
	}

	sent1, err := tw.ServiceRings(d, 0)
	if err == nil {
		t.Fatal("hostile descriptor accepted")
	}
	if tw.Dead {
		t.Fatal("hostile descriptor killed the twin")
	}
	if sent1[g1.ID] != 0 {
		t.Errorf("corrupt queue moved %d frames", sent1[g1.ID])
	}
	separate := tw.QueueOf(g1.ID) != tw.QueueOf(g2.ID)
	if separate && sent1[g2.ID] != 2 {
		t.Errorf("queue isolation: honest queue moved %d frames in the corrupt sweep, want 2", sent1[g2.ID])
	}
	sent2, err := tw.ServiceRings(d, 0)
	if err != nil {
		t.Fatalf("post-containment sweep: %v", err)
	}
	if got := sent1[g2.ID] + sent2[g2.ID]; got != 2 || len(*wire) != 2 {
		t.Fatalf("guest 2 moved %d frames (wire %d), want 2", got, len(*wire))
	}
	for i := range honest {
		if !bytes.Equal((*wire)[i], honest[i]) {
			t.Errorf("honest frame %d corrupted", i)
		}
	}
	// The victim queue's staged frame was dropped with its reset ring,
	// not replayed onto the wire later.
	if sent2[g1.ID] != 0 {
		t.Errorf("corrupt queue replayed %d frames after reset", sent2[g1.ID])
	}
}
