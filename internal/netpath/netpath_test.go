package netpath

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"twindrivers/internal/core"
	"twindrivers/internal/cost"
	"twindrivers/internal/cycles"
)

func TestKindNames(t *testing.T) {
	want := map[Kind]string{Linux: "Linux", Dom0: "dom0", DomU: "domU", Twin: "domU-twin"}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("%d = %q", k, k.String())
		}
	}
	if len(Kinds()) != 4 {
		t.Error("Kinds() incomplete")
	}
}

func TestLinuxChargesNoVirt(t *testing.T) {
	p, err := New(Linux, 1, core.TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := p.SendBurst(0, 1000, 1); err != nil {
			t.Fatal(err)
		}
	}
	p.ResetMeasurement()
	if _, err := p.SendBurst(0, 1000, 1); err != nil {
		t.Fatal(err)
	}
	if v := p.Meter().Get(cycles.CompXen); v != 0 {
		t.Errorf("native Linux charged %d Xen cycles", v)
	}
	if v := p.Meter().Get(cycles.CompDomU); v != 0 {
		t.Errorf("native Linux charged %d domU cycles", v)
	}
}

func TestDom0ChargesVirtOverhead(t *testing.T) {
	p, err := New(Dom0, 1, core.TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		p.SendBurst(0, 1000, 1)
	}
	p.ResetMeasurement()
	if _, err := p.SendBurst(0, 1000, 1); err != nil {
		t.Fatal(err)
	}
	if v := p.Meter().Get(cycles.CompXen); v != cost.Dom0VirtPerPacketTx {
		t.Errorf("dom0 Xen charge = %d, want %d", v, cost.Dom0VirtPerPacketTx)
	}
}

func TestDomUPathMovesRealBytes(t *testing.T) {
	p, err := New(DomU, 1, core.TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	d := p.M.Devs[0]
	var wire [][]byte
	d.NIC.OnTransmit = func(pkt []byte) { wire = append(wire, append([]byte(nil), pkt...)) }
	if _, err := p.SendBurst(0, 777, 1); err != nil {
		t.Fatal(err)
	}
	if len(wire) != 1 || len(wire[0]) != 777 {
		t.Fatalf("wire: %d packets", len(wire))
	}
	// The payload went guest page -> grant copy -> dom0 skb -> DMA: check
	// the pattern survived.
	if wire[0][14] == 0 && wire[0][14+97] == 0 {
		t.Error("payload pattern lost")
	}
	// Grant machinery was exercised.
	if p.M.HV.GrantOps == 0 {
		t.Error("no grant operations on the domU path")
	}
}

func TestDomUSwitchesTwicePerPacket(t *testing.T) {
	p, err := New(DomU, 1, core.TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p.SendBurst(0, 500, 1)
	}
	p.ResetMeasurement()
	for i := 0; i < 10; i++ {
		if _, err := p.SendBurst(0, 500, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := float64(p.M.HV.Switches) / 10; got != 2 {
		t.Errorf("switches per packet = %.1f", got)
	}
}

func TestTwinPathZeroSwitches(t *testing.T) {
	p, err := New(Twin, 1, core.TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		p.SendBurst(0, 500, 1)
		p.ReceiveBurst(0, 500, 1)
	}
	p.ResetMeasurement()
	for i := 0; i < 10; i++ {
		if _, err := p.SendBurst(0, 500, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ReceiveBurst(0, 500, 1); err != nil {
			t.Fatal(err)
		}
	}
	if p.M.HV.Switches != 0 {
		t.Errorf("twin path switched %d times", p.M.HV.Switches)
	}
	if p.T.UpcallsPerformed() != 0 {
		t.Errorf("twin path made %d upcalls", p.T.UpcallsPerformed())
	}
}

func TestReceiveDeliversToGuestStack(t *testing.T) {
	for _, kind := range Kinds() {
		p, err := New(kind, 1, core.TwinConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := p.ReceiveBurst(0, 900, 1); err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
		}
		if p.RxCount != 5 {
			t.Errorf("%v: rx = %d", kind, p.RxCount)
		}
	}
}

func TestMultiNICRoundRobin(t *testing.T) {
	p, err := New(Linux, 3, core.TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	for i, d := range p.M.Devs {
		i := i
		d.NIC.OnTransmit = func([]byte) { counts[i]++ }
	}
	for i := 0; i < 9; i++ {
		if _, err := p.SendBurst(i, 200, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range counts {
		if c != 3 {
			t.Errorf("NIC %d sent %d", i, c)
		}
	}
}

// charges is what the fold tests compare: the cycle total, the
// per-component breakdown, and the boundary crossings and notifications.
type charges struct {
	total              uint64
	buckets            string
	hypercalls, events uint64
}

func measured(p *Path) charges {
	return charges{p.Meter().Total(), p.Meter().String(), p.M.HV.Hypercalls, p.M.HV.Events}
}

// perPacketSend and perPacketReceive are the per-packet twin sequence the
// burst body replaced, kept as the reference a batch of one must equal:
// the guest stack and one GuestTransmit hypercall per frame; one injected
// frame, one interrupt and one delivery with the paravirtual driver's
// charges per frame.
func perPacketSend(p *Path, size int) error {
	d := p.M.Devs[0]
	f, err := p.buildFrame(0, d.Dev.HWAddr(), false, size)
	if err != nil {
		return err
	}
	p.M.HV.Switch(p.M.DomU)
	p.Meter().AddTo(cycles.CompDomU, cost.TxKernelFixed+uint64(len(f))*cost.TxKernelPerByte)
	return p.T.GuestTransmit(d, f)
}

func perPacketReceive(p *Path, size int) error {
	d := p.M.Devs[0]
	f, err := p.buildFrame(0, d.Dev.HWAddr(), true, size)
	if err != nil {
		return err
	}
	p.M.HV.Switch(p.M.DomU)
	if !d.Dev.Inject(f) {
		return errors.New("rx overrun")
	}
	if err := p.T.HandleIRQ(d); err != nil {
		return err
	}
	pkts, err := p.T.DeliverPending(p.M.DomU)
	for _, pkt := range pkts {
		p.Meter().AddTo(cycles.CompDomU, cost.PvDriverRx)
		p.Meter().AddTo(cycles.CompDomU, cost.RxKernelFixed+uint64(len(pkt))*cost.RxKernelPerByte)
	}
	return err
}

// TestSendBurstBatchOneMatchesPerPacket: SendBurst and ReceiveBurst at a
// batch of one charge exactly what the per-packet sequence does over 50
// frames — cycles, buckets, hypercalls and events — with the default
// hypervisor support and with the spinlock routines turned into upcalls
// (Figure 10's per-invocation upcalls must not be coalesced).
func TestSendBurstBatchOneMatchesPerPacket(t *testing.T) {
	const frames, size = 50, 1000
	upcalls := slices.DeleteFunc(core.DefaultHvSupport(), func(name string) bool {
		return name == "spin_trylock" || name == "spin_unlock_irqrestore"
	})
	for _, sup := range [][]string{nil, upcalls} {
		run := func(send, receive func(p *Path) error) (tx, rx charges) {
			p, err := New(Twin, 1, core.TwinConfig{HvSupport: sup})
			if err != nil {
				t.Fatal(err)
			}
			p.BatchSize = 1
			phase := func(step func(p *Path) error) charges {
				for i := 0; i < 8; i++ { // warm-up
					if err := step(p); err != nil {
						t.Fatal(err)
					}
				}
				p.ResetMeasurement()
				for i := 0; i < frames; i++ {
					if err := step(p); err != nil {
						t.Fatal(err)
					}
				}
				return measured(p)
			}
			return phase(send), phase(receive)
		}
		refTx, refRx := run(
			func(p *Path) error { return perPacketSend(p, size) },
			func(p *Path) error { return perPacketReceive(p, size) })
		tx, rx := run(
			func(p *Path) error { _, err := p.SendBurst(0, size, 1); return err },
			func(p *Path) error { _, err := p.ReceiveBurst(0, size, 1); return err })
		if tx != refTx {
			t.Errorf("%d support routines: SendBurst at batch 1\n got  %+v\n want %+v", len(sup), tx, refTx)
		}
		if rx != refRx {
			t.Errorf("%d support routines: ReceiveBurst at batch 1\n got  %+v\n want %+v", len(sup), rx, refRx)
		}
	}
}

// TestStreamIsFanOutOverOneGuest: the single-guest stream and the
// multi-guest fan-out over one guest are the same body — copy and posted,
// both directions, batch 8 and 32, started from guest context — so they
// charge the same cycles, buckets, hypercalls and events.
func TestStreamIsFanOutOverOneGuest(t *testing.T) {
	for _, posted := range []bool{false, true} {
		for _, batch := range []int{8, 32} {
			for _, rx := range []bool{false, true} {
				run := func(multi bool) charges {
					p, err := New(Twin, 1, core.TwinConfig{})
					if err != nil {
						t.Fatal(err)
					}
					p.BatchSize, p.PostedTX, p.PostedRX = batch, posted, posted
					p.M.HV.Switch(p.M.DomU)
					step := func() {
						var err error
						switch {
						case multi && rx:
							_, err = p.ReceiveBurstMulti(0, 600, batch)
						case multi:
							_, err = p.SendBurstMulti(0, 600, batch)
						case rx:
							_, err = p.ReceiveBurst(0, 600, batch)
						default:
							_, err = p.SendBurst(0, 600, batch)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					step()
					p.ResetMeasurement()
					for i := 0; i < 4; i++ {
						step()
					}
					return measured(p)
				}
				if stream, fan := run(false), run(true); stream != fan {
					t.Errorf("posted=%v batch=%d rx=%v:\n stream  %+v\n fan-out %+v", posted, batch, rx, stream, fan)
				}
			}
		}
	}
}

func TestTwinBurstMovesAllPackets(t *testing.T) {
	p, err := New(Twin, 1, core.TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.BatchSize = 8
	if n, err := p.SendBurst(0, 1200, 20); err != nil || n != 20 {
		t.Fatalf("send burst: n=%d err=%v", n, err)
	}
	if p.TxCount != 20 {
		t.Errorf("TxCount = %d", p.TxCount)
	}
	if n, err := p.ReceiveBurst(0, 1200, 20); err != nil || n != 20 {
		t.Fatalf("receive burst: n=%d err=%v", n, err)
	}
	if p.RxCount != 20 {
		t.Errorf("RxCount = %d", p.RxCount)
	}
}

func TestTwinBurstCheaperPerPacket(t *testing.T) {
	measure := func(batch int) (tx, rx float64) {
		p, err := New(Twin, 1, core.TwinConfig{})
		if err != nil {
			t.Fatal(err)
		}
		p.BatchSize = batch
		const n = 64
		if _, err := p.SendBurst(0, 1000, n); err != nil {
			t.Fatal(err)
		}
		p.ResetMeasurement()
		if _, err := p.SendBurst(0, 1000, n); err != nil {
			t.Fatal(err)
		}
		tx = float64(p.Meter().Total()) / n
		p.ResetMeasurement()
		if _, err := p.ReceiveBurst(0, 1000, n); err != nil {
			t.Fatal(err)
		}
		rx = float64(p.Meter().Total()) / n
		return tx, rx
	}
	tx1, rx1 := measure(1)
	tx32, rx32 := measure(32)
	if tx32 >= tx1 {
		t.Errorf("tx batch=32 %.0f cyc/pkt, batch=1 %.0f: no amortization", tx32, tx1)
	}
	if rx32 >= rx1 {
		t.Errorf("rx batch=32 %.0f cyc/pkt, batch=1 %.0f: no amortization", rx32, rx1)
	}
}

func TestNonTwinKindsIgnoreBatchSize(t *testing.T) {
	for _, kind := range []Kind{Linux, Dom0, DomU} {
		p, err := New(kind, 1, core.TwinConfig{})
		if err != nil {
			t.Fatal(err)
		}
		p.BatchSize = 16
		if n, err := p.SendBurst(0, 800, 4); err != nil || n != 4 {
			t.Fatalf("%s: n=%d err=%v", kind, n, err)
		}
		if p.TxCount != 4 {
			t.Errorf("%s: TxCount = %d", kind, p.TxCount)
		}
	}
}

// TestUndersizedFrameRejected: sizes below the 14-byte Ethernet header are
// a clean error (not a panic in the payload arithmetic), and the header
// itself (size 14) is the smallest accepted frame.
func TestUndersizedFrameRejected(t *testing.T) {
	for _, kind := range Kinds() {
		p, err := New(kind, 1, core.TwinConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{0, 13} {
			if _, err := p.SendBurst(0, size, 1); err == nil {
				t.Errorf("%v SendBurst(size=%d) succeeded", kind, size)
			}
			if _, err := p.ReceiveBurst(0, size, 1); err == nil {
				t.Errorf("%v ReceiveBurst(size=%d) succeeded", kind, size)
			}
		}
		if p.TxCount != 0 || p.RxCount != 0 {
			t.Errorf("%v counted rejected frames: tx=%d rx=%d", kind, p.TxCount, p.RxCount)
		}
		// Size 14 (padded to the Ethernet minimum on the wire) works.
		if _, err := p.SendBurst(0, 14, 1); err != nil {
			t.Errorf("%v SendBurst(size=14): %v", kind, err)
		}
		if _, err := p.ReceiveBurst(0, 14, 1); err != nil {
			t.Errorf("%v ReceiveBurst(size=14): %v", kind, err)
		}
	}
}

// TestMultiGuestBursts drives the fan-out path end to end: per-guest
// transmit bursts complete for every guest with one hypercall per service
// round, and receive bursts deliver each guest its own packets.
func TestMultiGuestBursts(t *testing.T) {
	const guests = 4
	p, err := NewMulti(Twin, 1, guests, core.TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.M.Devs[0].NIC.OnTransmit = func([]byte) {}
	p.M.HV.ResetStats()
	sent, err := p.SendBurstMulti(0, 600, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(sent) != guests {
		t.Fatalf("sent to %d guests, want %d", len(sent), guests)
	}
	for id, n := range sent {
		if n != 8 {
			t.Errorf("guest %d sent %d, want 8", id, n)
		}
	}
	if p.M.HV.Hypercalls != 1 {
		t.Errorf("hypercalls = %d, want 1 (one crossing for all guests)", p.M.HV.Hypercalls)
	}
	if p.TxCount != guests*8 {
		t.Errorf("TxCount = %d", p.TxCount)
	}

	got, err := p.ReceiveBurstMulti(0, 600, 6)
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range got {
		if n != 6 {
			t.Errorf("guest %d received %d, want 6", id, n)
		}
	}
	if p.RxCount != guests*6 {
		t.Errorf("RxCount = %d", p.RxCount)
	}
}

// TestStreamOnMultiGuestPath: the single-guest stream on a path with
// several guests serves the first guest alone — one crossing per batch,
// nothing owed for the guests it does not serve.
func TestStreamOnMultiGuestPath(t *testing.T) {
	p, err := NewMulti(Twin, 1, 4, core.TwinConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.M.Devs[0].NIC.OnTransmit = func([]byte) {}
	p.BatchSize = 8
	p.M.HV.ResetStats()
	if n, err := p.SendBurst(0, 600, 8); err != nil || n != 8 {
		t.Fatalf("send: %d, %v", n, err)
	}
	if p.M.HV.Hypercalls != 1 {
		t.Errorf("hypercalls = %d, want 1", p.M.HV.Hypercalls)
	}
	if n, err := p.ReceiveBurst(0, 600, 8); err != nil || n != 8 {
		t.Fatalf("receive: %d, %v", n, err)
	}
}

// TestMultiGuestRejectsNonTwin: only the domU-twin path fans out.
func TestMultiGuestRejectsNonTwin(t *testing.T) {
	if _, err := NewMulti(Linux, 1, 2, core.TwinConfig{}); err == nil {
		t.Error("multi-guest Linux path accepted")
	}
	p, err := NewMulti(Linux, 1, 1, core.TwinConfig{})
	if err != nil || p.Guests != 1 {
		t.Fatalf("single-guest Linux path: %v", err)
	}
	if _, err := p.SendBurstMulti(0, 600, 1); err == nil {
		t.Error("SendBurstMulti on a non-twin path succeeded")
	}
}

// oldFrame is the frame builder as it was composed before buildFrame: a
// payload slice with the sparse sequence pattern, handed to
// core.EthernetFrame for the header and the padding — two allocations,
// three below the Ethernet minimum.
func oldFrame(seq *byte, local [6]byte, rx bool, size int) []byte {
	*seq++
	payload := make([]byte, size-14)
	for i := 0; i < len(payload); i += 97 {
		payload[i] = *seq + byte(i)
	}
	if rx {
		return core.EthernetFrame(local, [6]byte{0, 0x50, 0x56, 1, 2, *seq}, 0x0800, payload)
	}
	return core.EthernetFrame([6]byte{0, 0x50, 0x56, 9, 9, *seq}, local, 0x0800, payload)
}

// TestBuildFrameMatchesOldComposition pins the slot builder byte for byte
// against the two-step composition it replaced: every edge size in both
// directions, across the wrap of the sequence byte, on one Path whose slots
// a larger frame dirtied first (a reused slot must come back clean), and
// with no allocation once a slot has held a frame of the size.
func TestBuildFrameMatchesOldComposition(t *testing.T) {
	mac := [6]byte{0x02, 0xFA, 0xCE, 0, 0, 7}
	p := &Path{}
	for _, size := range []int{1514, 14, 15, 59, 60, 64, 111, 112, 1514} {
		for _, rx := range []bool{true, false} {
			p.rxSeq = 250
			seq := byte(250)
			for i := 0; i < 12; i++ { // 251 … 255, 0 … 6
				got, err := p.buildFrame(i%2, mac, rx, size)
				if err != nil {
					t.Fatal(err)
				}
				if want := oldFrame(&seq, mac, rx, size); !bytes.Equal(got, want) {
					t.Fatalf("size %d rx=%v seq %d:\n got %x\nwant %x", size, rx, seq, got, want)
				}
				if p.rxSeq != seq {
					t.Fatalf("sequence byte %d, want %d", p.rxSeq, seq)
				}
			}
		}
	}
	for _, size := range []int{14, 59, 60, 1514} {
		if n := testing.AllocsPerRun(100, func() { _, _ = p.buildFrame(0, mac, true, size) }); n != 0 {
			t.Errorf("size %d: %v allocations per frame, want 0", size, n)
		}
	}
}
