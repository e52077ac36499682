package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"twindrivers/internal/core"
	"twindrivers/internal/drivermodel"
	"twindrivers/internal/kernel"
)

// The differential harness drives every backend with the SAME
// pseudo-random workload — frame sizes, payload bytes, batch splits and
// direction mix all drawn from one seeded stream — and cross-checks what
// each backend actually did: the exact bytes that reached the wire, the
// exact bytes delivered to the guest, the loss accounting, and the fault
// attribution of an injected bug. Zero mismatches over ≥10k frames is the
// acceptance bar for calling the backends equivalent behind the model
// abstraction.

const (
	diffSeed       = 0x7417D21
	diffTxFrames   = 5000
	diffRxFrames   = 5000 // ≥10k total per backend
	diffPostedSeed = diffSeed ^ 0x51ED
)

// diffResult is everything one backend did under the workload.
type diffResult struct {
	backend   string
	wire      [][]byte // frames that reached the wire, in order
	delivered [][]byte // frames delivered to the guest, in order
	txBusy    int      // transient ErrTxBusy completions
	missed    uint32   // device missed-packet counter
	leftover  int      // packets queued but never delivered
	faultKind string   // classified kind of the injected fault
	faultRole string   // "xmit" when attributed to the model's xmit entry

	// posted/copyCtl hold the posted-vs-copy differential: the same seeded
	// frame stream delivered once into guest-posted buffers and once
	// through the copy path. Byte equality between the two — and across
	// backends — is the posted-mode acceptance, with zero skips.
	posted     [][]byte
	copyCtl    [][]byte
	postedLost int

	// txPosted/txCopy hold the transmit-side differential: the same
	// seeded frame stream sent once as posted (addr,len) descriptors
	// resolved through the guest TLB, once staged through the copy
	// path. Byte equality on the wire between the two — and across
	// backends — is the posted-TX acceptance, with zero skips.
	txPosted [][]byte
	txCopy   [][]byte
	txLost   int
}

// diffFrame builds one pseudo-random frame from the shared stream.
func diffFrame(rng *rand.Rand, dst byte) []byte {
	size := 60 + rng.Intn(1455) // 60..1514
	payload := make([]byte, size-14)
	rng.Read(payload)
	return core.EthernetFrame(
		[6]byte{0x02, 0xD1, 0xFF, 0, 0, dst},
		[6]byte{0x02, 0xD1, 0x00, 0, 0, 1},
		0x0800, payload)
}

// runDifferential subjects one backend to the workload.
func runDifferential(t *testing.T, model *drivermodel.Model, txFrames, rxFrames int) *diffResult {
	t.Helper()
	rng := rand.New(rand.NewSource(diffSeed))
	mach, tw := newTwin(t, model, 1, core.TwinConfig{})
	d := mach.Devs[0]
	res := &diffResult{backend: model.Name}
	d.Dev.SetOnTransmit(func(p []byte) { res.wire = append(res.wire, append([]byte(nil), p...)) })
	mach.HV.Switch(mach.DomU)

	// Transmit phase: random batch splits through the shared ring.
	for sent := 0; sent < txFrames; {
		batch := 1 + rng.Intn(32)
		if batch > txFrames-sent {
			batch = txFrames - sent
		}
		frames := make([][]byte, batch)
		for i := range frames {
			frames[i] = diffFrame(rng, 2)
		}
		n, err := tw.GuestTransmitBatch(d, frames)
		sent += n
		if err != nil {
			if errors.Is(err, core.ErrTxBusy) {
				res.txBusy++
				continue
			}
			t.Fatalf("%s: tx frame %d: %v", model.Name, sent, err)
		}
		if n != batch {
			t.Fatalf("%s: short batch %d of %d without error", model.Name, n, batch)
		}
	}

	// Receive phase: random burst sizes, one coalesced interrupt per
	// burst, bounded delivery.
	for recvd := 0; recvd < rxFrames; {
		burst := 1 + rng.Intn(24)
		if burst > rxFrames-recvd {
			burst = rxFrames - recvd
		}
		for i := 0; i < burst; i++ {
			f := diffFrame(rng, 3)
			if !d.Dev.Inject(f) {
				t.Fatalf("%s: rx frame %d missed (burst %d)", model.Name, recvd+i, burst)
			}
		}
		if err := tw.HandleIRQ(d); err != nil {
			t.Fatalf("%s: rx irq: %v", model.Name, err)
		}
		pkts, err := tw.DeliverPendingBatch(mach.DomU, 0)
		if err != nil {
			t.Fatalf("%s: deliver: %v", model.Name, err)
		}
		// Delivered frames are reused by the next delivery: keep copies.
		for _, p := range pkts {
			res.delivered = append(res.delivered, append([]byte(nil), p...))
		}
		recvd += len(pkts)
		if len(pkts) != burst {
			t.Fatalf("%s: burst of %d delivered %d", model.Name, burst, len(pkts))
		}
	}
	res.leftover = tw.PendingRx(mach.DomU.ID)
	_, _, res.missed = d.Dev.Counters()

	// Posted-vs-copy phase: one seeded stream delivered into guest-posted
	// buffers, then the identical stream again through the copy path, on
	// the same twin. Every frame must come back byte-exact both times.
	const postedFrames = 1000
	bufs := make([]core.RxPost, 16)
	for i := range bufs {
		bufs[i] = core.RxPost{Addr: mach.HV.AllocHeap(mach.DomU, 2048), Len: 2048}
	}
	for _, phase := range []struct {
		seedRng *rand.Rand
		posted  bool
	}{
		{rand.New(rand.NewSource(diffPostedSeed)), true},
		{rand.New(rand.NewSource(diffPostedSeed)), false},
	} {
		for recvd := 0; recvd < postedFrames; {
			burst := 1 + phase.seedRng.Intn(16)
			if burst > postedFrames-recvd {
				burst = postedFrames - recvd
			}
			if phase.posted {
				if n, err := tw.PostRxBuffers(mach.DomU, bufs[:burst]); err != nil || n != burst {
					t.Fatalf("%s: posted %d of %d: %v", model.Name, n, burst, err)
				}
			}
			for i := 0; i < burst; i++ {
				if !d.Dev.Inject(diffFrame(phase.seedRng, 3)) {
					t.Fatalf("%s: posted-phase inject", model.Name)
				}
			}
			if err := tw.HandleIRQ(d); err != nil {
				t.Fatalf("%s: posted-phase irq: %v", model.Name, err)
			}
			if phase.posted {
				del, err := tw.DeliverPendingPosted(mach.DomU, 0)
				if err != nil {
					t.Fatalf("%s: posted deliver: %v", model.Name, err)
				}
				res.postedLost += del.Lost
				for _, fr := range del.Frames {
					b, err := mach.DomU.AS.ReadBytes(fr.Addr, fr.Len)
					if err != nil {
						t.Fatal(err)
					}
					res.posted = append(res.posted, b)
				}
				recvd += len(del.Frames)
				if len(del.Frames) != burst {
					t.Fatalf("%s: posted burst of %d delivered %d", model.Name, burst, len(del.Frames))
				}
			} else {
				pkts, err := tw.DeliverPendingBatch(mach.DomU, 0)
				if err != nil {
					t.Fatalf("%s: copy-control deliver: %v", model.Name, err)
				}
				for _, p := range pkts {
					res.copyCtl = append(res.copyCtl, append([]byte(nil), p...))
				}
				recvd += len(pkts)
				if len(pkts) != burst {
					t.Fatalf("%s: copy-control burst of %d delivered %d", model.Name, burst, len(pkts))
				}
			}
		}
	}

	// Posted-vs-copy transmit phase: one seeded stream sent as posted
	// (addr,len) descriptors into guest-owned buffers, then the identical
	// stream again through the staging-copy path, on the same twin. Every
	// frame must reach the wire byte-exact both times.
	const txDiffFrames = 1000
	txBufs := make([]uint32, 16)
	for i := range txBufs {
		txBufs[i] = mach.HV.AllocHeap(mach.DomU, 2048)
	}
	for _, phase := range []struct {
		seedRng *rand.Rand
		posted  bool
	}{
		{rand.New(rand.NewSource(diffPostedSeed ^ 0xA11CE)), true},
		{rand.New(rand.NewSource(diffPostedSeed ^ 0xA11CE)), false},
	} {
		out := &res.txCopy
		if phase.posted {
			out = &res.txPosted
		}
		d.Dev.SetOnTransmit(func(p []byte) { *out = append(*out, append([]byte(nil), p...)) })
		for sent := 0; sent < txDiffFrames; {
			burst := 1 + phase.seedRng.Intn(16)
			if burst > txDiffFrames-sent {
				burst = txDiffFrames - sent
			}
			if phase.posted {
				descs := make([]core.TxPost, burst)
				for i := 0; i < burst; i++ {
					f := diffFrame(phase.seedRng, 2)
					if err := mach.DomU.AS.WriteBytes(txBufs[i], f); err != nil {
						t.Fatal(err)
					}
					descs[i] = core.TxPost{Addr: txBufs[i], Len: uint32(len(f))}
				}
				if n, err := tw.PostTxDescriptors(mach.DomU, descs); err != nil || n != burst {
					t.Fatalf("%s: tx-posted %d of %d: %v", model.Name, n, burst, err)
				}
			} else {
				frames := make([][]byte, burst)
				for i := range frames {
					frames[i] = diffFrame(phase.seedRng, 2)
				}
				if n, err := tw.StageTransmitBatch(mach.DomU, frames); err != nil || n != burst {
					t.Fatalf("%s: tx-copy staged %d of %d: %v", model.Name, n, burst, err)
				}
			}
			got, err := tw.ServiceRings(d, 0)
			if err != nil {
				t.Fatalf("%s: tx-diff service: %v", model.Name, err)
			}
			if got[mach.DomU.ID] != burst {
				t.Fatalf("%s: tx-diff serviced %d of %d", model.Name, got[mach.DomU.ID], burst)
			}
			sent += burst
		}
	}
	res.txLost = int(tw.PostedTxLost(mach.DomU.ID))
	d.Dev.SetOnTransmit(func(p []byte) { res.wire = append(res.wire, append([]byte(nil), p...)) })

	// Fault attribution: the same wild write, classified the same way.
	if err := mach.Dom0.AS.Store(d.Netdev+kernel.NdPriv, 4, 0xF1000040); err != nil {
		t.Fatal(err)
	}
	if err := tw.GuestTransmit(d, diffFrame(rng, 2)); !errors.Is(err, core.ErrDriverDead) {
		t.Fatalf("%s: fault not contained: %v", model.Name, err)
	}
	log := tw.FaultLog()
	last := log[len(log)-1]
	res.faultKind = fmt.Sprint(last.Kind)
	if last.Entry == model.Entries.Xmit {
		res.faultRole = "xmit"
	} else {
		res.faultRole = last.Entry
	}
	return res
}

// TestDifferentialBackends: zero frame-byte or loss-accounting mismatches
// across all backends over the shared pseudo-random workload.
func TestDifferentialBackends(t *testing.T) {
	txFrames, rxFrames := diffTxFrames, diffRxFrames
	if testing.Short() {
		txFrames, rxFrames = 500, 500
	}
	models := backends(t)
	results := make([]*diffResult, len(models))
	for i, m := range models {
		results[i] = runDifferential(t, m, txFrames, rxFrames)
	}

	ref := results[0]
	if len(ref.wire) != txFrames {
		t.Fatalf("%s: wire saw %d of %d tx frames", ref.backend, len(ref.wire), txFrames)
	}
	if len(ref.delivered) != rxFrames {
		t.Fatalf("%s: guest got %d of %d rx frames", ref.backend, len(ref.delivered), rxFrames)
	}
	for _, r := range results[1:] {
		if len(r.wire) != len(ref.wire) {
			t.Fatalf("wire count: %s=%d vs %s=%d", ref.backend, len(ref.wire), r.backend, len(r.wire))
		}
		wireMismatch := 0
		for i := range ref.wire {
			if !bytes.Equal(ref.wire[i], r.wire[i]) {
				wireMismatch++
			}
		}
		if wireMismatch != 0 {
			t.Errorf("%d/%d wire frames differ between %s and %s", wireMismatch, len(ref.wire), ref.backend, r.backend)
		}
		if len(r.delivered) != len(ref.delivered) {
			t.Fatalf("delivered count: %s=%d vs %s=%d", ref.backend, len(ref.delivered), r.backend, len(r.delivered))
		}
		rxMismatch := 0
		for i := range ref.delivered {
			if !bytes.Equal(ref.delivered[i], r.delivered[i]) {
				rxMismatch++
			}
		}
		if rxMismatch != 0 {
			t.Errorf("%d/%d delivered frames differ between %s and %s", rxMismatch, len(ref.delivered), ref.backend, r.backend)
		}
		// Loss accounting: nothing silently lost, and the transient/miss
		// counters agree.
		if r.txBusy != ref.txBusy || r.missed != ref.missed || r.leftover != ref.leftover {
			t.Errorf("loss accounting differs: %s{busy:%d missed:%d leftover:%d} vs %s{busy:%d missed:%d leftover:%d}",
				ref.backend, ref.txBusy, ref.missed, ref.leftover,
				r.backend, r.txBusy, r.missed, r.leftover)
		}
		// Fault attribution: same classification, same role.
		if r.faultKind != ref.faultKind || r.faultRole != ref.faultRole {
			t.Errorf("fault attribution differs: %s=%s/%s vs %s=%s/%s",
				ref.backend, ref.faultKind, ref.faultRole, r.backend, r.faultKind, r.faultRole)
		}
	}
	// Posted vs copy: the same seeded stream must come back byte-exact
	// through both receive paths, per backend and across backends — zero
	// skips, zero losses.
	for _, r := range results {
		if r.postedLost != 0 {
			t.Errorf("%s: posted phase lost %d frames", r.backend, r.postedLost)
		}
		if len(r.posted) != len(r.copyCtl) {
			t.Fatalf("%s: posted delivered %d, copy control %d", r.backend, len(r.posted), len(r.copyCtl))
		}
		for i := range r.posted {
			if !bytes.Equal(r.posted[i], r.copyCtl[i]) {
				t.Fatalf("%s: posted frame %d differs from copy-mode delivery", r.backend, i)
			}
		}
	}
	for _, r := range results[1:] {
		for i := range ref.posted {
			if !bytes.Equal(ref.posted[i], r.posted[i]) {
				t.Fatalf("posted frame %d differs between %s and %s", i, ref.backend, r.backend)
			}
		}
	}
	// Posted vs copy, transmit side: the same seeded stream must reach
	// the wire byte-exact through both transmit paths, per backend and
	// across backends — zero skips, zero losses.
	for _, r := range results {
		if r.txLost != 0 {
			t.Errorf("%s: posted-TX phase lost %d frames", r.backend, r.txLost)
		}
		if len(r.txPosted) != len(r.txCopy) {
			t.Fatalf("%s: posted TX put %d frames on the wire, copy control %d", r.backend, len(r.txPosted), len(r.txCopy))
		}
		for i := range r.txPosted {
			if !bytes.Equal(r.txPosted[i], r.txCopy[i]) {
				t.Fatalf("%s: posted-TX frame %d differs from copy-mode transmit", r.backend, i)
			}
		}
	}
	for _, r := range results[1:] {
		for i := range ref.txPosted {
			if !bytes.Equal(ref.txPosted[i], r.txPosted[i]) {
				t.Fatalf("posted-TX frame %d differs between %s and %s", i, ref.backend, r.backend)
			}
		}
	}
	t.Logf("differential: %d backends, %d frames each (+%d posted-vs-copy rx, +%d posted-vs-copy tx), wire+delivery byte-identical",
		len(models), txFrames+rxFrames, len(ref.posted), len(ref.txPosted))
}
