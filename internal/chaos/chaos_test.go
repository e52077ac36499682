package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"twindrivers/internal/drivermodel"
)

// smokeConfig is the canonical soak: every traffic shape, hostile attacks
// and containment faults on, across four guests with mixed rx-modes.
func smokeConfig(backend string) Config {
	return Config{
		Seed:    0xC4A05EED,
		Backend: backend,
		Guests:  4,
		Steps:   200,
		Hostile: true,
		Faults:  true,
	}
}

// TestSoakSmoke runs the full chaos soak on every registered backend and
// asserts the run exercised what it claims to: traffic moved on both
// directions, both rx-paths, and both tx-paths, attacks ran, faults were
// contained and recovered one-for-one, and the exactly-once ledgers
// balance.
func TestSoakSmoke(t *testing.T) {
	for _, backend := range drivermodel.Names() {
		t.Run(backend, func(t *testing.T) {
			rep, err := Run(smokeConfig(backend))
			if err != nil {
				t.Fatalf("soak: %v", err)
			}
			wire, delivered, copied, posted := 0, 0, 0, 0
			txCopied, txPosted := 0, 0
			for i, l := range rep.Guests {
				if l.OfferedTx != l.WireTx+l.LostTx {
					t.Errorf("guest %d tx ledger unbalanced: %+v", i, l)
				}
				if l.OfferedRx != l.DeliveredRx+l.LostRx {
					t.Errorf("guest %d rx ledger unbalanced: %+v", i, l)
				}
				wire += l.WireTx
				delivered += l.DeliveredRx
				if l.Posted {
					posted += l.DeliveredRx
				} else {
					copied += l.DeliveredRx
				}
				if l.PostedTx {
					txPosted += l.WireTx
				} else {
					txCopied += l.WireTx
				}
			}
			if wire == 0 || delivered == 0 {
				t.Fatalf("soak moved no traffic: wire=%d delivered=%d", wire, delivered)
			}
			if copied == 0 || posted == 0 {
				t.Fatalf("soak did not exercise both rx paths: copy=%d posted=%d", copied, posted)
			}
			if txCopied == 0 || txPosted == 0 {
				t.Fatalf("soak did not exercise both tx paths: copy=%d posted=%d", txCopied, txPosted)
			}
			if len(rep.Attacks) == 0 {
				t.Fatal("hostile soak ran no attacks")
			}
			if rep.Recoveries == 0 {
				t.Fatal("faulting soak saw no recoveries")
			}
			if rep.Faults != rep.Aborts || rep.Recoveries != rep.Aborts {
				t.Fatalf("containment not one-for-one: faults=%d aborts=%d recoveries=%d",
					rep.Faults, rep.Aborts, rep.Recoveries)
			}
			if rep.Digest == "" {
				t.Fatal("report missing digest")
			}
		})
	}
}

// TestSoakWeightedSwitched runs the canonical soak with the DRR scheduler
// (weights 4:2:1, applied cyclically over four guests) and the inter-guest
// switch engaged on every backend: weights reorder service and the switch
// adds the spoof-drop surface, but neither may change whether a frame is
// accounted — the exactly-once ledgers balance exactly as in the classic
// soak, and the hostile scheduler's switch-mac-spoof attack runs for real.
func TestSoakWeightedSwitched(t *testing.T) {
	for _, backend := range drivermodel.Names() {
		t.Run(backend, func(t *testing.T) {
			cfg := smokeConfig(backend)
			cfg.Weights = []int{4, 2, 1}
			cfg.Switch = true
			rep, err := Run(cfg)
			if err != nil {
				t.Fatalf("weighted soak: %v", err)
			}
			wire, delivered := 0, 0
			for i, l := range rep.Guests {
				if l.OfferedTx != l.WireTx+l.LostTx {
					t.Errorf("guest %d tx ledger unbalanced: %+v", i, l)
				}
				if l.OfferedRx != l.DeliveredRx+l.LostRx {
					t.Errorf("guest %d rx ledger unbalanced: %+v", i, l)
				}
				wire += l.WireTx
				delivered += l.DeliveredRx
			}
			if wire == 0 || delivered == 0 {
				t.Fatalf("weighted soak moved no traffic: wire=%d delivered=%d", wire, delivered)
			}
			spoofed := false
			for _, a := range rep.Attacks {
				if a.Name == "switch-mac-spoof" && a.Runs > 0 {
					spoofed = true
				}
			}
			if !spoofed {
				t.Fatal("switched soak never exercised switch-mac-spoof")
			}
			if rep.Faults != rep.Aborts || rep.Recoveries != rep.Aborts {
				t.Fatalf("containment not one-for-one: faults=%d aborts=%d recoveries=%d",
					rep.Faults, rep.Aborts, rep.Recoveries)
			}
		})
	}
}

// TestSoakMultiQueue runs the canonical soak on the multi-queue backend
// at two and at eight service queues — the only soak at those counts. The
// exactly-once ledgers must balance exactly as on one queue (each guest
// lives on exactly one queue, so per-guest wire order is preserved).
func TestSoakMultiQueue(t *testing.T) {
	for _, queues := range []int{2, 8} {
		t.Run(fmt.Sprintf("q%d", queues), func(t *testing.T) {
			cfg := smokeConfig("mqnic")
			cfg.Queues = queues
			rep, err := Run(cfg)
			if err != nil {
				t.Fatalf("multi-queue soak: %v", err)
			}
			wire, delivered := 0, 0
			for i, l := range rep.Guests {
				if l.OfferedTx != l.WireTx+l.LostTx {
					t.Errorf("guest %d tx ledger unbalanced: %+v", i, l)
				}
				if l.OfferedRx != l.DeliveredRx+l.LostRx {
					t.Errorf("guest %d rx ledger unbalanced: %+v", i, l)
				}
				wire += l.WireTx
				delivered += l.DeliveredRx
			}
			if wire == 0 || delivered == 0 {
				t.Fatalf("multi-queue soak moved no traffic: wire=%d delivered=%d", wire, delivered)
			}
			if rep.Faults != rep.Aborts || rep.Recoveries != rep.Aborts {
				t.Fatalf("containment not one-for-one: faults=%d aborts=%d recoveries=%d",
					rep.Faults, rep.Aborts, rep.Recoveries)
			}
		})
	}
}

// TestSoakSlabDoubleFreeSeed replays the seed that kept the full-mode
// soak red from PR 10 on: a contained runaway-loop fault freed an
// already-free dom0 sk_buff a second time (first at step 8; the one
// that bit was made by the step-135 abort), the slab handed it to two
// RX descriptors after the step-137 recovery, and at step 138 an
// ordinary receive delivered guest 3 one frame's length with another's
// bytes. 140 steps is the shortest run that reached the victim.
func TestSoakSlabDoubleFreeSeed(t *testing.T) {
	if _, err := Run(Config{
		Seed:    0xC4A05,
		Backend: "e1000",
		Guests:  4,
		Steps:   140,
		Hostile: true,
		Faults:  true,
	}); err != nil {
		t.Fatalf("soak: %v", err)
	}
}

// TestSoakHasTeeth proves the harness's invariant checks actually bite: the
// identical configuration passes clean, and suppressing exactly one Lost
// increment (the tamper flag, wired through the loss choke points) makes
// the run fail with ErrInvariant. A soak that cannot catch a deliberately
// broken ledger would be asserting nothing.
func TestSoakHasTeeth(t *testing.T) {
	cfg := smokeConfig("e1000")
	if _, err := Run(cfg); err != nil {
		t.Fatalf("untampered soak must pass: %v", err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.tamper = true
	_, err = s.Run()
	if err == nil {
		t.Fatal("tampered soak passed: the invariant checks have no teeth")
	}
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("tampered soak failed with %v, want ErrInvariant", err)
	}
	if !s.tampered {
		t.Fatal("soak reported a violation before the tamper fired")
	}
}

// TestSoakDeterministic pins seeded determinism: two runs with the same
// configuration produce identical reports, down to the digest over every
// frame byte that crossed an interface. This is the property the whole
// harness rests on — a failure that cannot be replayed from its seed is a
// failure that cannot be debugged.
func TestSoakDeterministic(t *testing.T) {
	for _, backend := range drivermodel.Names() {
		t.Run(backend, func(t *testing.T) {
			cfg := smokeConfig(backend)
			cfg.Steps = 120
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, different reports:\n%+v\n%+v", a, b)
			}
			cfg.Seed++
			c, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.Digest == a.Digest {
				t.Fatal("different seeds produced identical digests")
			}
		})
	}
}

// TestSoakAccountingProperty is the quick-check form of the exactly-once
// invariant: for any random schedule (any seed, any guest rx-mode and
// tx-mode mix), on both backends, every guest's ledger balances exactly —
// delivered + lost == offered, wire + lost == offered — with hostility and
// faults enabled.
func TestSoakAccountingProperty(t *testing.T) {
	for _, backend := range drivermodel.Names() {
		backend := backend
		t.Run(backend, func(t *testing.T) {
			prop := func(seed uint64, postedMask, txMask uint8) bool {
				posted := make([]bool, 2)
				postedTx := make([]bool, 2)
				for i := range posted {
					posted[i] = postedMask&(1<<i) != 0
					postedTx[i] = txMask&(1<<i) != 0
				}
				rep, err := Run(Config{
					Seed:     seed,
					Backend:  backend,
					Guests:   2,
					Steps:    50,
					Posted:   posted,
					PostedTX: postedTx,
					Hostile:  true,
					Faults:   true,
				})
				if err != nil {
					t.Logf("seed %#x posted %v postedTx %v: %v", seed, posted, postedTx, err)
					return false
				}
				for _, l := range rep.Guests {
					if l.OfferedTx != l.WireTx+l.LostTx || l.OfferedRx != l.DeliveredRx+l.LostRx {
						t.Logf("seed %#x posted %v postedTx %v: unbalanced ledger %+v", seed, posted, postedTx, l)
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 6}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
