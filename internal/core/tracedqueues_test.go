// Traced multi-queue service. External test package: mqnic imports
// core, so this cannot live inside package core (same split as the
// queue-meter tests).
package core_test

import (
	"strings"
	"testing"

	"twindrivers/internal/core"
	"twindrivers/internal/mqnic"
	"twindrivers/internal/telemetry"
)

// TestServiceAllQueuesTraced: one traced ServiceRings crossing over four
// queues leaves exactly one sweep-start/sweep-end pair on every queue's
// own lane and exports a well-nested trace (the name dates from the
// goroutine-per-queue sweep it once ran).
func TestServiceAllQueuesTraced(t *testing.T) {
	const guests, queues = 8, 4
	tr := telemetry.New(0)
	m, tw, err := core.NewTwinMachineModel(1, guests, mqnic.DriverModel(), core.TwinConfig{
		Queues: queues, Trace: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Devs[0]
	d.Dev.SetOnTransmit(func([]byte) {})
	for gi, dom := range m.Guests {
		frames := make([][]byte, 8)
		for i := range frames {
			payload := make([]byte, 400)
			for j := range payload {
				payload[j] = byte(gi + i + j)
			}
			frames[i] = core.EthernetFrame(
				[6]byte{2, 2, 2, 2, 2, 2},
				[6]byte{0x02, 0x60, 0, 0, byte(gi), byte(i)},
				0x0800, payload)
		}
		if _, err := tw.StageTransmitBatch(dom, frames); err != nil {
			t.Fatalf("guest %d stage: %v", gi, err)
		}
	}
	if _, err := tw.ServiceRings(d, 0); err != nil {
		t.Fatalf("service: %v", err)
	}

	// Every queue lane recorded its sweep, and starts pair with ends.
	seen := 0
	for _, l := range tr.Lanes() {
		if idx := strings.LastIndex(l.Name(), "/q"); idx < 0 {
			continue
		}
		seen++
		if l.Recorded() == 0 {
			t.Errorf("queue lane %s recorded nothing", l.Name())
		}
		starts, ends := 0, 0
		for _, e := range l.Events() {
			switch e.Kind {
			case telemetry.EvSweepStart:
				starts++
			case telemetry.EvSweepEnd:
				ends++
			}
		}
		if starts != 1 || ends != 1 {
			t.Errorf("lane %s: %d sweep starts, %d ends, want one pair", l.Name(), starts, ends)
		}
	}
	if seen != queues {
		t.Fatalf("found %d queue lanes, want %d", seen, queues)
	}

	// The traced sweep must export a valid nested trace too.
	var sb strings.Builder
	if err := telemetry.WriteChromeTrace(&sb, tr); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeTrace([]byte(sb.String())); err != nil {
		t.Fatalf("traced sweep exports invalid chrome trace: %v", err)
	}
}
