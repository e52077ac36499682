package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// Tiny counts: enough rounds for a traced replay and, on fault_storm, a
// few recoveries; the whole file runs in a few seconds.
func smokeOptions(seed uint64) *options {
	return &options{seed: seed, seconds: 1, rounds: 2, setups: 1, trace: true, frames: 96}
}

// exactValues is every number of an outcome that lives on the simulated
// clock or is a count: what must repeat to the last digit.
func exactValues(o *outcome) map[string]float64 {
	out := map[string]float64{}
	for _, ms := range []metrics{o.EndToEnd, o.PerLayer} {
		for name, m := range ms {
			if defByName(name).exact {
				out[name] = m.Value
			}
		}
	}
	return out
}

func TestSameSeedRepeatsExactly(t *testing.T) {
	for _, c := range configs {
		a, err := runWorkload(c, smokeOptions(7))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		b, err := runWorkload(c, smokeOptions(7))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !a.Correct || a.Failed != 0 {
			t.Errorf("%s: %d checks failed: %s", c.name, a.Failed, a.Failure)
		}
		if av, bv := exactValues(a), exactValues(b); !reflect.DeepEqual(av, bv) {
			for name, v := range av {
				if bv[name] != v {
					t.Errorf("%s: %s differs between two runs of one seed: %v vs %v", c.name, name, v, bv[name])
				}
			}
		}
		if a.Digest != b.Digest || a.Attempted != b.Attempted {
			t.Errorf("%s: wire digest %s/%d vs %s/%d", c.name, a.Digest, a.Attempted, b.Digest, b.Attempted)
		}
		// The ladder (or span-wrapped) pass must land on the untraced
		// run's cycle count exactly.
		if a.PerLayer["bench.traced_equals_untraced"].Value != 1 {
			t.Errorf("%s: traced pass diverged from the untraced run", c.name)
		}
		if a.EndToEnd["fail_share"].Value != 0 {
			t.Errorf("%s: fail_share %v", c.name, a.EndToEnd["fail_share"].Value)
		}
		if c.faultFree && a.EndToEnd["sim_lost_share"].Value != 0 {
			t.Errorf("%s: lost frames on a fault-free workload", c.name)
		}
		if c.supervised && a.PerLayer["recovery.faults"].Value == 0 {
			t.Errorf("%s: no fault was injected", c.name)
		}
		if a.trace == nil || len(a.trace.spans) == 0 {
			t.Errorf("%s: traced pass recorded no spans", c.name)
		}
	}
}

func TestOtherSeedOtherInputs(t *testing.T) {
	open := configByName("open_loop")
	a, b := open.plan(7, 0, 960), open.plan(8, 0, 960)
	if len(a[0].due) != len(b[0].due) {
		t.Fatalf("seeds offer %d vs %d frames: the count must not depend on the seed", len(a[0].due), len(b[0].due))
	}
	if reflect.DeepEqual(a[0].due, b[0].due) {
		t.Error("two seeds produced the same arrival schedule")
	}
	if !reflect.DeepEqual(a, open.plan(7, 0, 960)) {
		t.Error("one seed produced two arrival schedules")
	}
	for _, c := range configs {
		if !c.faultFree {
			continue
		}
		o := smokeOptions(8)
		o.trace = false
		out, err := runWorkload(c, o)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if out.Failed != 0 || out.EndToEnd["fail_share"].Value != 0 {
			t.Errorf("%s seed 8: %d failed: %s", c.name, out.Failed, out.Failure)
		}
	}
}

// A byte flipped on the wire must be caught by the frame check.
func TestWireCheckCatchesCorruption(t *testing.T) {
	r, err := warm(configByName("tx_paper"), 7, true)
	if err != nil {
		t.Fatal(err)
	}
	r.d.Dev.SetOnTransmit(func(pkt []byte) {
		bad := append([]byte(nil), pkt...)
		bad[len(bad)-1] ^= 1
		r.onWire(bad)
	})
	s := step{kind: kTx, n: 1, size: mtu}
	if err := r.exec(&s); err != nil {
		t.Fatal(err)
	}
	if r.st.failed == 0 {
		t.Error("a corrupted wire frame passed the check")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The manifest at the repository root, the catalogue, and what the command
// prints must name exactly the same metrics.
func TestManifestMatchesCommand(t *testing.T) {
	var want bytes.Buffer
	if err := manifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}

	var stdout, stderr bytes.Buffer
	smoke := func(traced bool) int {
		o := smokeOptions(1)
		o.trace = traced
		return measure([]*config{configByName("tx_paper")}, o, "", &stdout, &stderr)
	}
	if code := smoke(true); code != 0 {
		t.Fatalf("traced run exited %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	printed := map[string]bool{}
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "tx_paper" {
			t.Fatalf("malformed line %q", line)
		}
		printed[f[1]] = true
	}
	var traced struct {
		Correct   bool
		Attempted int
		Metrics   map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &traced); err != nil || !traced.Correct || traced.Attempted < 1 {
		t.Fatalf("driver line %q: %v", lines[len(lines)-1], err)
	}
	stdout.Reset()
	if code := smoke(false); code != 0 {
		t.Fatalf("untraced run exited %d: %s", code, stderr.String())
	}
	lines = strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var untraced struct{ Metrics map[string]metric }
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &untraced); err != nil {
		t.Fatal(err)
	}
	for _, d := range catalogue {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is outside the allowed alphabet", d.name)
		}
		if !printed[d.name] {
			t.Errorf("%s is in the catalogue but the command does not print it", d.name)
		}
		delete(printed, d.name)
		_, inTraced := traced.Metrics[d.name]
		_, inUntraced := untraced.Metrics[d.name]
		if inTraced == d.gated || inUntraced != d.gated {
			t.Errorf("%s: gated=%v but traced line has it=%v, untraced line has it=%v", d.name, d.gated, inTraced, inUntraced)
		}
	}
	delete(printed, "ops")
	delete(printed, "failed")
	for name := range printed {
		t.Errorf("the command prints %s, which is not in the catalogue", name)
	}
}

func TestCompareVerdicts(t *testing.T) {
	ns, cyc := defByName("host_ns_per_pkt"), defByName("sim_cyc_per_pkt")
	for _, tc := range []struct {
		d       *metricDef
		a, b    float64
		spreadB float64
		want    string
	}{
		{cyc, 9780, 9780, 0, "equal"},
		{cyc, 9780, 9700, 0, "moved"},
		{cyc, 9780, 9900, 0, "regressed"},
		{ns, 100, 105, 0.01, "pass"},
		{ns, 100, 105, 0.30, "unresolved"},
		{ns, 100, 128, 0.30, "unresolved"},
		{ns, 100, 128, 0.05, "regressed"},
		{ns, 100, 140, 0.30, "regressed"},
	} {
		if got := verdict(tc.d, tc.a, tc.b, 0, tc.spreadB); got != tc.want {
			t.Errorf("%s %v→%v: %s, want %s", tc.d.name, tc.a, tc.b, got, tc.want)
		}
	}
	a := &resultFile{Header: header{Seed: 1, Seconds: 10, Rounds: 10}}
	b := &resultFile{Header: header{Seed: 2, Seconds: 10, Rounds: 10}}
	if comparable(a, b) == nil {
		t.Error("results of two seeds were accepted as comparable")
	}
}

// The command line the driver uses, and the limits run refuses.
func TestCommandLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--rounds", "0"},
		{"--workload", "fault_storm", "--rounds", "17"}, // more faults than a machine survives
	} {
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
	var trace boolish
	for _, v := range []string{"0", "1", "true", "false"} {
		if err := trace.Set(v); err != nil {
			t.Errorf("--trace %s: %v", v, err)
		}
	}
}

// Every round is a whole number of laps, and every lap of a workload is the
// same work — the same multiset of steps — whatever the seed and the round:
// that is what lets the fastest lap stand for the workload.
func TestLapsAreIdenticalWork(t *testing.T) {
	for _, c := range configs {
		var want map[string]int
		for _, seed := range []uint64{7, 8} {
			for round := 0; round < 3; round++ {
				steps := c.plan(seed, round, c.roundFrames(runSeconds))
				if !steps[len(steps)-1].lapEnd {
					t.Errorf("%s: round %d ends inside a lap", c.name, round)
				}
				got, laps, faulted := map[string]int{}, 0, false
				for _, s := range steps {
					got[fmt.Sprintf("kind %d, %d frames of %d bytes, %d due", s.kind, s.n, s.size, len(s.due))]++
					faulted = faulted || s.inject > 0
					if !s.lapEnd {
						continue
					}
					laps++
					// The step that trips an injected bug takes the bug's
					// direction; that one lap of a round differs by one card.
					if want == nil {
						want = got
					} else if !faulted && !reflect.DeepEqual(got, want) {
						t.Errorf("%s: seed %d round %d lap %d is other work: %v, want %v", c.name, seed, round, laps, got, want)
					}
					got, faulted = map[string]int{}, false
				}
				if laps < 5 {
					t.Errorf("%s: a round has only %d laps", c.name, laps)
				}
			}
		}
	}
}

// The warm-up must leave the machine in its steady state: the first measured
// lap retires the same instructions per packet as the second. (On tenants it
// did not until the warm-up cycled the receive rings.)
func TestFirstLapIsSteady(t *testing.T) {
	for _, c := range configs {
		r, err := warm(c, 7, false)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		r.st.sojourn = make([]uint64, 0, 1<<14)
		var perPkt []float64
		ins0, pk0 := r.m.CPU.Retired, r.st.completed
		// Round -1 is the fault-free round.
		steps := c.plan(7, -1, c.roundFrames(runSeconds))
		if c.name == "open_loop" || c.name == "tenants" {
			steps = c.plan(7, 0, c.roundFrames(runSeconds)) // their round -1 is the warm-up's shape
		}
		for i := range steps {
			if err := r.exec(&steps[i]); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if steps[i].lapEnd {
				perPkt = append(perPkt, float64(r.m.CPU.Retired-ins0)/float64(r.st.completed-pk0))
				ins0, pk0 = r.m.CPU.Retired, r.st.completed
				if len(perPkt) == 2 {
					break
				}
			}
		}
		if len(perPkt) < 2 || perPkt[0] < 0.995*perPkt[1] || perPkt[0] > 1.005*perPkt[1] {
			t.Errorf("%s: instructions per packet of the first two laps: %v", c.name, perPkt)
		}
	}
}
