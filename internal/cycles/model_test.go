package cycles

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// refMeter is the simplest model of the meter's attribution: buckets keyed
// by the component's printed name, a current component and a stack. A
// component is "charged" once its bucket is non-zero.
type refMeter struct {
	buckets  map[string]uint64
	current  Component
	stack    []Component
	lifetime uint64
}

func (r *refMeter) total() uint64 {
	var t uint64
	for _, v := range r.buckets {
		t += v
	}
	return t
}

func (r *refMeter) String() string {
	var parts []string
	for name, v := range r.buckets {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, v))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

var allComponents = []Component{CompDom0, CompDomU, CompXen, CompDriver}

// agree compares every observable of the meter with the model.
func agree(t *testing.T, m *Meter, r *refMeter, step string) bool {
	t.Helper()
	bd := m.Breakdown()
	for _, c := range allComponents {
		want := r.buckets[c.String()]
		if m.Get(c) != want {
			t.Logf("%s: Get(%s) = %d, want %d", step, c, m.Get(c), want)
			return false
		}
		if got, ok := bd[c]; got != want || ok != (want != 0) {
			t.Logf("%s: Breakdown()[%s] = %d,%v, want %d,%v", step, c, got, ok, want, want != 0)
			return false
		}
	}
	if m.Component() != r.current {
		t.Logf("%s: current = %s, want %s", step, m.Component(), r.current)
		return false
	}
	if m.Total() != r.total() || m.Lifetime() != r.lifetime+r.total() {
		t.Logf("%s: total/lifetime = %d/%d, want %d/%d", step, m.Total(), m.Lifetime(), r.total(), r.lifetime+r.total())
		return false
	}
	if m.String() != r.String() {
		t.Logf("%s: String() = %q, want %q", step, m.String(), r.String())
		return false
	}
	return true
}

func TestMeterMatchesMapModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		newPair := func() (*Meter, *refMeter) {
			return NewMeter(), &refMeter{buckets: map[string]uint64{}, current: CompXen}
		}
		m, r := newPair()
		other, otherRef := newPair()
		lastLifetime := uint64(0)
		for step := 0; step < 300; step++ {
			c := allComponents[rng.Intn(len(allComponents))]
			n := uint64(rng.Intn(50)) // 0 included: charging nothing charges nothing
			var op string
			switch rng.Intn(9) {
			case 0:
				op = "Add"
				m.Add(n)
				r.buckets[r.current.String()] += n
			case 1:
				op = "AddTo"
				m.AddTo(c, n)
				r.buckets[c.String()] += n
			case 2:
				op = "SetComponent"
				m.SetComponent(c)
				r.current = c
			case 3:
				op = "PushComponent"
				m.PushComponent(c)
				r.stack = append(r.stack, r.current)
				r.current = c
			case 4:
				op = "PopComponent"
				m.PopComponent()
				if k := len(r.stack); k > 0 {
					r.current, r.stack = r.stack[k-1], r.stack[:k-1]
				}
			case 5:
				op = "MemAccess"
				r.buckets[r.current.String()] += m.MemAccess(uint32(rng.Intn(1 << 16)))
			case 6:
				op = "IFetch"
				r.buckets[r.current.String()] += m.IFetch(uint32(rng.Intn(1 << 16)))
			case 7:
				op = "Reset"
				m.Reset()
				r.lifetime += r.total()
				r.buckets = map[string]uint64{}
			case 8:
				op = "Merge"
				other.AddTo(c, n)
				otherRef.buckets[c.String()] += n
				accesses := m.MemAccesses + other.MemAccesses
				m.Merge(other, nil, m) // nil and self are skipped
				for name, v := range otherRef.buckets {
					r.buckets[name] += v
				}
				if m.MemAccesses != accesses {
					t.Logf("Merge: MemAccesses = %d, want %d", m.MemAccesses, accesses)
					return false
				}
				if !agree(t, other, otherRef, "Merge source") {
					return false
				}
			}
			if !agree(t, m, r, fmt.Sprintf("step %d %s", step, op)) {
				return false
			}
			if m.Lifetime() < lastLifetime {
				t.Logf("step %d %s: Lifetime went backward, %d after %d", step, op, m.Lifetime(), lastLifetime)
				return false
			}
			lastLifetime = m.Lifetime()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestComponentNames pins the printed names: bench files, reports and the
// exporters key on them.
func TestComponentNames(t *testing.T) {
	want := map[Component]string{CompDom0: "dom0", CompDomU: "domU", CompXen: "xen", CompDriver: "e1000"}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("Component(%d).String() = %q, want %q", uint8(c), c, name)
		}
	}
	m := NewMeter()
	m.AddTo(CompDriver, 3)
	m.AddTo(CompDom0, 2)
	m.AddTo(CompXen, 0)
	if got := m.String(); got != "dom0=2 e1000=3" {
		t.Errorf("String() = %q", got)
	}
}
