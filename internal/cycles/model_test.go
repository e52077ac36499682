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

// refHW is the hardware model as it stood before IFetch learned its
// same-line short cut: every fetch and every access walks the TLB set and
// the cache tag. Kept by value as the reference the meter is checked
// against after every call.
type refHW struct {
	buckets [numComponents]uint64
	current Component

	tlb   [tlbSets][tlbWays]uint32
	tlbRR [tlbSets]uint8
	l1    [l1Lines]uint32
	l1i   [l1Lines]uint32

	tlbMisses, l1Misses, l1iMisses, memAccesses uint64
}

func newRefHW() *refHW {
	r := &refHW{current: CompXen}
	r.flushHW()
	return r
}

func (r *refHW) tlbAccess(vpage uint32) uint64 {
	set := vpage & tlbIndexMask
	for w := 0; w < tlbWays; w++ {
		if r.tlb[set][w] == vpage {
			return 0
		}
	}
	r.tlb[set][r.tlbRR[set]] = vpage
	r.tlbRR[set] = (r.tlbRR[set] + 1) % tlbWays
	r.tlbMisses++
	return CostTLBMiss
}

func (r *refHW) memAccess(vaddr uint32) uint64 {
	r.memAccesses++
	cost := r.tlbAccess(vaddr >> pageShiftConst)
	line := vaddr >> l1LineShift
	li := line & l1IndexMask
	if r.l1[li] == line {
		cost += CostL1Hit
	} else {
		r.l1[li] = line
		r.l1Misses++
		cost += CostL1Miss
	}
	r.buckets[r.current] += cost
	return cost
}

func (r *refHW) ifetch(pc uint32) uint64 {
	cost := r.tlbAccess(pc >> pageShiftConst)
	line := pc >> l1LineShift
	li := line & l1IndexMask
	if r.l1i[li] != line {
		r.l1i[li] = line
		r.l1iMisses++
		cost += CostL1Miss
	}
	r.buckets[r.current] += cost
	return cost
}

func (r *refHW) touchLines(vaddr uint32, n int) uint64 {
	total := uint64(0)
	for off := 0; off < n; off += 1 << l1LineShift {
		total += r.memAccess(vaddr + uint32(off))
	}
	return total
}

func (r *refHW) flushHW() {
	for i := range r.tlb {
		for w := range r.tlb[i] {
			r.tlb[i][w] = invalidTag
		}
	}
	for i := range r.l1 {
		r.l1[i] = invalidTag
	}
	for i := range r.l1i {
		r.l1i[i] = invalidTag
	}
}

func (r *refHW) reset() {
	r.buckets = [numComponents]uint64{}
	r.tlbMisses, r.l1Misses, r.memAccesses = 0, 0, 0
}

func (r *refHW) merge(s *refHW) {
	for c, v := range s.buckets {
		r.buckets[c] += v
	}
	r.tlbMisses += s.tlbMisses
	r.l1Misses += s.l1Misses
	r.l1iMisses += s.l1iMisses
	r.memAccesses += s.memAccesses
}

// sameHW compares every bucket and all four counters.
func sameHW(t *testing.T, m *Meter, r *refHW, step string) bool {
	t.Helper()
	if m.buckets != r.buckets {
		t.Logf("%s: buckets = %v, want %v", step, m.buckets, r.buckets)
		return false
	}
	got := [4]uint64{m.TLBMisses, m.L1Misses, m.L1IMisses, m.MemAccesses}
	want := [4]uint64{r.tlbMisses, r.l1Misses, r.l1iMisses, r.memAccesses}
	if got != want {
		t.Logf("%s: TLB/L1/L1I misses, accesses = %v, want %v", step, got, want)
		return false
	}
	return true
}

// TestHardwareModelMatchesReference drives the meter and the reference
// through random interleavings of every call that reads or writes the
// hardware state. The address pool is small on purpose: fetches repeat
// within a handful of lines (the short cut's case), four code pages and
// five data pages share TLB set 0 (a data-side fill evicts the code page
// between two fetches of one line), and two code lines share an L1I slot.
func TestHardwareModelMatchesReference(t *testing.T) {
	const page = 1 << pageShiftConst
	const setStride = tlbSets * page        // same TLB set, different page
	const l1Stride = l1Lines << l1LineShift // same cache slot, different line
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		codeAddr := func() uint32 {
			a := uint32(rng.Intn(4)) * setStride           // four pages in set 0
			a += uint32(rng.Intn(3)) << l1LineShift        // three lines each
			a += uint32(rng.Intn(2)) * l1Stride            // two lines per L1I slot
			return a + uint32(rng.Intn(1<<l1LineShift))&^7 // instruction slots within the line
		}
		dataAddr := func() uint32 {
			return 0x40000000 + uint32(rng.Intn(5))*setStride + uint32(rng.Intn(256))
		}
		m, r := NewMeter(), newRefHW()
		other, otherRef := NewMeter(), newRefHW()
		for step := 0; step < 400; step++ {
			var op string
			var got, want uint64
			switch k := rng.Intn(20); {
			case k < 10:
				a := codeAddr()
				op = fmt.Sprintf("IFetch(%#x)", a)
				got, want = m.IFetch(a), r.ifetch(a)
			case k < 14:
				a := dataAddr()
				op = fmt.Sprintf("MemAccess(%#x)", a)
				got, want = m.MemAccess(a), r.memAccess(a)
			case k < 15:
				// The data side may touch code addresses too.
				a := codeAddr()
				op = fmt.Sprintf("MemAccess(code %#x)", a)
				got, want = m.MemAccess(a), r.memAccess(a)
			case k < 16:
				a, n := dataAddr(), rng.Intn(3*page)
				op = fmt.Sprintf("TouchLines(%#x, %d)", a, n)
				got, want = m.TouchLines(a, n), r.touchLines(a, n)
			case k < 17:
				op = "FlushHW"
				m.FlushHW()
				r.flushHW()
			case k < 18:
				op = "Reset"
				m.Reset()
				r.reset()
			case k < 19:
				op = "Merge"
				a := codeAddr()
				other.IFetch(a)
				otherRef.ifetch(a)
				m.Merge(other)
				r.merge(otherRef)
			default:
				c := allComponents[rng.Intn(len(allComponents))]
				op = "SetComponent"
				m.SetComponent(c)
				r.current = c
			}
			if got != want {
				t.Logf("seed %d step %d %s: cost = %d, want %d", seed, step, op, got, want)
				return false
			}
			if !sameHW(t, m, r, fmt.Sprintf("seed %d step %d %s", seed, step, op)) {
				return false
			}
		}
		return sameHW(t, other, otherRef, "merge source")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFetchShortCutInvalidation pins the three writes that must end the
// same-line short cut, each with the cost the next fetch then pays.
func TestFetchShortCutInvalidation(t *testing.T) {
	const pc = 0x00100040
	const page = 1 << pageShiftConst
	warm := func() *Meter {
		m := NewMeter()
		m.IFetch(pc)
		if c := m.IFetch(pc + 8); c != 0 {
			t.Fatalf("second fetch of a line = %d cycles, want 0", c)
		}
		return m
	}

	m := warm()
	m.FlushHW()
	if c := m.IFetch(pc + 16); c != CostTLBMiss+CostL1Miss {
		t.Errorf("fetch after FlushHW = %d, want a TLB miss and an L1I miss", c)
	}

	// Four data pages in the code page's TLB set evict it; the line is
	// still in the L1I.
	m = warm()
	for i := uint32(1); i <= tlbWays; i++ {
		m.MemAccess(pc + i*tlbSets*page)
	}
	if c := m.IFetch(pc + 16); c != CostTLBMiss {
		t.Errorf("fetch after the data side evicted the code page = %d, want one TLB miss", c)
	}

	// Another line in the same L1I slot, on a page in another TLB set:
	// fetching it replaces the line, the code page's TLB entry survives.
	m = warm()
	m.IFetch(pc + l1Lines<<l1LineShift)
	if c := m.IFetch(pc + 16); c != CostL1Miss {
		t.Errorf("fetch after an L1I fill replaced the line = %d, want one L1I miss", c)
	}

	// A meter that has only been flushed holds no line, line 0 included.
	m = NewMeter()
	if c := m.IFetch(0); c != CostTLBMiss+CostL1Miss || m.L1IMisses != 1 || m.TLBMisses != 1 {
		t.Errorf("first fetch of line 0 = %d cycles, %d/%d misses; want a cold miss", c, m.TLBMisses, m.L1IMisses)
	}
}
