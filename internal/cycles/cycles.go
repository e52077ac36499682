// Package cycles models machine time: a per-component cycle meter and a
// small hardware model (TLB + L1 data cache) whose state is flushed on
// domain switches.
//
// The dominant cost TwinDrivers removes from the Xen I/O path is "the
// frequent context switches between the driver domain and guest domains
// ... which results in increased TLB and cache misses" (§2 of the paper).
// Making switch-induced TLB/cache cold-start an emergent property of the
// simulation — rather than a constant — is therefore load-bearing: the
// domU path performs more switches and automatically pays more per packet.
package cycles

import (
	"fmt"
	"sort"
	"strings"
)

// Component labels a cycle bucket. The four buckets match the breakdown in
// Figures 7 and 8 of the paper. It indexes Meter.buckets directly: the
// meter is charged once per simulated instruction, so the bucket must be
// an array slot, not a map entry.
type Component uint8

// The paper's profile buckets.
const (
	CompDom0   Component = iota // dom0 / native Linux kernel work
	CompDomU                    // guest kernel work
	CompXen                     // hypervisor work
	CompDriver                  // network driver execution

	numComponents = iota
)

var componentNames = [numComponents]string{"dom0", "domU", "xen", "e1000"}

// String returns the bucket's name as the paper's figures (and every
// report, bench file and exporter) print it.
func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return fmt.Sprintf("component(%d)", uint8(c))
}

// Cost parameters of the hardware model. These are microarchitectural
// constants (a 3 GHz Netburst-era Xeon, per the paper's testbed), not
// calibration knobs; workload-level calibration lives in internal/cost.
const (
	CostTLBMiss    = 28 // page-walk penalty
	CostL1Hit      = 2  // load-to-use on hit
	CostL1Miss     = 22 // L2 access on L1 miss
	tlbSets        = 16 // 64 entries, 4-way set associative
	tlbWays        = 4
	l1Lines        = 512 // 32 KiB / 64 B
	l1LineShift    = 6
	l1IndexMask    = l1Lines - 1
	tlbIndexMask   = tlbSets - 1
	invalidTag     = ^uint32(0)
	pageShiftConst = 12
)

// Meter accumulates cycles per component and exposes the hardware model.
type Meter struct {
	buckets [numComponents]uint64
	current Component
	stack   []Component

	// lifetime holds the cycles retired by past measurement epochs:
	// Reset folds the live buckets in here before zeroing them, so
	// Lifetime() — lifetime plus the live buckets — is a monotonic
	// machine clock (fault-escalation windows and MTTR need one) at zero
	// cost on the charging hot paths.
	lifetime uint64

	// Hardware state: 4-way set-associative TLB (round-robin victim),
	// direct-mapped L1D and L1I tags.
	tlb   [tlbSets][tlbWays]uint32
	tlbRR [tlbSets]uint8
	l1    [l1Lines]uint32
	l1i   [l1Lines]uint32

	// fetchLine is the cache line of the previous IFetch while that line
	// is still known to sit in both the TLB and the L1I, invalidTag
	// otherwise. A fetch in it is a double hit: it charges nothing and
	// changes no state, so IFetch returns before looking either up. The
	// three writes that can take the line out from under it reset it: a
	// TLB fill (either side; the victim may be the code page), an L1I
	// fill and FlushHW.
	fetchLine uint32

	// Statistics.
	TLBMisses   uint64
	L1Misses    uint64
	L1IMisses   uint64
	MemAccesses uint64
	Flushes     uint64
}

// NewMeter returns a meter with cold hardware state, attributing to Xen.
func NewMeter() *Meter {
	m := &Meter{current: CompXen}
	m.FlushHW()
	return m
}

// SetComponent switches the attribution bucket.
func (m *Meter) SetComponent(c Component) { m.current = c }

// Component returns the current attribution bucket.
func (m *Meter) Component() Component { return m.current }

// PushComponent switches buckets, remembering the previous one.
func (m *Meter) PushComponent(c Component) {
	m.stack = append(m.stack, m.current)
	m.current = c
}

// PopComponent restores the bucket saved by PushComponent.
func (m *Meter) PopComponent() {
	if n := len(m.stack); n > 0 {
		m.current = m.stack[n-1]
		m.stack = m.stack[:n-1]
	}
}

// Add charges n cycles to the current component.
func (m *Meter) Add(n uint64) { m.buckets[m.current] += n }

// AddTo charges n cycles to a specific component.
func (m *Meter) AddTo(c Component, n uint64) { m.buckets[c] += n }

// tlbAccess looks up (and on miss, fills) the TLB; it returns the miss
// penalty incurred.
func (m *Meter) tlbAccess(vpage uint32) uint64 {
	set := vpage & tlbIndexMask
	for w := 0; w < tlbWays; w++ {
		if m.tlb[set][w] == vpage {
			return 0
		}
	}
	m.tlb[set][m.tlbRR[set]] = vpage
	m.tlbRR[set] = (m.tlbRR[set] + 1) % tlbWays
	m.fetchLine = invalidTag
	m.TLBMisses++
	return CostTLBMiss
}

// MemAccess charges a data memory access at vaddr through the TLB and L1
// model and returns the cycles charged.
func (m *Meter) MemAccess(vaddr uint32) uint64 {
	m.MemAccesses++
	cost := m.tlbAccess(vaddr >> pageShiftConst)
	line := vaddr >> l1LineShift
	li := line & l1IndexMask
	if m.l1[li] == line {
		cost += CostL1Hit
	} else {
		m.l1[li] = line
		m.L1Misses++
		cost += CostL1Miss
	}
	m.buckets[m.current] += cost
	return cost
}

// IFetch charges the instruction-fetch cost at pc: an I-cache miss pays the
// L2 penalty (amortised across the straight-line code in the line); hits
// are free (fetch is pipelined). Shares the TLB with the data side.
func (m *Meter) IFetch(pc uint32) uint64 {
	if pc>>l1LineShift == m.fetchLine {
		return 0
	}
	return m.fetchNewLine(pc)
}

// fetchNewLine is IFetch past its same-line short cut: the full TLB and
// L1I lookup, after which the line is resident in both.
func (m *Meter) fetchNewLine(pc uint32) uint64 {
	cost := m.tlbAccess(pc >> pageShiftConst)
	line := pc >> l1LineShift
	li := line & l1IndexMask
	if m.l1i[li] != line {
		m.l1i[li] = line
		m.L1IMisses++
		cost += CostL1Miss
	}
	m.fetchLine = line
	m.buckets[m.current] += cost
	return cost
}

// TouchLines charges the cache cost of streaming through n bytes starting
// at vaddr (one access per cache line). Used for modeled bulk copies that
// do not execute instruction-by-instruction.
func (m *Meter) TouchLines(vaddr uint32, n int) uint64 {
	total := uint64(0)
	for off := 0; off < n; off += 1 << l1LineShift {
		total += m.MemAccess(vaddr + uint32(off))
	}
	return total
}

// FlushHW invalidates the TLB and L1 cache — the effect of a domain
// (address space) switch on real hardware.
func (m *Meter) FlushHW() {
	for i := range m.tlb {
		for w := range m.tlb[i] {
			m.tlb[i][w] = invalidTag
		}
	}
	for i := range m.l1 {
		m.l1[i] = invalidTag
	}
	for i := range m.l1i {
		m.l1i[i] = invalidTag
	}
	m.fetchLine = invalidTag
	m.Flushes++
}

// Lifetime returns every cycle charged since the meter was built. Unlike
// Total it is monotonic: Reset folds the live buckets into the retired
// count instead of discarding them, so deltas across measurement epochs
// stay meaningful (the recovery supervisor's MTTR and escalation windows
// are measured on this clock).
func (m *Meter) Lifetime() uint64 { return m.lifetime + m.Total() }

// Total returns the sum over all components.
func (m *Meter) Total() uint64 {
	var t uint64
	for _, v := range m.buckets {
		t += v
	}
	return t
}

// Get returns the cycles charged to a component.
func (m *Meter) Get(c Component) uint64 { return m.buckets[c] }

// Breakdown returns a copy of the charged buckets. A component nothing was
// charged to is absent, not zero: consumers (the bench files' breakdown key
// sets, the folded-stack exporter) list exactly the components that ran.
func (m *Meter) Breakdown() map[Component]uint64 {
	out := make(map[Component]uint64, numComponents)
	for c, v := range m.buckets {
		if v != 0 {
			out[Component(c)] = v
		}
	}
	return out
}

// Reset zeroes the buckets and statistics but keeps hardware state warm
// (measurement epochs start after warm-up). The zeroed cycles are retired
// into the lifetime clock, which never goes backward.
func (m *Meter) Reset() {
	m.lifetime += m.Total()
	m.buckets = [numComponents]uint64{}
	m.TLBMisses, m.L1Misses, m.MemAccesses = 0, 0, 0
}

// Merge folds the live buckets and hardware-event statistics of every src
// meter into m. Per-queue service loops each meter their own simulated
// core; Merge is the measurement step that reunifies them into one
// machine-wide breakdown (the per-queue meters are left untouched). With
// a single source whose buckets are empty this is the identity, so the
// degenerate one-queue configuration merges to exactly the old global
// meter.
func (m *Meter) Merge(srcs ...*Meter) {
	for _, s := range srcs {
		if s == nil || s == m {
			continue
		}
		for c, v := range s.buckets {
			m.buckets[c] += v
		}
		m.TLBMisses += s.TLBMisses
		m.L1Misses += s.L1Misses
		m.L1IMisses += s.L1IMisses
		m.MemAccesses += s.MemAccesses
	}
}

// String formats the breakdown, components sorted by name.
func (m *Meter) String() string {
	parts := make([]string, 0, numComponents)
	for c, v := range m.Breakdown() {
		parts = append(parts, fmt.Sprintf("%s=%d", c, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}
