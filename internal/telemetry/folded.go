package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"twindrivers/internal/cycles"
)

// FoldedStacks accumulates cycle breakdowns in the "folded stacks"
// format flamegraph tools consume: one line per semicolon-joined stack
// with a sample count, here cycles per cycles.Meter component. The
// bench layer feeds it the same critical-path breakdowns it reports as
// cyc/pkt, so a flamegraph of a sweep shows exactly where the gated
// numbers come from.
type FoldedStacks struct {
	mu     sync.Mutex
	counts map[string]uint64
}

// NewFoldedStacks builds an empty accumulator.
func NewFoldedStacks() *FoldedStacks {
	return &FoldedStacks{counts: make(map[string]uint64)}
}

// AddBreakdown folds one Meter.Breakdown-shaped map under the given
// stack prefix (semicolons in the prefix deepen the stack). Nil-safe.
func (f *FoldedStacks) AddBreakdown(prefix string, bk map[cycles.Component]uint64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for comp, cyc := range bk {
		f.counts[prefix+";"+comp.String()] += cyc
	}
}

// Write renders the accumulated stacks sorted by name, ready for
// flamegraph.pl / speedscope.
func (f *FoldedStacks) Write(w io.Writer) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	lines := make([]string, 0, len(f.counts))
	for stack, cyc := range f.counts {
		lines = append(lines, fmt.Sprintf("%s %d", stack, cyc))
	}
	f.mu.Unlock()
	sort.Strings(lines)
	_, err := io.WriteString(w, strings.Join(lines, "\n"))
	if err == nil && len(lines) > 0 {
		_, err = io.WriteString(w, "\n")
	}
	return err
}

// Len returns the number of distinct stacks accumulated.
func (f *FoldedStacks) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.counts)
}
