package netbench

import (
	"cmp"
	"slices"

	"twindrivers/internal/mem"
	"twindrivers/internal/netpath"
)

// Table 1 of the paper: the set of driver support routines called during
// error-free execution of the transmit and receive paths, against the full
// set the driver uses across all its operations. The methodology mirrors
// the paper's: drive the twinned system through clean transmit and receive
// work and record which support routines the hypervisor instance needed
// (hypervisor implementations plus upcalls); the full set is every kernel
// support routine the driver imports.

// RoutineCount is one support routine's call count.
type RoutineCount struct {
	Name  string
	Calls uint64
}

// Table1 is the regenerated table.
type Table1 struct {
	// FastPath lists the routines invoked on the error-free TX+RX fast
	// path of the hypervisor instance, with call counts.
	FastPath []RoutineCount

	// AllRoutines is every support routine the driver imports (the
	// paper's "97 routines called by the e1000 driver for all its
	// operations" — our driver's figure is smaller; see DESIGN.md).
	AllRoutines []string

	// KernelSymbols is the size of the kernel's full support-routine
	// table (what a hypervisor port would have to reimplement).
	KernelSymbols int
}

// RunTable1 pushes packets (at least 4) packets each way through a twinned
// machine, one transmit then one receive at a time, and collects the
// fast-path set: the call counts run from bring-up, so the warm-up quarter
// is part of the trace.
func RunTable1(packets int) (*Table1, error) {
	b, err := open(netpath.Twin, TX, 0, Params{
		PacketSize: 1214, Warmup: packets / 4, Measure: packets - packets/4,
	}, func(p *netpath.Path, prm *Params, n int) (map[mem.Owner]int, error) {
		for i := 0; i < n; i++ {
			if _, err := p.SendBurst(0, prm.PacketSize, 1); err != nil {
				return nil, err
			}
			if _, err := p.ReceiveBurst(0, prm.PacketSize, 1); err != nil {
				return nil, err
			}
		}
		return map[mem.Owner]int{p.M.DomU.ID: n}, nil
	})
	if err != nil {
		return nil, err
	}
	if _, err := b.measure(); err != nil {
		return nil, err
	}
	m, tw := b.p.M, b.p.T

	t := &Table1{KernelSymbols: len(m.K.SymbolNames())}
	for name, c := range tw.HvCalls {
		t.FastPath = append(t.FastPath, RoutineCount{Name: name, Calls: c})
	}
	for name, c := range tw.Upcalls.PerName {
		t.FastPath = append(t.FastPath, RoutineCount{Name: name + " (upcall)", Calls: c})
	}
	slices.SortFunc(t.FastPath, func(a, b RoutineCount) int {
		return cmp.Or(cmp.Compare(b.Calls, a.Calls), cmp.Compare(a.Name, b.Name))
	})

	// All imports of the driver that are kernel support routines.
	for _, sym := range m.Unit.UndefinedSymbols() {
		if m.K.IsSupportRoutine(sym) {
			t.AllRoutines = append(t.AllRoutines, sym)
		}
	}
	slices.Sort(t.AllRoutines)
	return t, nil
}
