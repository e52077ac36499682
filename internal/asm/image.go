package asm

import (
	"fmt"
	"sort"

	"twindrivers/internal/isa"
)

// InstSlot is the fixed size, in bytes of address space, occupied by every
// instruction in a laid-out image. A constant slot size keeps code
// addresses, return addresses and the VM→hypervisor code delta trivially
// computable, mirroring how the real TwinDrivers keeps "a constant offset
// for all routines" by running the same rewritten binary in both instances.
const InstSlot = 8

// Resolver supplies addresses for symbols the unit does not define. The
// dom0 module loader and the hypervisor driver loader implement this
// differently: the former binds imports to dom0 kernel symbols, the latter
// binds data imports to the *same dom0 addresses* (saved relocation info,
// §5.2) and call imports to hypervisor support routines or upcall stubs.
type Resolver func(sym string) (uint32, bool)

// Image is a laid-out, linked unit: every instruction has an address, every
// symbolic reference is resolved.
type Image struct {
	Name     string
	CodeBase uint32
	CodeEnd  uint32
	DataBase uint32
	DataEnd  uint32

	insts   []isa.Inst // symbol references folded to absolute values
	targets []uint32   // resolved branch target per instruction (0 if none)

	funcStart map[string]uint32 // function name -> entry address
	funcAt    map[uint32]string // entry address -> function name
	dataAddr  map[string]uint32 // data symbol -> address
	dataSize  map[string]uint32

	dataInit []byte // initial contents of [DataBase, DataEnd)
}

// LayoutError reports a link failure.
type LayoutError struct {
	Sym string
	Msg string
}

func (e *LayoutError) Error() string { return fmt.Sprintf("asm: layout: %s: %s", e.Sym, e.Msg) }

// Layout links a unit at the given code and data base addresses. Undefined
// symbols are resolved through r; a nil resolver fails on any import.
func Layout(name string, u *Unit, codeBase, dataBase uint32, r Resolver) (*Image, error) {
	im := &Image{
		Name:      name,
		CodeBase:  codeBase,
		DataBase:  dataBase,
		funcStart: make(map[string]uint32),
		funcAt:    make(map[uint32]string),
		dataAddr:  make(map[string]uint32),
		dataSize:  make(map[string]uint32),
	}

	// Pass 1: place functions and data, and size the instruction tables
	// (an image holds thousands of records; growing them by append would
	// copy each one several times).
	addr := codeBase
	for _, f := range u.Funcs {
		im.funcStart[f.Name] = addr
		im.funcAt[addr] = f.Name
		addr += uint32(len(f.Insts)) * InstSlot
	}
	im.CodeEnd = addr
	n := (addr - codeBase) / InstSlot
	im.insts = make([]isa.Inst, 0, n)
	im.targets = make([]uint32, 0, n)

	daddr := dataBase
	for _, d := range u.Datas {
		align := d.Align
		if align == 0 {
			align = 4
		}
		daddr = (daddr + align - 1) &^ (align - 1)
		im.dataAddr[d.Name] = daddr
		im.dataSize[d.Name] = uint32(len(d.Bytes))
		daddr += uint32(len(d.Bytes))
	}
	im.DataEnd = daddr
	im.dataInit = make([]byte, daddr-dataBase)
	for _, d := range u.Datas {
		if d.Section == "bss" {
			continue
		}
		copy(im.dataInit[im.dataAddr[d.Name]-dataBase:], d.Bytes)
	}

	resolve := func(sym string, f *Func, fbase uint32) (uint32, bool) {
		if f != nil {
			if idx, ok := f.Labels[sym]; ok {
				return fbase + uint32(idx)*InstSlot, true
			}
		}
		if a, ok := im.funcStart[sym]; ok {
			return a, true
		}
		if a, ok := im.dataAddr[sym]; ok {
			return a, true
		}
		if r != nil {
			if a, ok := r(sym); ok {
				return a, true
			}
		}
		return 0, false
	}

	// Pass 2: copy instructions, folding symbols.
	for _, f := range u.Funcs {
		fbase := im.funcStart[f.Name]
		for i := range f.Insts {
			in := f.Insts[i] // copy
			var target uint32
			if in.Target != "" {
				a, ok := resolve(in.Target, f, fbase)
				if !ok {
					return nil, &LayoutError{Sym: in.Target, Msg: fmt.Sprintf("undefined branch target (in %s, line %d)", f.Name, in.Line)}
				}
				target = a
			}
			if err := foldOperand(&in.Src, f, fbase, resolve); err != nil {
				return nil, err
			}
			if err := foldOperand(&in.Dst, f, fbase, resolve); err != nil {
				return nil, err
			}
			im.insts = append(im.insts, in)
			im.targets = append(im.targets, target)
		}
	}
	return im, nil
}

func foldOperand(o *isa.Operand, f *Func, fbase uint32, resolve func(string, *Func, uint32) (uint32, bool)) error {
	if o.Sym == "" {
		return nil
	}
	a, ok := resolve(o.Sym, f, fbase)
	if !ok {
		return &LayoutError{Sym: o.Sym, Msg: fmt.Sprintf("undefined symbol (in %s)", f.Name)}
	}
	switch o.Kind {
	case isa.KindImm:
		o.Imm += int32(a)
	case isa.KindMem:
		o.Disp += int32(a)
	}
	o.Sym = ""
	return nil
}

// Contains reports whether addr is a valid instruction address in the image.
func (im *Image) Contains(addr uint32) bool {
	return addr >= im.CodeBase && addr < im.CodeEnd && (addr-im.CodeBase)%InstSlot == 0
}

// At returns the instruction at addr and its resolved branch target.
func (im *Image) At(addr uint32) (*isa.Inst, uint32, bool) {
	if !im.Contains(addr) {
		return nil, 0, false
	}
	i := (addr - im.CodeBase) / InstSlot
	return &im.insts[i], im.targets[i], true
}

// FuncEntry returns the function entry address for name.
func (im *Image) FuncEntry(name string) (uint32, bool) {
	a, ok := im.funcStart[name]
	return a, ok
}

// IsFuncEntry reports whether addr is the entry of a function. The CPU
// validates indirect call targets with this: a rewritten driver that
// computes a bogus function pointer faults instead of executing mid-stream.
func (im *Image) IsFuncEntry(addr uint32) bool {
	_, ok := im.funcAt[addr]
	return ok
}

// FuncNameAt returns the name of the function whose entry is addr.
func (im *Image) FuncNameAt(addr uint32) (string, bool) {
	n, ok := im.funcAt[addr]
	return n, ok
}

// FuncContaining returns the name of the function whose code range contains
// addr, for diagnostics.
func (im *Image) FuncContaining(addr uint32) string {
	if addr < im.CodeBase || addr >= im.CodeEnd {
		return ""
	}
	best, bestAddr := "", uint32(0)
	for name, a := range im.funcStart {
		if a <= addr && a >= bestAddr {
			best, bestAddr = name, a
		}
	}
	return best
}

// DataSymbol returns the address of a data symbol.
func (im *Image) DataSymbol(name string) (uint32, bool) {
	a, ok := im.dataAddr[name]
	return a, ok
}

// DataSymbolSize returns the size in bytes of a data symbol.
func (im *Image) DataSymbolSize(name string) (uint32, bool) {
	s, ok := im.dataSize[name]
	return s, ok
}

// DataSymbols returns all data symbol names, sorted.
func (im *Image) DataSymbols() []string {
	out := make([]string, 0, len(im.dataAddr))
	for n := range im.dataAddr {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DataInit returns the initial data segment contents (relative to DataBase).
func (im *Image) DataInit() []byte { return im.dataInit }

// NumInsts returns the number of instructions in the image.
func (im *Image) NumInsts() int { return len(im.insts) }
