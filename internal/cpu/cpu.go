// Package cpu interprets programs laid out by package asm against address
// spaces from package mem, charging cycles through package cycles.
//
// The CPU executes either the original driver or the SVM-rewritten one with
// identical semantics; the only privilege machinery is (a) faults on
// privileged instructions, (b) the watchdog instruction budget the
// hypervisor arms before invoking the derived driver (the VINO-style
// containment of §4.5.2), and (c) an optional shadow return stack that
// detects stack-smashing control-flow corruption (§4.5.1). Memory safety of
// the derived driver is *not* enforced here — it is a property of the
// rewritten code itself, exactly as in the paper.
package cpu

import (
	"fmt"

	"twindrivers/internal/asm"
	"twindrivers/internal/cycles"
	"twindrivers/internal/isa"
	"twindrivers/internal/mem"
)

// ReturnSentinel is the pseudo return address pushed by Call; a RET to it
// ends the call frame.
const ReturnSentinel = 0xFFFFFFF0

// FaultKind classifies CPU faults.
type FaultKind uint8

// Fault kinds.
const (
	FaultNone        FaultKind = iota
	FaultPage                  // unmapped memory access
	FaultProtection            // SVM abort (raised by the slow path)
	FaultPrivileged            // privileged instruction in unprivileged context
	FaultInvalidOp             // UD2, STD, malformed instruction
	FaultBadCall               // indirect call/jump to a non-function address
	FaultBadFetch              // PC outside any loaded image
	FaultDivide                // division by zero / overflow
	FaultWatchdog              // instruction budget exhausted
	FaultShadowStack           // return address mismatch (corrupted stack)
	FaultStackGuard            // stack pointer entered a guard page
)

var faultNames = [...]string{
	FaultNone: "no fault",
	FaultPage: "page fault", FaultProtection: "protection violation",
	FaultPrivileged: "privileged instruction", FaultInvalidOp: "invalid opcode",
	FaultBadCall: "bad indirect call target", FaultBadFetch: "bad instruction fetch",
	FaultDivide: "divide error", FaultWatchdog: "watchdog timeout",
	FaultShadowStack: "shadow stack mismatch", FaultStackGuard: "stack guard page hit",
}

// String names the fault kind as the fault message prints it.
func (k FaultKind) String() string {
	if int(k) < len(faultNames) {
		return faultNames[k]
	}
	return "no fault"
}

// Fault is a CPU exception delivered to the invoking environment.
type Fault struct {
	Kind FaultKind
	PC   uint32
	Addr uint32
	Msg  string
}

func (f *Fault) Error() string {
	s := fmt.Sprintf("cpu: %s at pc=%#08x", f.Kind, f.PC)
	if f.Addr != 0 {
		s += fmt.Sprintf(" addr=%#08x", f.Addr)
	}
	if f.Msg != "" {
		s += ": " + f.Msg
	}
	return s
}

// IsFault reports whether err is a *Fault of the given kind.
func IsFault(err error, kind FaultKind) bool {
	f, ok := err.(*Fault)
	return ok && f.Kind == kind
}

// Extern is a native routine callable from simulated code. It reads
// arguments with CPU.Arg, may touch simulated memory and call back into
// simulated code, and returns the value to place in EAX.
type Extern func(c *CPU) (uint32, error)

type externEntry struct {
	name string
	fn   Extern
}

// CPU is a single simulated processor.
type CPU struct {
	Regs  [isa.NumRegs]uint32
	ZF    bool
	SF    bool
	CF    bool
	OF    bool
	PC    uint32
	AS    *mem.AddressSpace
	Meter *cycles.Meter

	// AllowPrivileged permits CLI/STI/HLT/IN/OUT (the dom0 kernel context).
	AllowPrivileged bool

	// Budget, when non-zero, faults with FaultWatchdog once that many
	// instructions execute within one outer Call. The hypervisor arms it
	// before invoking the derived driver.
	Budget uint64

	// ShadowStack enables return-address checking.
	ShadowStack bool

	// GuardLow/GuardHigh bound the valid stack-pointer range when nonzero;
	// pushes outside fault with FaultStackGuard (guard pages on the
	// hypervisor driver stack, §4.1).
	GuardLow, GuardHigh uint32

	// Hypercall handles INT imm (the paravirtual gate). Vector is the
	// immediate operand.
	Hypercall func(c *CPU, vector uint32) error

	// OnExternCall, when set, observes every extern invocation (used by
	// internal/trace to regenerate Table 1).
	OnExternCall func(name string)

	images  []*asm.Image
	progs   []*program // progs[i] is images[i], lowered
	cur     *program   // program of the previous fetch; noProgram once removed
	externs map[uint32]externEntry

	inst    uint64 // instructions retired in the current outer Call
	depth   int    // nesting of Call
	shadow  []uint32
	Retired uint64 // total instructions retired (for statistics)
}

// New returns a CPU bound to an address space and meter.
func New(as *mem.AddressSpace, m *cycles.Meter) *CPU {
	return &CPU{AS: as, Meter: m, cur: noProgram, externs: make(map[uint32]externEntry)}
}

// AddImage makes an image's code executable: it is lowered here, once, into
// the form run executes.
func (c *CPU) AddImage(im *asm.Image) {
	c.images = append(c.images, im)
	c.progs = append(c.progs, lower(im))
}

// RemoveImage unloads an image (driver teardown after a fault) and drops
// its lowered form. It may be called from an extern while the image is
// running; the next fetch from it is then a bad fetch.
func (c *CPU) RemoveImage(im *asm.Image) {
	for i, x := range c.images {
		if x == im {
			c.images = append(c.images[:i], c.images[i+1:]...)
			c.progs = append(c.progs[:i], c.progs[i+1:]...)
			if c.cur.im == im {
				c.cur = noProgram
			}
			return
		}
	}
}

// Images returns the loaded images.
func (c *CPU) Images() []*asm.Image { return c.images }

// BindExtern registers a native routine at addr.
func (c *CPU) BindExtern(addr uint32, name string, fn Extern) {
	c.externs[addr] = externEntry{name: name, fn: fn}
}

// ExternAt returns the name of the extern bound at addr.
func (c *CPU) ExternAt(addr uint32) (string, bool) {
	e, ok := c.externs[addr]
	return e.name, ok
}

// programAt finds the lowered image containing the instruction address addr.
func (c *CPU) programAt(addr uint32) *program {
	for _, p := range c.progs {
		if p.im.Contains(addr) {
			return p
		}
	}
	return nil
}

// IsCodeAddr reports whether addr is a function entry in any image.
func (c *CPU) IsCodeAddr(addr uint32) bool {
	for _, im := range c.images {
		if im.IsFuncEntry(addr) {
			return true
		}
	}
	return false
}

// Arg returns the i-th stack argument of the current cdecl frame (valid at
// function entry and inside externs).
func (c *CPU) Arg(i int) uint32 {
	v, err := c.AS.Load(c.Regs[isa.ESP]+4+uint32(i)*4, 4)
	if err != nil {
		return 0
	}
	return v
}

// Push pushes a word on the simulated stack.
func (c *CPU) Push(v uint32) error {
	sp := c.Regs[isa.ESP] - 4
	if c.GuardLow != 0 && (sp < c.GuardLow || sp >= c.GuardHigh) {
		return &Fault{Kind: FaultStackGuard, PC: c.PC, Addr: sp}
	}
	c.Regs[isa.ESP] = sp
	return c.AS.Store(sp, 4, v)
}

// Pop pops a word from the simulated stack.
func (c *CPU) Pop() (uint32, error) {
	v, err := c.AS.Load(c.Regs[isa.ESP], 4)
	if err != nil {
		return 0, err
	}
	c.Regs[isa.ESP] += 4
	return v, nil
}

// Call invokes the function at entry with cdecl arguments and runs it to
// completion, returning EAX. It is reentrant: externs may Call back into
// simulated code.
func (c *CPU) Call(entry uint32, args ...uint32) (uint32, error) {
	if c.depth == 0 {
		c.inst = 0
	}
	c.depth++
	ret, err := c.call(entry, args)
	c.depth--
	return ret, err
}

// call is the body of Call, between the depth bookkeeping.
func (c *CPU) call(entry uint32, args []uint32) (uint32, error) {
	savedSP := c.Regs[isa.ESP]
	for i := len(args) - 1; i >= 0; i-- {
		if err := c.Push(args[i]); err != nil {
			return 0, err
		}
	}
	if err := c.Push(ReturnSentinel); err != nil {
		return 0, err
	}
	shadowBase := len(c.shadow)

	// An extern entry point is legal (the kernel calling a support routine
	// that happens to be native).
	if e, ok := c.externs[entry]; ok {
		if c.OnExternCall != nil {
			c.OnExternCall(e.name)
		}
		ret, err := e.fn(c)
		if err != nil {
			return 0, err
		}
		c.Regs[isa.ESP] = savedSP
		c.Regs[isa.EAX] = ret
		return ret, nil
	}

	c.PC = entry
	err := c.run(shadowBase)
	if err != nil {
		c.shadow = c.shadow[:shadowBase]
		return 0, err
	}
	c.Regs[isa.ESP] = savedSP
	return c.Regs[isa.EAX], nil
}

// run executes until a RET pops ReturnSentinel.
//
// Per instruction, in this order: find the lowered record for c.PC, charge
// the fetch, count the instruction, test the watchdog, charge the issue
// cycle, execute. The current program is remembered in c.cur, not in a
// local: an extern or hypercall may Call into another image or remove the
// running one, and either shows in c.cur by the time the next instruction
// is fetched. c.AS and c.Meter are re-read per instruction for the same
// reason (a hypercall switches address spaces, a queue sweep swaps meters).
func (c *CPU) run(shadowBase int) error {
	for {
		// Straight-line code stays in one image: search the image list
		// only when the PC leaves the image of the previous fetch.
		p := c.cur
		off := c.PC - p.base
		if off/asm.InstSlot >= uint32(len(p.code)) || off%asm.InstSlot != 0 {
			if p = c.programAt(c.PC); p == nil {
				return &Fault{Kind: FaultBadFetch, PC: c.PC}
			}
			c.cur = p
			off = c.PC - p.base
		}
		in := &p.code[off/asm.InstSlot]
		m := c.Meter
		m.IFetch(c.PC)
		c.inst++
		c.Retired++
		if c.Budget != 0 && c.inst > c.Budget {
			return &Fault{Kind: FaultWatchdog, PC: c.PC, Msg: "instruction budget exhausted"}
		}
		m.Add(1) // base issue cost
		next := c.PC + asm.InstSlot

		// The shape handlers. lower chose each from the instruction's own
		// operands, so the register numbers are in range and the operand
		// kinds are the ones the body reads; all operate on 32 bits.
		switch in.h {
		case hMovRR:
			c.Regs[in.dst.reg] = c.Regs[in.src.reg]

		case hMovMR:
			a := uint32(in.src.val) + c.Regs[in.src.reg]
			m.MemAccess(a)
			v, err := c.AS.Load(a, 4)
			if err != nil {
				return c.pageFault(err, a)
			}
			c.Regs[in.dst.reg] = v

		case hLeaMR:
			c.Regs[in.dst.reg] = uint32(in.src.val) + c.Regs[in.src.reg]

		case hLeaXR:
			c.Regs[in.dst.reg] = uint32(in.src.val) + c.Regs[in.src.reg] +
				c.Regs[in.src.index]*uint32(in.src.scale)

		case hMovRM:
			a := uint32(in.dst.val) + c.Regs[in.dst.reg]
			m.MemAccess(a)
			if err := c.AS.Store(a, 4, c.Regs[in.src.reg]); err != nil {
				return c.pageFault(err, a)
			}

		case hAddRR:
			c.Regs[in.dst.reg] = c.add32(c.Regs[in.dst.reg], c.Regs[in.src.reg])

		case hAddIR:
			c.Regs[in.dst.reg] = c.add32(c.Regs[in.dst.reg], uint32(in.src.val))

		case hSubRR:
			c.Regs[in.dst.reg] = c.sub32(c.Regs[in.dst.reg], c.Regs[in.src.reg])

		case hCmpMR:
			a := uint32(in.src.val) + c.Regs[in.src.reg]
			m.MemAccess(a)
			s, err := c.AS.Load(a, 4)
			if err != nil {
				return c.pageFault(err, a)
			}
			c.sub32(c.Regs[in.dst.reg], s)

		case hXorRR:
			c.Regs[in.dst.reg] = c.logic32(c.Regs[in.dst.reg] ^ c.Regs[in.src.reg])

		case hXorMR:
			a := uint32(in.src.val) + c.Regs[in.src.reg]
			m.MemAccess(a)
			s, err := c.AS.Load(a, 4)
			if err != nil {
				return c.pageFault(err, a)
			}
			c.Regs[in.dst.reg] = c.logic32(c.Regs[in.dst.reg] ^ s)

		case hAndIR:
			c.Regs[in.dst.reg] = c.logic32(c.Regs[in.dst.reg] & uint32(in.src.val))

		case hShlIR:
			// A count of zero changes nothing, flags included.
			if cnt := uint32(in.src.val) & 31; cnt > 0 {
				d := c.Regs[in.dst.reg]
				res := d << cnt
				c.CF = d&(1<<(32-cnt)) != 0
				c.setZS(res, mask32, sign32)
				c.OF = false
				c.Regs[in.dst.reg] = res
			}

		case hShrIR:
			if cnt := uint32(in.src.val) & 31; cnt > 0 {
				d := c.Regs[in.dst.reg]
				res := d >> cnt
				c.CF = d&(1<<(cnt-1)) != 0
				c.setZS(res, mask32, sign32)
				c.OF = false
				c.Regs[in.dst.reg] = res
			}

		case hDecR:
			d := c.Regs[in.dst.reg]
			res := d - 1
			c.OF = d == sign32
			c.setZS(res, mask32, sign32) // CF unaffected, as on x86
			c.Regs[in.dst.reg] = res

		case hPushR:
			v := c.Regs[in.src.reg]
			m.MemAccess(c.Regs[isa.ESP] - 4)
			if err := c.Push(v); err != nil {
				return err
			}

		case hPopR:
			m.MemAccess(c.Regs[isa.ESP])
			v, err := c.Pop()
			if err != nil {
				return c.pageFault(err, c.Regs[isa.ESP])
			}
			c.Regs[in.dst.reg] = v

		case hJcc:
			if c.cond(in.cond) {
				next = in.target
			}

		default:
			done, err := c.exec(in, next, shadowBase)
			if err != nil {
				return err
			}
			if done {
				return nil
			}
			continue
		}
		c.PC = next
	}
}

func (c *CPU) pageFault(err error, addr uint32) error {
	if pf, ok := err.(*mem.PageFault); ok {
		return &Fault{Kind: FaultPage, PC: c.PC, Addr: pf.Addr}
	}
	return &Fault{Kind: FaultPage, PC: c.PC, Addr: addr, Msg: err.Error()}
}

func sizeMask(size uint32) uint32 {
	switch size {
	case 1:
		return 0xFF
	case 2:
		return 0xFFFF
	}
	return 0xFFFFFFFF
}

func signBit(size uint32) uint32 { return 1 << (size*8 - 1) }

// Mask and sign bit of a 32-bit operand.
const (
	mask32 = 0xFFFFFFFF
	sign32 = 0x80000000
)

// setZS sets ZF/SF from a result, given the operand size's mask and sign
// bit.
func (c *CPU) setZS(v, mask, sign uint32) {
	v &= mask
	c.ZF = v == 0
	c.SF = v&sign != 0
}

// add32 sets the flags of the 32-bit addition d + s and returns the sum.
func (c *CPU) add32(d, s uint32) uint32 {
	res := d + s
	c.setZS(res, mask32, sign32)
	c.CF = res < d
	c.OF = ^(d^s)&(d^res)&sign32 != 0
	return res
}

// sub32 sets the flags of the 32-bit subtraction d - s and returns the
// difference (sub, and cmp which drops it).
func (c *CPU) sub32(d, s uint32) uint32 {
	res := d - s
	c.setZS(res, mask32, sign32)
	c.CF = d < s
	c.OF = (d^s)&(d^res)&sign32 != 0
	return res
}

// logic32 sets the flags of a 32-bit and/or/xor result and returns it.
func (c *CPU) logic32(res uint32) uint32 {
	c.setZS(res, mask32, sign32)
	c.CF, c.OF = false, false
	return res
}

// flagsPack encodes flags in x86 EFLAGS bit positions.
func (c *CPU) flagsPack() uint32 {
	var f uint32 = 0x2 // reserved bit
	if c.CF {
		f |= 1 << 0
	}
	if c.ZF {
		f |= 1 << 6
	}
	if c.SF {
		f |= 1 << 7
	}
	if c.OF {
		f |= 1 << 11
	}
	return f
}

func (c *CPU) flagsUnpack(f uint32) {
	c.CF = f&(1<<0) != 0
	c.ZF = f&(1<<6) != 0
	c.SF = f&(1<<7) != 0
	c.OF = f&(1<<11) != 0
}

// cond evaluates a condition against the flags.
func (c *CPU) cond(cc isa.Cond) bool {
	switch cc {
	case isa.E:
		return c.ZF
	case isa.NE:
		return !c.ZF
	case isa.B:
		return c.CF
	case isa.AE:
		return !c.CF
	case isa.BE:
		return c.CF || c.ZF
	case isa.A:
		return !c.CF && !c.ZF
	case isa.L:
		return c.SF != c.OF
	case isa.GE:
		return c.SF == c.OF
	case isa.LE:
		return c.ZF || c.SF != c.OF
	case isa.G:
		return !c.ZF && c.SF == c.OF
	case isa.S:
		return c.SF
	case isa.NS:
		return !c.SF
	}
	return false
}
