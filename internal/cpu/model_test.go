package cpu

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"twindrivers/internal/asm"
	"twindrivers/internal/cycles"
	"twindrivers/internal/isa"
	"twindrivers/internal/mem"
	"twindrivers/internal/rewrite"
)

// The reference model: the interpreter as it stood before images were
// lowered. It executes *isa.Inst straight from the image — size, mask and
// operand kind re-derived per instruction — and is the definition of what
// every instruction does. The code below the type is that interpreter
// moved here verbatim; the only edits are the receiver and the three
// places that hand the CPU to native code (c.CPU where it said c). The
// lock-step harness further down runs the lowered engine against it one
// instruction at a time.
type refCPU struct {
	*CPU
	fetched *asm.Image // image of the previous fetch; nil once removed
}

// imageAt finds the image containing addr.
func (c *refCPU) imageAt(addr uint32) *asm.Image {
	for _, im := range c.images {
		if im.Contains(addr) {
			return im
		}
	}
	return nil
}

// Call invokes the function at entry with cdecl arguments and runs it to
// completion, returning EAX. It is reentrant: externs may Call back into
// simulated code.
func (c *refCPU) Call(entry uint32, args ...uint32) (uint32, error) {
	if c.depth == 0 {
		c.inst = 0
	}
	c.depth++
	ret, err := c.call(entry, args)
	c.depth--
	return ret, err
}

// call is the body of Call, between the depth bookkeeping.
func (c *refCPU) call(entry uint32, args []uint32) (uint32, error) {
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
		ret, err := e.fn(c.CPU)
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
func (c *refCPU) run(shadowBase int) error {
	for {
		// Straight-line code stays in one image: search the image list
		// only when the PC leaves the image of the previous fetch.
		var in *isa.Inst
		var target uint32
		ok := false
		if c.fetched != nil {
			in, target, ok = c.fetched.At(c.PC)
		}
		if !ok {
			im := c.imageAt(c.PC)
			if im == nil {
				return &Fault{Kind: FaultBadFetch, PC: c.PC}
			}
			c.fetched = im
			in, target, _ = im.At(c.PC)
		}
		c.Meter.IFetch(c.PC)
		c.inst++
		c.Retired++
		if c.Budget != 0 && c.inst > c.Budget {
			return &Fault{Kind: FaultWatchdog, PC: c.PC, Msg: "instruction budget exhausted"}
		}
		done, err := c.step(in, target, shadowBase)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// EA computes the effective address of a memory operand.
func (c *refCPU) EA(o *isa.Operand) uint32 {
	a := uint32(o.Disp)
	if o.Base != isa.RegNone {
		a += c.Regs[o.Base]
	}
	if o.Index != isa.RegNone {
		a += c.Regs[o.Index] * uint32(o.EffScale())
	}
	return a
}

// loadOperand reads an operand's value (masked to size).
func (c *refCPU) loadOperand(o *isa.Operand, size uint32) (uint32, error) {
	switch o.Kind {
	case isa.KindImm:
		return uint32(o.Imm) & sizeMask(size), nil
	case isa.KindReg:
		return c.Regs[o.Reg] & sizeMask(size), nil
	case isa.KindMem:
		a := c.EA(o)
		c.Meter.MemAccess(a)
		v, err := c.AS.Load(a, size)
		if err != nil {
			return 0, c.pageFault(err, a)
		}
		return v, nil
	}
	return 0, &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: "empty operand"}
}

// storeOperand writes val (masked to size) to a register or memory operand.
// Sub-word register writes preserve the upper bits, as on x86.
func (c *refCPU) storeOperand(o *isa.Operand, size uint32, val uint32) error {
	switch o.Kind {
	case isa.KindReg:
		if size == 4 {
			c.Regs[o.Reg] = val
		} else {
			m := sizeMask(size)
			c.Regs[o.Reg] = (c.Regs[o.Reg] &^ m) | (val & m)
		}
		return nil
	case isa.KindMem:
		a := c.EA(o)
		c.Meter.MemAccess(a)
		if err := c.AS.Store(a, size, val&sizeMask(size)); err != nil {
			return c.pageFault(err, a)
		}
		return nil
	}
	return &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: "bad store operand"}
}

// setZS sets ZF/SF from a result.
func (c *refCPU) setZS(v, size uint32) {
	v &= sizeMask(size)
	c.ZF = v == 0
	c.SF = v&signBit(size) != 0
}

// step executes one instruction. It returns done=true when a RET pops the
// ReturnSentinel of the current Call frame.
func (c *refCPU) step(in *isa.Inst, target uint32, shadowBase int) (bool, error) {
	size := in.EffSize()
	next := c.PC + 8 // asm.InstSlot
	c.Meter.Add(1)   // base issue cost

	switch in.Op {
	case isa.NOP:
		// nothing

	case isa.MOV:
		v, err := c.loadOperand(&in.Src, size)
		if err != nil {
			return false, err
		}
		if err := c.storeOperand(&in.Dst, size, v); err != nil {
			return false, err
		}

	case isa.MOVZX:
		v, err := c.loadOperand(&in.Src, size)
		if err != nil {
			return false, err
		}
		if err := c.storeOperand(&in.Dst, 4, v); err != nil {
			return false, err
		}

	case isa.MOVSX:
		v, err := c.loadOperand(&in.Src, size)
		if err != nil {
			return false, err
		}
		if v&signBit(size) != 0 {
			v |= ^sizeMask(size)
		}
		if err := c.storeOperand(&in.Dst, 4, v); err != nil {
			return false, err
		}

	case isa.LEA:
		if in.Src.Kind != isa.KindMem || in.Dst.Kind != isa.KindReg {
			return false, &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: "lea wants mem, reg"}
		}
		c.Regs[in.Dst.Reg] = c.EA(&in.Src)

	case isa.PUSH:
		v, err := c.loadOperand(&in.Src, 4)
		if err != nil {
			return false, err
		}
		c.Meter.MemAccess(c.Regs[isa.ESP] - 4)
		if err := c.Push(v); err != nil {
			return false, err
		}

	case isa.POP:
		c.Meter.MemAccess(c.Regs[isa.ESP])
		v, err := c.Pop()
		if err != nil {
			return false, c.pageFault(err, c.Regs[isa.ESP])
		}
		if err := c.storeOperand(&in.Dst, 4, v); err != nil {
			return false, err
		}

	case isa.XCHG:
		a, err := c.loadOperand(&in.Src, size)
		if err != nil {
			return false, err
		}
		b, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		if err := c.storeOperand(&in.Src, size, b); err != nil {
			return false, err
		}
		if err := c.storeOperand(&in.Dst, size, a); err != nil {
			return false, err
		}

	case isa.ADD, isa.ADC, isa.SUB, isa.SBB, isa.CMP:
		s, err := c.loadOperand(&in.Src, size)
		if err != nil {
			return false, err
		}
		d, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		carry := uint64(0)
		if (in.Op == isa.ADC || in.Op == isa.SBB) && c.CF {
			carry = 1
		}
		var r uint64
		sub := in.Op == isa.SUB || in.Op == isa.SBB || in.Op == isa.CMP
		if sub {
			r = uint64(d) - uint64(s) - carry
		} else {
			r = uint64(d) + uint64(s) + carry
		}
		res := uint32(r) & sizeMask(size)
		c.setZS(res, size)
		if sub {
			c.CF = uint64(d) < uint64(s)+carry
			c.OF = (d^s)&(d^res)&signBit(size) != 0
		} else {
			c.CF = r > uint64(sizeMask(size))
			c.OF = ^(d^s)&(d^res)&signBit(size) != 0
		}
		if in.Op != isa.CMP {
			if err := c.storeOperand(&in.Dst, size, res); err != nil {
				return false, err
			}
		}

	case isa.AND, isa.OR, isa.XOR, isa.TEST:
		s, err := c.loadOperand(&in.Src, size)
		if err != nil {
			return false, err
		}
		d, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		var res uint32
		switch in.Op {
		case isa.AND, isa.TEST:
			res = d & s
		case isa.OR:
			res = d | s
		case isa.XOR:
			res = d ^ s
		}
		res &= sizeMask(size)
		c.setZS(res, size)
		c.CF, c.OF = false, false
		if in.Op != isa.TEST {
			if err := c.storeOperand(&in.Dst, size, res); err != nil {
				return false, err
			}
		}

	case isa.SHL, isa.SHR, isa.SAR:
		cnt, err := c.loadOperand(&in.Src, 4)
		if err != nil {
			return false, err
		}
		cnt &= 31
		d, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		res := d
		if cnt > 0 {
			switch in.Op {
			case isa.SHL:
				c.CF = cnt <= size*8 && d&(1<<(size*8-cnt)) != 0
				res = d << cnt
			case isa.SHR:
				c.CF = d&(1<<(cnt-1)) != 0
				res = d >> cnt
			case isa.SAR:
				c.CF = d&(1<<(cnt-1)) != 0
				w := size * 8
				sv := int32(d<<(32-w)) >> (32 - w) // sign-extend to 32 bits
				res = uint32(sv>>cnt) & sizeMask(size)
			}
			res &= sizeMask(size)
			c.setZS(res, size)
			c.OF = false
			if err := c.storeOperand(&in.Dst, size, res); err != nil {
				return false, err
			}
		}

	case isa.INC, isa.DEC:
		d, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		var res uint32
		if in.Op == isa.INC {
			res = (d + 1) & sizeMask(size)
			c.OF = res == signBit(size)
		} else {
			res = (d - 1) & sizeMask(size)
			c.OF = d == signBit(size)
		}
		c.setZS(res, size) // CF unaffected, as on x86
		if err := c.storeOperand(&in.Dst, size, res); err != nil {
			return false, err
		}

	case isa.NEG:
		d, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		res := (-d) & sizeMask(size)
		c.setZS(res, size)
		c.CF = d != 0
		c.OF = d == signBit(size)
		if err := c.storeOperand(&in.Dst, size, res); err != nil {
			return false, err
		}

	case isa.NOT:
		d, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		if err := c.storeOperand(&in.Dst, size, ^d&sizeMask(size)); err != nil {
			return false, err
		}

	case isa.IMUL:
		s, err := c.loadOperand(&in.Src, size)
		if err != nil {
			return false, err
		}
		d, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		full := int64(int32(d)) * int64(int32(s))
		res := uint32(full)
		c.CF = full != int64(int32(res))
		c.OF = c.CF
		c.setZS(res, size)
		c.Meter.Add(3) // multiply latency
		if err := c.storeOperand(&in.Dst, size, res); err != nil {
			return false, err
		}

	case isa.MUL:
		s, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		full := uint64(c.Regs[isa.EAX]) * uint64(s)
		c.Regs[isa.EAX] = uint32(full)
		c.Regs[isa.EDX] = uint32(full >> 32)
		c.CF = c.Regs[isa.EDX] != 0
		c.OF = c.CF
		c.Meter.Add(3)

	case isa.DIV:
		s, err := c.loadOperand(&in.Dst, size)
		if err != nil {
			return false, err
		}
		if s == 0 {
			return false, &Fault{Kind: FaultDivide, PC: c.PC}
		}
		n := uint64(c.Regs[isa.EDX])<<32 | uint64(c.Regs[isa.EAX])
		q := n / uint64(s)
		if q > 0xFFFFFFFF {
			return false, &Fault{Kind: FaultDivide, PC: c.PC, Msg: "quotient overflow"}
		}
		c.Regs[isa.EAX] = uint32(q)
		c.Regs[isa.EDX] = uint32(n % uint64(s))
		c.Meter.Add(20) // divide latency

	case isa.SETCC:
		v := uint32(0)
		if c.cond(in.Cond) {
			v = 1
		}
		if err := c.storeOperand(&in.Dst, 1, v); err != nil {
			return false, err
		}

	case isa.JMP:
		if in.Indirect {
			t, err := c.loadOperand(&in.Src, 4)
			if err != nil {
				return false, err
			}
			return c.transfer(t, false, shadowBase)
		}
		c.PC = target
		return false, nil

	case isa.JCC:
		if c.cond(in.Cond) {
			c.PC = target
			return false, nil
		}

	case isa.CALL:
		t := target
		if in.Indirect {
			v, err := c.loadOperand(&in.Src, 4)
			if err != nil {
				return false, err
			}
			t = v
		}
		c.Meter.Add(1) // call overhead
		return c.transferCall(t, next, shadowBase)

	case isa.RET:
		c.Meter.MemAccess(c.Regs[isa.ESP])
		ra, err := c.Pop()
		if err != nil {
			return false, c.pageFault(err, c.Regs[isa.ESP])
		}
		if c.ShadowStack {
			if len(c.shadow) > shadowBase {
				want := c.shadow[len(c.shadow)-1]
				c.shadow = c.shadow[:len(c.shadow)-1]
				if want != ra {
					return false, &Fault{Kind: FaultShadowStack, PC: c.PC, Addr: ra,
						Msg: "return address corrupted"}
				}
			}
		}
		if ra == ReturnSentinel {
			return true, nil
		}
		c.PC = ra
		return false, nil

	case isa.MOVS, isa.STOS, isa.LODS, isa.CMPS, isa.SCAS:
		return false, c.stringOp(in, size)

	case isa.PUSHF:
		c.Meter.MemAccess(c.Regs[isa.ESP] - 4)
		if err := c.Push(c.flagsPack()); err != nil {
			return false, err
		}

	case isa.POPF:
		c.Meter.MemAccess(c.Regs[isa.ESP])
		v, err := c.Pop()
		if err != nil {
			return false, c.pageFault(err, c.Regs[isa.ESP])
		}
		c.flagsUnpack(v)

	case isa.CLC:
		c.CF = false
	case isa.STC:
		c.CF = true
	case isa.CLD:
		// Direction is always forward in this machine.
	case isa.STD:
		return false, &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: "descending string direction unsupported"}

	case isa.INT:
		if c.Hypercall == nil {
			return false, &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: "no hypercall handler"}
		}
		vec, err := c.loadOperand(&in.Src, 4)
		if err != nil {
			return false, err
		}
		c.PC = next // handler sees the post-instruction PC
		if err := c.Hypercall(c.CPU, vec); err != nil {
			return false, err
		}
		return false, nil

	case isa.HLT, isa.CLI, isa.STI, isa.IN, isa.OUT:
		if !c.AllowPrivileged {
			return false, &Fault{Kind: FaultPrivileged, PC: c.PC, Msg: in.Op.String()}
		}
		// Privileged context: CLI/STI model the virtual interrupt flag at a
		// higher layer; HLT/IN/OUT are no-ops for this machine.

	case isa.UD2:
		return false, &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: "ud2"}

	default:
		return false, &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: in.Op.String()}
	}

	c.PC = next
	return false, nil
}

// transfer performs an indirect jmp: extern targets behave like a tail
// call (invoke, then return to the caller's frame).
func (c *refCPU) transfer(t uint32, _ bool, shadowBase int) (bool, error) {
	if e, ok := c.externs[t]; ok {
		if c.OnExternCall != nil {
			c.OnExternCall(e.name)
		}
		ret, err := e.fn(c.CPU)
		if err != nil {
			return false, err
		}
		c.Regs[isa.EAX] = ret
		// Tail call: return to the address on top of the stack.
		ra, err := c.Pop()
		if err != nil {
			return false, c.pageFault(err, c.Regs[isa.ESP])
		}
		if c.ShadowStack && len(c.shadow) > shadowBase {
			c.shadow = c.shadow[:len(c.shadow)-1]
		}
		if ra == ReturnSentinel {
			return true, nil
		}
		c.PC = ra
		return false, nil
	}
	if !c.validTarget(t) {
		return false, &Fault{Kind: FaultBadCall, PC: c.PC, Addr: t}
	}
	c.PC = t
	return false, nil
}

// transferCall performs a call (direct or indirect) to t, returning to ra.
func (c *refCPU) transferCall(t, ra uint32, _ int) (bool, error) {
	if e, ok := c.externs[t]; ok {
		// Native routine: simulate push of return address for the cdecl
		// frame, invoke, pop, continue — all within this instruction.
		c.Meter.MemAccess(c.Regs[isa.ESP] - 4)
		if err := c.Push(ra); err != nil {
			return false, err
		}
		if c.OnExternCall != nil {
			c.OnExternCall(e.name)
		}
		ret, err := e.fn(c.CPU)
		if err != nil {
			return false, err
		}
		c.Regs[isa.EAX] = ret
		if _, err := c.Pop(); err != nil {
			return false, c.pageFault(err, c.Regs[isa.ESP])
		}
		c.PC = ra
		return false, nil
	}
	if !c.validTarget(t) {
		return false, &Fault{Kind: FaultBadCall, PC: c.PC, Addr: t}
	}
	c.Meter.MemAccess(c.Regs[isa.ESP] - 4)
	if err := c.Push(ra); err != nil {
		return false, err
	}
	if c.ShadowStack {
		c.shadow = append(c.shadow, ra)
	}
	c.PC = t
	return false, nil
}

// validTarget accepts function entries only: a corrupted function pointer
// cannot land mid-function.
func (c *refCPU) validTarget(t uint32) bool {
	return c.IsCodeAddr(t)
}

// stringOp executes one string instruction, including REP forms. REP forms
// drive ECX directly, so an aborting fault leaves the architectural state
// consistent with the elements already processed.
func (c *refCPU) stringOp(in *isa.Inst, size uint32) error {
	for {
		if in.Rep != isa.RepNone && c.Regs[isa.ECX] == 0 {
			break
		}
		var err error
		switch in.Op {
		case isa.MOVS:
			var v uint32
			c.Meter.MemAccess(c.Regs[isa.ESI])
			if v, err = c.AS.Load(c.Regs[isa.ESI], size); err != nil {
				return c.pageFault(err, c.Regs[isa.ESI])
			}
			c.Meter.MemAccess(c.Regs[isa.EDI])
			if err = c.AS.Store(c.Regs[isa.EDI], size, v); err != nil {
				return c.pageFault(err, c.Regs[isa.EDI])
			}
			c.Regs[isa.ESI] += size
			c.Regs[isa.EDI] += size
		case isa.STOS:
			c.Meter.MemAccess(c.Regs[isa.EDI])
			if err = c.AS.Store(c.Regs[isa.EDI], size, c.Regs[isa.EAX]&sizeMask(size)); err != nil {
				return c.pageFault(err, c.Regs[isa.EDI])
			}
			c.Regs[isa.EDI] += size
		case isa.LODS:
			var v uint32
			c.Meter.MemAccess(c.Regs[isa.ESI])
			if v, err = c.AS.Load(c.Regs[isa.ESI], size); err != nil {
				return c.pageFault(err, c.Regs[isa.ESI])
			}
			m := sizeMask(size)
			c.Regs[isa.EAX] = (c.Regs[isa.EAX] &^ m) | (v & m)
			c.Regs[isa.ESI] += size
		case isa.CMPS:
			var a, b uint32
			c.Meter.MemAccess(c.Regs[isa.ESI])
			if a, err = c.AS.Load(c.Regs[isa.ESI], size); err != nil {
				return c.pageFault(err, c.Regs[isa.ESI])
			}
			c.Meter.MemAccess(c.Regs[isa.EDI])
			if b, err = c.AS.Load(c.Regs[isa.EDI], size); err != nil {
				return c.pageFault(err, c.Regs[isa.EDI])
			}
			res := (a - b) & sizeMask(size)
			c.setZS(res, size)
			c.CF = a < b
			c.OF = (a^b)&(a^res)&signBit(size) != 0
			c.Regs[isa.ESI] += size
			c.Regs[isa.EDI] += size
		case isa.SCAS:
			var b uint32
			c.Meter.MemAccess(c.Regs[isa.EDI])
			if b, err = c.AS.Load(c.Regs[isa.EDI], size); err != nil {
				return c.pageFault(err, c.Regs[isa.EDI])
			}
			a := c.Regs[isa.EAX] & sizeMask(size)
			res := (a - b) & sizeMask(size)
			c.setZS(res, size)
			c.CF = a < b
			c.OF = (a^b)&(a^res)&signBit(size) != 0
			c.Regs[isa.EDI] += size
		}
		c.Meter.Add(1)
		if in.Rep == isa.RepNone {
			break
		}
		c.Regs[isa.ECX]--
		if in.Op == isa.CMPS || in.Op == isa.SCAS {
			if in.Rep == isa.RepE && !c.ZF {
				break
			}
			if in.Rep == isa.RepNE && c.ZF {
				break
			}
		}
	}
	c.PC += 8
	return nil
}

// ---------------------------------------------------------------------------
// The lock-step harness.
//
// A pair is two identically built flat machines — own physical memory,
// address space and meter, the same image, the same deterministic stub
// externs, plain RAM where a device would be — one executing through the
// lowered engine (CPU.run), the other through the reference above. The
// harness runs ONE instruction on each side and compares everything the
// CPU and the meter expose, then the next; at the end it compares every
// mapped page and how the run stopped.
//
// "One instruction" is a run with a budget of one: the instruction
// executes, the watchdog stops the next one after its fetch has been
// charged and counted, and the step after that resumes there. Both sides
// stop the same way, so the extra fetch is part of what is compared, and
// the engine under test is CPU.run exactly as it ships — program cache,
// index arithmetic and watchdog included.

// Layout of a flat machine.
const (
	lsCode        = 0x00100000
	lsData        = 0x00200000 // followed by an unmapped page
	lsDataPages   = 8
	lsDataEnd     = lsData + lsDataPages*mem.PageSize
	lsStack       = 0x00300000 // the page below it is unmapped
	lsStackPages  = 4
	lsStackTop    = lsStack + lsStackPages*mem.PageSize
	lsDev         = 0x00400000 // plain RAM where the device's registers would be
	lsDevPages    = 2
	lsImport      = 0x00500000 // one slot per imported symbol: data there, an extern bound at it
	lsImportPages = 2
	lsImportSlot  = 16
	lsTable       = 0x00600000 // the rewritten drivers' translation table
	lsTablePages  = 8
	lsUnmapped    = 0x09000000
)

var lsRegions = []struct {
	base  uint32
	pages int
}{
	{lsData, lsDataPages}, {lsStack, lsStackPages}, {lsDev, lsDevPages},
	{lsImport, lsImportPages}, {lsTable, lsTablePages},
}

// machine is one side of a pair.
type machine struct {
	c   *CPU
	ref *refCPU // set on the reference side: run and Call go through it
	as  *mem.AddressSpace
	im  *asm.Image

	imports []string // imported symbols, in slot order
	salt    uint32   // varies the memory pattern and what the stubs return
}

// hash is the deterministic noise the stubs and the memory pattern draw on.
func hash(a, b uint32) uint32 {
	x := a*2654435761 ^ b*40503 ^ 0x9E3779B9
	x ^= x >> 15
	x *= 2246822519
	x ^= x >> 13
	return x
}

// dataPointer folds noise into a word-aligned address inside the data
// window, so a pointer chased through pattern memory lands on more memory.
func dataPointer(x uint32) uint32 {
	return lsData + x%(lsDataPages*mem.PageSize-256)&^3
}

// newMachine builds one side around unit u. Every symbol u does not define
// is given a slot in the import window: reading it reads RAM, calling it
// calls a stub.
func newMachine(t testing.TB, u *asm.Unit, reference bool) *machine {
	t.Helper()
	phys := mem.NewPhysical()
	m := &machine{as: mem.NewAddressSpace("flat", phys, nil), imports: u.UndefinedSymbols()}
	for _, r := range lsRegions {
		m.as.MapRange(r.base, phys.AllocFrames(mem.OwnerDom0, r.pages), r.pages)
	}
	if len(m.imports)*lsImportSlot > lsImportPages*mem.PageSize {
		t.Fatalf("%d imports do not fit the import window", len(m.imports))
	}
	slot := func(sym string) (uint32, bool) {
		if sym == rewrite.SymSTLB {
			return lsTable, true // 32 KiB of table do not fit a slot
		}
		for i, s := range m.imports {
			if s == sym {
				return lsImport + uint32(i)*lsImportSlot, true
			}
		}
		return 0, false
	}
	im, err := asm.Layout("flat", u, lsCode, lsData+4*mem.PageSize, slot)
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	if im.DataEnd > lsDataEnd {
		t.Fatalf("unit data ends at %#x, past the data window", im.DataEnd)
	}
	m.im = im
	m.c = New(m.as, cycles.NewMeter())
	m.c.AddImage(im)
	if reference {
		m.ref = &refCPU{CPU: m.c}
	}
	for i, sym := range m.imports {
		m.c.BindExtern(lsImport+uint32(i)*lsImportSlot, sym, m.stub(i, sym))
	}
	m.reset()
	return m
}

// Names the stubs single out; every other import gets the default stub.
const (
	symProtect  = "ext_protect"       // raises FaultProtection, as the SVM slow path does
	symFail     = "ext_fail"          // returns an error that is not a *Fault
	symNest     = "ext_nest"          // calls back into the image's function "g"
	symIdentity = rewrite.SymSlowPath // translation: returns its argument
)

type stubError struct{ arg uint32 }

func (e *stubError) Error() string { return fmt.Sprintf("stub failed on %#x", e.arg) }

// stub is the native routine behind import i. Its result depends only on
// its arguments, so both sides see the same thing; it clobbers the
// caller-saved registers and writes one word of data, as a support routine
// may.
func (m *machine) stub(i int, sym string) Extern {
	return func(c *CPU) (uint32, error) {
		a0, a1 := c.Arg(0), c.Arg(1)
		switch sym {
		case symProtect:
			return 0, &Fault{Kind: FaultProtection, PC: c.PC, Addr: a0, Msg: "stub"}
		case symFail:
			return 0, &stubError{a0}
		case symIdentity:
			return a0, nil
		case symNest:
			if g, ok := m.im.FuncEntry("g"); ok {
				v, err := m.call(g, a0)
				return v + 1, err
			}
		}
		h := hash(uint32(i)+m.salt<<8, hash(a0, a1))
		c.Regs[isa.ECX], c.Regs[isa.EDX] = h, h>>7
		_ = c.AS.Store(dataPointer(h>>3), 4, h) // always mapped
		if h&3 == 0 {
			return h >> 20, nil // a small integer now and then
		}
		return dataPointer(h), nil
	}
}

// hypercallStub is the paravirtual gate: it sees the post-instruction PC.
func hypercallStub(c *CPU, vec uint32) error {
	if vec&0xFF == 0x99 {
		return &stubError{vec}
	}
	c.Regs[isa.EAX] = hash(vec, c.PC)
	return nil
}

// reset returns the machine to its initial state: pattern memory, the
// image's initial data, a cold meter and a clean CPU. The loaded image, its
// lowered form and the externs stay.
func (m *machine) reset() {
	for _, r := range lsRegions {
		for p := 0; p < r.pages; p++ {
			base := r.base + uint32(p)*mem.PageSize
			f, _ := m.as.Lookup(base / mem.PageSize)
			fd := m.as.Phys.FrameData(f)
			*fd = [mem.PageSize]byte{}
			if r.base == lsStack || r.base == lsTable {
				continue
			}
			for o := uint32(0); o < mem.PageSize; o += 4 {
				v := dataPointer(hash(base+o, m.salt))
				fd[o], fd[o+1], fd[o+2], fd[o+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			}
		}
	}
	// Identity translations for the even pages of the data, device and
	// import windows: a rewritten driver's fast path hits on those and
	// takes the slow path (the identity stub) on the odd ones.
	for _, r := range lsRegions[:4] {
		for p := 0; p < r.pages; p += 2 {
			page := r.base + uint32(p)*mem.PageSize
			_ = m.as.Store(lsTable+(page>>12&4095)*8, 4, page)
			_ = m.as.Store(lsTable+(page>>12&4095)*8+4, 4, 0)
		}
	}
	_ = m.as.WriteBytes(m.im.DataBase, m.im.DataInit())

	c := m.c
	*c = CPU{AS: m.as, Meter: cycles.NewMeter(), Hypercall: hypercallStub,
		images: c.images, progs: c.progs, cur: noProgram, externs: c.externs}
	c.Regs[isa.ESP] = lsStackTop
	if m.ref != nil {
		m.ref.fetched = nil
	}
}

// guarded runs f and reports a panic (a register index out of range is one)
// as text instead of letting it through.
func guarded(f func() error) (err error, crash string) {
	defer func() {
		if r := recover(); r != nil {
			crash = fmt.Sprint(r)
		}
	}()
	return f(), ""
}

// call runs the function at entry to completion on this side's interpreter.
func (m *machine) call(entry uint32, args ...uint32) (uint32, error) {
	if m.ref != nil {
		return m.ref.Call(entry, args...)
	}
	return m.c.Call(entry, args...)
}

// step executes one instruction at c.PC (see the harness comment). With
// exhausted set the budget is already spent: the instruction is fetched,
// counted and refused.
func (m *machine) step(shadowBase int, exhausted bool) (error, string) {
	c := m.c
	c.Budget = c.inst + 1
	if exhausted {
		c.Budget = c.inst
	}
	return guarded(func() error {
		if m.ref != nil {
			return m.ref.run(shadowBase)
		}
		return c.run(shadowBase)
	})
}

// stepped reports whether a step ended the way a clean one does: stopped by
// the watchdog at the fetch of the following instruction.
func (m *machine) stepped(err error) bool {
	return IsFault(err, FaultWatchdog) && m.c.inst == m.c.Budget+1
}

// enter prepares a call of entry the way CPU.Call does — arguments, the
// return sentinel, the PC — without running anything, and leaves the
// instruction count at one so a spent budget is expressible (a Budget of
// zero means no watchdog).
func (m *machine) enter(entry uint32, args ...uint32) {
	c := m.c
	for i := len(args) - 1; i >= 0; i-- {
		_ = c.Push(args[i])
	}
	_ = c.Push(ReturnSentinel)
	c.PC = entry
	c.depth, c.inst = 1, 1
}

// pair is the two sides.
type pair struct {
	eng, ref *machine
}

func newPair(t testing.TB, u *asm.Unit) *pair {
	return &pair{eng: newMachine(t, u, false), ref: newMachine(t, u, true)}
}

func (p *pair) each(f func(m *machine)) { f(p.eng); f(p.ref) }

// cpuDiff compares what is compared after every instruction: registers,
// flags, PC, the retired count, the shadow stack's depth, every meter
// bucket and the four hardware counters. "" means equal.
func (p *pair) cpuDiff() string {
	a, b := p.eng.c, p.ref.c
	switch {
	case a.Regs != b.Regs:
		return fmt.Sprintf("Regs %x, reference %x", a.Regs, b.Regs)
	case a.ZF != b.ZF || a.SF != b.SF || a.CF != b.CF || a.OF != b.OF:
		return fmt.Sprintf("ZF/SF/CF/OF %v/%v/%v/%v, reference %v/%v/%v/%v", a.ZF, a.SF, a.CF, a.OF, b.ZF, b.SF, b.CF, b.OF)
	case a.PC != b.PC:
		return fmt.Sprintf("PC %#x, reference %#x", a.PC, b.PC)
	case a.Retired != b.Retired || a.inst != b.inst:
		return fmt.Sprintf("Retired/inst %d/%d, reference %d/%d", a.Retired, a.inst, b.Retired, b.inst)
	case len(a.shadow) != len(b.shadow):
		return fmt.Sprintf("shadow stack depth %d, reference %d", len(a.shadow), len(b.shadow))
	}
	ma, mb := a.Meter, b.Meter
	for _, comp := range []cycles.Component{cycles.CompDom0, cycles.CompDomU, cycles.CompXen, cycles.CompDriver} {
		if ma.Get(comp) != mb.Get(comp) {
			return fmt.Sprintf("meter bucket %s %d, reference %d", comp, ma.Get(comp), mb.Get(comp))
		}
	}
	ca := [4]uint64{ma.TLBMisses, ma.L1Misses, ma.L1IMisses, ma.MemAccesses}
	cb := [4]uint64{mb.TLBMisses, mb.L1Misses, mb.L1IMisses, mb.MemAccesses}
	if ca != cb {
		return fmt.Sprintf("TLB/L1/L1I misses, accesses %v, reference %v", ca, cb)
	}
	return ""
}

// memDiff compares every mapped page.
func (p *pair) memDiff() string {
	for _, r := range lsRegions {
		for i := 0; i < r.pages; i++ {
			vp := r.base/mem.PageSize + uint32(i)
			fa, _ := p.eng.as.Lookup(vp)
			fb, _ := p.ref.as.Lookup(vp)
			if !bytes.Equal(p.eng.as.Phys.FrameData(fa)[:], p.ref.as.Phys.FrameData(fb)[:]) {
				return fmt.Sprintf("page %#x differs", vp*mem.PageSize)
			}
		}
	}
	return ""
}

// stopDiff compares how the two sides stopped: a fault field by field, any
// other error by type and text, a panic by its text.
func stopDiff(ea error, ca string, eb error, cb string) string {
	if ca != cb {
		return fmt.Sprintf("panic %q, reference %q", ca, cb)
	}
	fa, okA := ea.(*Fault)
	fb, okB := eb.(*Fault)
	switch {
	case ea == nil || eb == nil:
		if ea != eb {
			return fmt.Sprintf("stopped with %v, reference %v", ea, eb)
		}
	case okA != okB || okA && *fa != *fb:
		return fmt.Sprintf("stopped with %v, reference %v", ea, eb)
	case !okA && (reflect.TypeOf(ea) != reflect.TypeOf(eb) || ea.Error() != eb.Error()):
		return fmt.Sprintf("stopped with %T %v, reference %T %v", ea, ea, eb, eb)
	}
	return ""
}

// handlerAt returns the handler the engine side lowered the instruction at
// pc to.
func (p *pair) handlerAt(pc uint32) handler {
	prog := p.eng.c.progs[0]
	return prog.code[(pc-prog.base)/asm.InstSlot].h
}

// lockStep runs the function at entry on both sides, one instruction at a
// time for at most maxSteps instructions, comparing after each; then
// compares memory and the way the run stopped. It returns the number of
// instructions executed and a description of the first difference.
func (p *pair) lockStep(entry uint32, maxSteps int, args ...uint32) (steps int, diff string) {
	p.each(func(m *machine) { m.enter(entry, args...) })
	var errA, errB error
	var crashA, crashB string
	for steps = 0; steps < maxSteps; steps++ {
		pc := p.eng.c.PC
		errA, crashA = p.eng.step(0, false)
		errB, crashB = p.ref.step(0, false)
		if d := p.cpuDiff(); d != "" {
			return steps, fmt.Sprintf("after instruction %d at %#x (%s): %s", steps, pc, p.describe(pc), d)
		}
		if d := stopDiff(errA, crashA, errB, crashB); d != "" {
			return steps, fmt.Sprintf("instruction %d at %#x (%s): %s", steps, pc, p.describe(pc), d)
		}
		if !p.eng.stepped(errA) {
			steps++
			break
		}
	}
	return steps, p.memDiff()
}

// wholeRun calls entry on both sides under the given budget — no
// single-stepping, the fetch sequence a real run has — and compares the
// result, the final state and memory.
func (p *pair) wholeRun(entry uint32, budget uint64, args ...uint32) string {
	var va, vb uint32
	p.each(func(m *machine) { m.c.Budget = budget })
	errA, crashA := guarded(func() (err error) { va, err = p.eng.call(entry, args...); return })
	errB, crashB := guarded(func() (err error) { vb, err = p.ref.call(entry, args...); return })
	if va != vb {
		return fmt.Sprintf("returned %#x, reference %#x", va, vb)
	}
	if d := stopDiff(errA, crashA, errB, crashB); d != "" {
		return d
	}
	if d := p.cpuDiff(); d != "" {
		return d
	}
	return p.memDiff()
}

// describe prints the instruction at pc and the handler it lowered to.
func (p *pair) describe(pc uint32) string {
	in, _, ok := p.eng.im.At(pc)
	if !ok {
		return "outside the image"
	}
	return fmt.Sprintf("%q, handler %d", in.String(), p.handlerAt(pc))
}

// lockStepFunctions runs every function of u — a whole driver — on a pair:
// called with synthetic arguments (pointers into the data and device
// windows, a small integer) under the given instruction budget, first in
// lock step, then as one whole run. Both sides must stop at the same
// instruction in the same state. It returns the number of instructions
// executed in lock step.
func lockStepFunctions(t *testing.T, u *asm.Unit, budget int) (instructions int) {
	t.Helper()
	p := newPair(t, u)
	args := []uint32{lsData + 0x100, lsDev, 17, lsData + 0x2000}
	for _, f := range u.Funcs {
		entry, _ := p.eng.im.FuncEntry(f.Name)
		// A few worlds per function: what memory holds and what the
		// support routines return decides which way the driver branches.
		for salt := uint32(0); salt < 4; salt++ {
			arm := func(m *machine) {
				m.salt = salt
				m.reset()
				m.c.ShadowStack = true
				m.c.GuardLow, m.c.GuardHigh = lsStack, lsStackTop
			}
			p.each(arm)
			steps, d := p.lockStep(entry, budget, args...)
			if d == "" {
				p.each(arm)
				d = p.wholeRun(entry, uint64(budget), args...)
			}
			if d != "" {
				t.Errorf("%s, world %d: %s", f.Name, salt, d)
			}
			instructions += steps
		}
	}
	return instructions
}
