package cpu

import (
	"twindrivers/internal/isa"
)

// exec is the generic body: it executes any lowered instruction, reading
// operand kinds and sizes from the record. run has already fetched the
// instruction, counted it and charged its issue cycle; next is the address
// of the following slot. It returns done=true when a RET pops the
// ReturnSentinel of the current Call frame.
func (c *CPU) exec(in *linst, next uint32, shadowBase int) (bool, error) {
	size := uint32(in.size)
	mask, sign := sizeMask(size), signBit(size)

	switch in.op {
	case isa.NOP:
		// nothing

	case isa.MOV:
		v, err := c.loadOperand(&in.src, size, mask)
		if err != nil {
			return false, err
		}
		if err := c.storeOperand(&in.dst, size, mask, v); err != nil {
			return false, err
		}

	case isa.MOVZX:
		v, err := c.loadOperand(&in.src, size, mask)
		if err != nil {
			return false, err
		}
		if err := c.storeOperand(&in.dst, 4, mask32, v); err != nil {
			return false, err
		}

	case isa.MOVSX:
		v, err := c.loadOperand(&in.src, size, mask)
		if err != nil {
			return false, err
		}
		if v&sign != 0 {
			v |= ^mask
		}
		if err := c.storeOperand(&in.dst, 4, mask32, v); err != nil {
			return false, err
		}

	case isa.LEA:
		if in.src.kind != isa.KindMem || in.dst.kind != isa.KindReg {
			return false, &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: "lea wants mem, reg"}
		}
		c.Regs[in.dst.reg] = c.ea(&in.src)

	case isa.PUSH:
		v, err := c.loadOperand(&in.src, 4, mask32)
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
		if err := c.storeOperand(&in.dst, 4, mask32, v); err != nil {
			return false, err
		}

	case isa.XCHG:
		a, err := c.loadOperand(&in.src, size, mask)
		if err != nil {
			return false, err
		}
		b, err := c.loadOperand(&in.dst, size, mask)
		if err != nil {
			return false, err
		}
		if err := c.storeOperand(&in.src, size, mask, b); err != nil {
			return false, err
		}
		if err := c.storeOperand(&in.dst, size, mask, a); err != nil {
			return false, err
		}

	case isa.ADD, isa.ADC, isa.SUB, isa.SBB, isa.CMP:
		s, err := c.loadOperand(&in.src, size, mask)
		if err != nil {
			return false, err
		}
		d, err := c.loadOperand(&in.dst, size, mask)
		if err != nil {
			return false, err
		}
		carry := uint64(0)
		if (in.op == isa.ADC || in.op == isa.SBB) && c.CF {
			carry = 1
		}
		var r uint64
		sub := in.op == isa.SUB || in.op == isa.SBB || in.op == isa.CMP
		if sub {
			r = uint64(d) - uint64(s) - carry
		} else {
			r = uint64(d) + uint64(s) + carry
		}
		res := uint32(r) & mask
		c.setZS(res, mask, sign)
		if sub {
			c.CF = uint64(d) < uint64(s)+carry
			c.OF = (d^s)&(d^res)&sign != 0
		} else {
			c.CF = r > uint64(mask)
			c.OF = ^(d^s)&(d^res)&sign != 0
		}
		if in.op != isa.CMP {
			if err := c.storeOperand(&in.dst, size, mask, res); err != nil {
				return false, err
			}
		}

	case isa.AND, isa.OR, isa.XOR, isa.TEST:
		s, err := c.loadOperand(&in.src, size, mask)
		if err != nil {
			return false, err
		}
		d, err := c.loadOperand(&in.dst, size, mask)
		if err != nil {
			return false, err
		}
		var res uint32
		switch in.op {
		case isa.AND, isa.TEST:
			res = d & s
		case isa.OR:
			res = d | s
		case isa.XOR:
			res = d ^ s
		}
		res &= mask
		c.setZS(res, mask, sign)
		c.CF, c.OF = false, false
		if in.op != isa.TEST {
			if err := c.storeOperand(&in.dst, size, mask, res); err != nil {
				return false, err
			}
		}

	case isa.SHL, isa.SHR, isa.SAR:
		cnt, err := c.loadOperand(&in.src, 4, mask32)
		if err != nil {
			return false, err
		}
		cnt &= 31
		d, err := c.loadOperand(&in.dst, size, mask)
		if err != nil {
			return false, err
		}
		res := d
		if cnt > 0 {
			switch in.op {
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
				res = uint32(sv>>cnt) & mask
			}
			res &= mask
			c.setZS(res, mask, sign)
			c.OF = false
			if err := c.storeOperand(&in.dst, size, mask, res); err != nil {
				return false, err
			}
		}

	case isa.INC, isa.DEC:
		d, err := c.loadOperand(&in.dst, size, mask)
		if err != nil {
			return false, err
		}
		var res uint32
		if in.op == isa.INC {
			res = (d + 1) & mask
			c.OF = res == sign
		} else {
			res = (d - 1) & mask
			c.OF = d == sign
		}
		c.setZS(res, mask, sign) // CF unaffected, as on x86
		if err := c.storeOperand(&in.dst, size, mask, res); err != nil {
			return false, err
		}

	case isa.NEG:
		d, err := c.loadOperand(&in.dst, size, mask)
		if err != nil {
			return false, err
		}
		res := (-d) & mask
		c.setZS(res, mask, sign)
		c.CF = d != 0
		c.OF = d == sign
		if err := c.storeOperand(&in.dst, size, mask, res); err != nil {
			return false, err
		}

	case isa.NOT:
		d, err := c.loadOperand(&in.dst, size, mask)
		if err != nil {
			return false, err
		}
		if err := c.storeOperand(&in.dst, size, mask, ^d&mask); err != nil {
			return false, err
		}

	case isa.IMUL:
		s, err := c.loadOperand(&in.src, size, mask)
		if err != nil {
			return false, err
		}
		d, err := c.loadOperand(&in.dst, size, mask)
		if err != nil {
			return false, err
		}
		full := int64(int32(d)) * int64(int32(s))
		res := uint32(full)
		c.CF = full != int64(int32(res))
		c.OF = c.CF
		c.setZS(res, mask, sign)
		c.Meter.Add(3) // multiply latency
		if err := c.storeOperand(&in.dst, size, mask, res); err != nil {
			return false, err
		}

	case isa.MUL:
		s, err := c.loadOperand(&in.dst, size, mask)
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
		s, err := c.loadOperand(&in.dst, size, mask)
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
		if c.cond(in.cond) {
			v = 1
		}
		if err := c.storeOperand(&in.dst, 1, 0xFF, v); err != nil {
			return false, err
		}

	case isa.JMP:
		if in.indirect {
			t, err := c.loadOperand(&in.src, 4, mask32)
			if err != nil {
				return false, err
			}
			return c.transfer(t, shadowBase)
		}
		c.PC = in.target
		return false, nil

	case isa.JCC:
		if c.cond(in.cond) {
			c.PC = in.target
			return false, nil
		}

	case isa.CALL:
		t := in.target
		if in.indirect {
			v, err := c.loadOperand(&in.src, 4, mask32)
			if err != nil {
				return false, err
			}
			t = v
		}
		c.Meter.Add(1) // call overhead
		return c.transferCall(t, next)

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
		if err := c.stringOp(in); err != nil {
			return false, err
		}

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
		vec, err := c.loadOperand(&in.src, 4, mask32)
		if err != nil {
			return false, err
		}
		c.PC = next // handler sees the post-instruction PC
		if err := c.Hypercall(c, vec); err != nil {
			return false, err
		}
		return false, nil

	case isa.HLT, isa.CLI, isa.STI, isa.IN, isa.OUT:
		if !c.AllowPrivileged {
			return false, &Fault{Kind: FaultPrivileged, PC: c.PC, Msg: in.op.String()}
		}
		// Privileged context: CLI/STI model the virtual interrupt flag at a
		// higher layer; HLT/IN/OUT are no-ops for this machine.

	case isa.UD2:
		return false, &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: "ud2"}

	default:
		return false, &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: in.op.String()}
	}

	c.PC = next
	return false, nil
}

// ea computes the effective address of a memory operand.
func (c *CPU) ea(o *lop) uint32 {
	a := uint32(o.val)
	if o.reg != isa.RegNone {
		a += c.Regs[o.reg]
	}
	if o.index != isa.RegNone {
		a += c.Regs[o.index] * uint32(o.scale)
	}
	return a
}

// loadOperand reads an operand's value, masked to the operand size.
func (c *CPU) loadOperand(o *lop, size, mask uint32) (uint32, error) {
	switch o.kind {
	case isa.KindImm:
		return uint32(o.val) & mask, nil
	case isa.KindReg:
		return c.Regs[o.reg] & mask, nil
	case isa.KindMem:
		a := c.ea(o)
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
func (c *CPU) storeOperand(o *lop, size, mask, val uint32) error {
	switch o.kind {
	case isa.KindReg:
		if size == 4 {
			c.Regs[o.reg] = val
		} else {
			c.Regs[o.reg] = (c.Regs[o.reg] &^ mask) | (val & mask)
		}
		return nil
	case isa.KindMem:
		a := c.ea(o)
		c.Meter.MemAccess(a)
		if err := c.AS.Store(a, size, val&mask); err != nil {
			return c.pageFault(err, a)
		}
		return nil
	}
	return &Fault{Kind: FaultInvalidOp, PC: c.PC, Msg: "bad store operand"}
}

// transfer performs an indirect jmp: extern targets behave like a tail
// call (invoke, then return to the caller's frame).
func (c *CPU) transfer(t uint32, shadowBase int) (bool, error) {
	if e, ok := c.externs[t]; ok {
		if c.OnExternCall != nil {
			c.OnExternCall(e.name)
		}
		ret, err := e.fn(c)
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
	if !c.IsCodeAddr(t) {
		return false, &Fault{Kind: FaultBadCall, PC: c.PC, Addr: t}
	}
	c.PC = t
	return false, nil
}

// transferCall performs a call (direct or indirect) to t, returning to ra.
// Like transfer it accepts function entries only: a corrupted function
// pointer cannot land mid-function.
func (c *CPU) transferCall(t, ra uint32) (bool, error) {
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
		ret, err := e.fn(c)
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
	if !c.IsCodeAddr(t) {
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

// stringOp executes one string instruction, including REP forms. REP forms
// drive ECX directly, so an aborting fault leaves the architectural state
// consistent with the elements already processed.
func (c *CPU) stringOp(in *linst) error {
	size := uint32(in.size)
	mask, sign := sizeMask(size), signBit(size)
	for {
		if in.rep != isa.RepNone && c.Regs[isa.ECX] == 0 {
			break
		}
		var err error
		switch in.op {
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
			if err = c.AS.Store(c.Regs[isa.EDI], size, c.Regs[isa.EAX]&mask); err != nil {
				return c.pageFault(err, c.Regs[isa.EDI])
			}
			c.Regs[isa.EDI] += size
		case isa.LODS:
			var v uint32
			c.Meter.MemAccess(c.Regs[isa.ESI])
			if v, err = c.AS.Load(c.Regs[isa.ESI], size); err != nil {
				return c.pageFault(err, c.Regs[isa.ESI])
			}
			c.Regs[isa.EAX] = (c.Regs[isa.EAX] &^ mask) | (v & mask)
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
			res := (a - b) & mask
			c.setZS(res, mask, sign)
			c.CF = a < b
			c.OF = (a^b)&(a^res)&sign != 0
			c.Regs[isa.ESI] += size
			c.Regs[isa.EDI] += size
		case isa.SCAS:
			var b uint32
			c.Meter.MemAccess(c.Regs[isa.EDI])
			if b, err = c.AS.Load(c.Regs[isa.EDI], size); err != nil {
				return c.pageFault(err, c.Regs[isa.EDI])
			}
			a := c.Regs[isa.EAX] & mask
			res := (a - b) & mask
			c.setZS(res, mask, sign)
			c.CF = a < b
			c.OF = (a^b)&(a^res)&sign != 0
			c.Regs[isa.EDI] += size
		}
		c.Meter.Add(1)
		if in.rep == isa.RepNone {
			break
		}
		c.Regs[isa.ECX]--
		if in.op == isa.CMPS || in.op == isa.SCAS {
			if in.rep == isa.RepE && !c.ZF {
				break
			}
			if in.rep == isa.RepNE && c.ZF {
				break
			}
		}
	}
	return nil
}
