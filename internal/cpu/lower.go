package cpu

import (
	"twindrivers/internal/asm"
	"twindrivers/internal/isa"
)

// The interpreter does not execute isa.Inst. AddImage lowers every
// instruction of an image once into a compact record: operand size
// normalised, each operand folded to the eight bytes its kind uses, the
// branch target resolved, and a handler chosen from the instruction's own
// shape. run dispatches on the handler; everything about
// an instruction that does not change between two executions of it is
// decided here and never again.

// handler selects the body run executes for a lowered instruction. hGeneric
// is the whole instruction set (exec); every other handler is one shape of
// one operation on 32-bit operands — a register destination, a branch or a
// stack move — written out without the operand-kind and size dispatch. A
// shape earns a handler by its share of the instructions the derived
// drivers retire (DESIGN.md, "Host-clock data structures", has the measured
// mix).
type handler uint8

const (
	hGeneric handler = iota
	hMovRR
	hMovMR
	hMovRM
	hLeaMR
	hLeaXR
	hAddRR
	hAddIR
	hSubRR
	hXorRR
	hXorMR
	hCmpMR
	hAndIR
	hShlIR
	hShrIR
	hDecR
	hPushR
	hPopR
	hJcc
)

// shape is what handler selection sees of an operand.
type shape uint8

const (
	sOther   shape = iota // nothing a handler takes: no operand, an absolute or index-only address, a register number no machine has
	sReg                  // %r
	sImm                  // $i
	sMem                  // disp(%b)
	sIndexed              // disp(%b,%i,s)
	sAny                  // in a handler's definition: the body does not read this operand
)

func shapeOfOperand(o *isa.Operand) shape {
	switch {
	case o.Kind == isa.KindReg && o.Reg < isa.NumRegs:
		return sReg
	case o.Kind == isa.KindImm:
		return sImm
	case o.Kind == isa.KindMem && o.Base < isa.NumRegs && o.Index == isa.RegNone:
		return sMem
	case o.Kind == isa.KindMem && o.Base < isa.NumRegs && o.Index < isa.NumRegs:
		return sIndexed
	}
	return sOther
}

// handlerShapes defines each handler: the operation and the operand shapes
// its body is written for. Every shape here is one the generic body
// accepts and executes to the same effect, so an instruction the generic
// body rejects, or indexes out of range on, does so there, at the same
// place.
var handlerShapes = [...]struct {
	op       isa.Op
	src, dst shape
}{
	hMovRR: {isa.MOV, sReg, sReg},
	hMovMR: {isa.MOV, sMem, sReg},
	hMovRM: {isa.MOV, sReg, sMem},
	hLeaMR: {isa.LEA, sMem, sReg},
	hLeaXR: {isa.LEA, sIndexed, sReg},
	hAddRR: {isa.ADD, sReg, sReg},
	hAddIR: {isa.ADD, sImm, sReg},
	hSubRR: {isa.SUB, sReg, sReg},
	hXorRR: {isa.XOR, sReg, sReg},
	hXorMR: {isa.XOR, sMem, sReg},
	hCmpMR: {isa.CMP, sMem, sReg},
	hAndIR: {isa.AND, sImm, sReg},
	hShlIR: {isa.SHL, sImm, sReg},
	hShrIR: {isa.SHR, sImm, sReg},
	hDecR:  {isa.DEC, sAny, sReg},
	hPushR: {isa.PUSH, sReg, sAny},
	hPopR:  {isa.POP, sAny, sReg},
	hJcc:   {isa.JCC, sAny, sAny},
}

// lop is a lowered operand. reg and val each serve the one kind that reads
// them, as isa.Operand's Reg/Base and Imm/Disp do; a symbol was folded into
// val at link time.
type lop struct {
	kind  isa.OperandKind
	reg   isa.Reg // KindReg: the register. KindMem: the base, or RegNone
	index isa.Reg // KindMem: the index, or RegNone
	scale uint8   // KindMem: the effective scale, 0 already read as 1
	val   int32   // KindImm: the immediate. KindMem: the displacement
}

// linst is a lowered instruction: 28 bytes against isa.Inst's 120. Both
// instances of a derived driver stay lowered for as long as they are
// loaded (some 9 600 records for the e1000), so the record holds nothing
// that is one shift away from something it already holds — the generic
// body derives mask and sign bit from the size.
type linst struct {
	h        handler
	op       isa.Op
	cond     isa.Cond
	rep      isa.Rep
	indirect bool
	size     uint8  // operand size in bytes, 0 already read as 4
	target   uint32 // resolved direct branch target, 0 if none
	src, dst lop
}

// program is the lowered form of one image. It lives exactly as long as the
// image is loaded: AddImage builds it, RemoveImage drops it.
type program struct {
	im   *asm.Image
	base uint32  // im.CodeBase
	code []linst // one per instruction slot
}

// noProgram is what CPU.cur points at when no program is current: it
// contains no address, so the first fetch resolves one.
var noProgram = &program{}

func lowerOperand(o *isa.Operand) lop {
	switch o.Kind {
	case isa.KindReg:
		return lop{kind: o.Kind, reg: o.Reg}
	case isa.KindImm:
		return lop{kind: o.Kind, val: o.Imm}
	case isa.KindMem:
		return lop{kind: o.Kind, reg: o.Base, index: o.Index, scale: o.EffScale(), val: o.Disp}
	}
	return lop{kind: o.Kind}
}

func lower(im *asm.Image) *program {
	p := &program{im: im, base: im.CodeBase, code: make([]linst, im.NumInsts())}
	for i := range p.code {
		in, target, _ := im.At(im.CodeBase + uint32(i)*asm.InstSlot)
		p.code[i] = linst{
			h: shapeOf(in), op: in.Op, cond: in.Cond, rep: in.Rep, indirect: in.Indirect,
			size: uint8(in.EffSize()), target: target,
			src: lowerOperand(&in.Src), dst: lowerOperand(&in.Dst),
		}
	}
	return p
}

// shapeOf picks the handler for an instruction. Anything but an exact match
// of a handler's definition is hGeneric — including an operation lower has
// never heard of, which the generic body faults as an invalid opcode.
func shapeOf(in *isa.Inst) handler {
	if in.EffSize() != 4 && in.Op != isa.JCC { // a jump has no operand size
		return hGeneric
	}
	src, dst := shapeOfOperand(&in.Src), shapeOfOperand(&in.Dst)
	for h := hGeneric + 1; int(h) < len(handlerShapes); h++ {
		d := &handlerShapes[h]
		if d.op == in.Op && (d.src == sAny || d.src == src) && (d.dst == sAny || d.dst == dst) {
			return h
		}
	}
	return hGeneric
}
