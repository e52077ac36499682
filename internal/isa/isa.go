// Package isa defines the instruction set of the simulated 32-bit machine.
//
// The ISA is deliberately x86-flavoured: eight general-purpose registers
// (with the conventional x86 roles for ESP/EBP/ESI/EDI/ECX), AT&T operand
// order, base+index*scale+displacement addressing, condition flags, string
// instructions with REP prefixes, and indirect calls. TwinDrivers' binary
// rewriting confronts exactly the problems this shape creates — effective
// address computation, scratch register pressure, page-straddling string
// operands, and function-pointer translation — so the simulated ISA keeps
// all of them.
//
// Instructions are represented structurally (no byte encoding); the loader
// assigns every instruction a fixed-size slot in the address space so that
// code addresses, return addresses and function pointers remain meaningful
// 32-bit values.
package isa

import (
	"fmt"
	"strings"
)

// Reg names a general-purpose register. The numbering follows x86 so that
// calling conventions and string-instruction register roles read naturally.
type Reg uint8

// General purpose registers.
const (
	EAX Reg = iota
	ECX
	EDX
	EBX
	ESP
	EBP
	ESI
	EDI
	NumRegs // number of general-purpose registers

	// RegNone marks an absent base or index register in a memory operand.
	RegNone Reg = 0xFF
)

var regNames = [NumRegs]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"}

// String returns the AT&T spelling of the register, without the % sigil.
func (r Reg) String() string {
	if r < NumRegs {
		return regNames[r]
	}
	if r == RegNone {
		return "<none>"
	}
	return fmt.Sprintf("reg(%d)", uint8(r))
}

// RegByName resolves an AT&T register name (without the % sigil) to a Reg.
func RegByName(name string) (Reg, bool) {
	for i, n := range regNames {
		if n == name {
			return Reg(i), true
		}
	}
	return RegNone, false
}

// Op identifies an operation.
type Op uint8

// Operations. Grouped by behaviour; the groups matter to the rewriter
// (memory-referencing data ops are rewritten, string ops get chunk loops,
// indirect calls get code-address translation, privileged ops are rejected).
const (
	INVALID Op = iota

	// Data movement.
	MOV   // mov src, dst
	MOVZX // movz{b,w}l src, dst : zero-extending load/move
	MOVSX // movs{b,w}l src, dst : sign-extending load/move
	LEA   // lea mem, reg : effective address
	PUSH  // push src
	POP   // pop dst
	XCHG  // xchg src, dst

	// Arithmetic / logic. Binary ops follow AT&T "op src, dst" with
	// dst = dst OP src, setting flags.
	ADD
	SUB
	ADC // add with carry
	SBB // subtract with borrow
	AND
	OR
	XOR
	CMP  // flags from dst - src, no write
	TEST // flags from dst & src, no write
	SHL
	SHR
	SAR
	INC
	DEC
	NEG
	NOT
	IMUL // imul src, dst : dst = dst * src (two-operand form)
	MUL  // mul src : edx:eax = eax * src (unsigned)
	DIV  // div src : eax = edx:eax / src ; edx = remainder (unsigned)

	// Control flow.
	JMP  // direct (label) or indirect (*reg / *mem)
	JCC  // conditional jump; condition in Inst.Cond
	CALL // direct (label) or indirect (*reg / *mem)
	RET
	SETCC // setcc dst : dst byte = condition

	// String operations. Sizes via Inst.Size; REP prefixes via Inst.Rep.
	MOVS // [esi] -> [edi], advance both
	STOS // al/ax/eax -> [edi], advance edi
	LODS // [esi] -> al/ax/eax, advance esi
	CMPS // flags from [esi]-[edi], advance both
	SCAS // flags from al/ax/eax - [edi], advance edi

	// Flag manipulation.
	PUSHF
	POPF
	CLC
	STC
	CLD // clear direction flag (strings ascend); we model DF=0 only
	STD // set direction flag; accepted by the assembler, faulted at run time

	// Misc.
	NOP
	HLT // privileged
	CLI // privileged: clear interrupt flag
	STI // privileged: set interrupt flag
	IN  // privileged port input
	OUT // privileged port output
	INT // software interrupt (hypercall gate in the simulated machine)
	UD2 // undefined instruction: always faults

	NumOps
)

var opNames = [NumOps]string{
	INVALID: "<invalid>",
	MOV:     "mov", MOVZX: "movz", MOVSX: "movs*", LEA: "lea",
	PUSH: "push", POP: "pop", XCHG: "xchg",
	ADD: "add", SUB: "sub", ADC: "adc", SBB: "sbb",
	AND: "and", OR: "or", XOR: "xor", CMP: "cmp", TEST: "test",
	SHL: "shl", SHR: "shr", SAR: "sar",
	INC: "inc", DEC: "dec", NEG: "neg", NOT: "not",
	IMUL: "imul", MUL: "mul", DIV: "div",
	JMP: "jmp", JCC: "j", CALL: "call", RET: "ret", SETCC: "set",
	MOVS: "movs", STOS: "stos", LODS: "lods", CMPS: "cmps", SCAS: "scas",
	PUSHF: "pushf", POPF: "popf", CLC: "clc", STC: "stc", CLD: "cld", STD: "std",
	NOP: "nop", HLT: "hlt", CLI: "cli", STI: "sti",
	IN: "in", OUT: "out", INT: "int", UD2: "ud2",
}

// String returns the base mnemonic (without size suffix or condition).
func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Privileged reports whether the instruction may only execute in a
// privileged context. The TwinDrivers rewriter statically rejects these in
// drivers destined for the hypervisor (§4.5.2 of the paper).
func (o Op) Privileged() bool {
	switch o {
	case HLT, CLI, STI, IN, OUT:
		return true
	}
	return false
}

// Cond is a jump/set condition.
type Cond uint8

// Conditions, in x86 naming.
const (
	CondNone Cond = iota
	E             // equal / zero
	NE            // not equal / not zero
	B             // below (unsigned <)
	AE            // above or equal (unsigned >=)
	BE            // below or equal (unsigned <=)
	A             // above (unsigned >)
	L             // less (signed <)
	GE            // greater or equal (signed >=)
	LE            // less or equal (signed <=)
	G             // greater (signed >)
	S             // sign
	NS            // not sign
	NumConds
)

var condNames = [NumConds]string{
	CondNone: "", E: "e", NE: "ne", B: "b", AE: "ae", BE: "be", A: "a",
	L: "l", GE: "ge", LE: "le", G: "g", S: "s", NS: "ns",
}

// String returns the condition suffix ("e", "ne", ...).
func (c Cond) String() string {
	if c < NumConds {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// CondByName resolves a condition suffix. Synonyms (z/nz, c/nc, nb, nae...)
// map to the canonical condition.
func CondByName(s string) (Cond, bool) {
	switch s {
	case "e", "z":
		return E, true
	case "ne", "nz":
		return NE, true
	case "b", "c", "nae":
		return B, true
	case "ae", "nc", "nb":
		return AE, true
	case "be", "na":
		return BE, true
	case "a", "nbe":
		return A, true
	case "l", "nge":
		return L, true
	case "ge", "nl":
		return GE, true
	case "le", "ng":
		return LE, true
	case "g", "nle":
		return G, true
	case "s":
		return S, true
	case "ns":
		return NS, true
	}
	return CondNone, false
}

// Negate returns the logical negation of the condition.
func (c Cond) Negate() Cond {
	switch c {
	case E:
		return NE
	case NE:
		return E
	case B:
		return AE
	case AE:
		return B
	case BE:
		return A
	case A:
		return BE
	case L:
		return GE
	case GE:
		return L
	case LE:
		return G
	case G:
		return LE
	case S:
		return NS
	case NS:
		return S
	}
	return CondNone
}

// Rep is a string-instruction repeat prefix.
type Rep uint8

// Repeat prefixes.
const (
	RepNone Rep = iota
	RepPlain
	RepE  // repe/repz: repeat while equal
	RepNE // repne/repnz: repeat while not equal
)

// String returns the prefix spelling ("rep", "repe", "repne" or "").
func (r Rep) String() string {
	switch r {
	case RepPlain:
		return "rep"
	case RepE:
		return "repe"
	case RepNE:
		return "repne"
	}
	return ""
}

// OperandKind discriminates Operand.
type OperandKind uint8

// Operand kinds.
const (
	KindNone OperandKind = iota
	KindReg
	KindImm
	KindMem
)

// Operand is an instruction operand. Memory operands carry the full x86
// addressing form disp(base,index,scale) plus an optional symbol whose
// link-time value is added to the displacement. Immediate operands may also
// be symbolic ($symbol), which yields the symbol's address.
type Operand struct {
	Kind  OperandKind
	Reg   Reg    // KindReg
	Imm   int32  // KindImm: value (symbol value added at link if Sym != "")
	Base  Reg    // KindMem: base register or RegNone
	Index Reg    // KindMem: index register or RegNone
	Scale uint8  // KindMem: 1, 2, 4, 8 (0 treated as 1)
	Disp  int32  // KindMem: displacement
	Sym   string // KindMem/KindImm: symbol added at link time
}

// RegOp returns a register operand.
func RegOp(r Reg) Operand { return Operand{Kind: KindReg, Reg: r} }

// ImmOp returns an immediate operand.
func ImmOp(v int32) Operand { return Operand{Kind: KindImm, Imm: v} }

// SymImmOp returns an immediate operand holding the address of sym plus off.
func SymImmOp(sym string, off int32) Operand {
	return Operand{Kind: KindImm, Imm: off, Sym: sym}
}

// MemOp returns a memory operand disp(base).
func MemOp(disp int32, base Reg) Operand {
	return Operand{Kind: KindMem, Base: base, Index: RegNone, Scale: 1, Disp: disp}
}

// MemOpIdx returns a memory operand disp(base,index,scale).
func MemOpIdx(disp int32, base, index Reg, scale uint8) Operand {
	return Operand{Kind: KindMem, Base: base, Index: index, Scale: scale, Disp: disp}
}

// SymMemOp returns a memory operand sym+disp(base).
func SymMemOp(sym string, disp int32, base Reg) Operand {
	return Operand{Kind: KindMem, Base: base, Index: RegNone, Scale: 1, Disp: disp, Sym: sym}
}

// IsMem reports whether the operand references memory.
func (o Operand) IsMem() bool { return o.Kind == KindMem }

// IsReg reports whether the operand is the given register.
func (o Operand) IsReg(r Reg) bool { return o.Kind == KindReg && o.Reg == r }

// UsesReg reports whether the operand reads the given register (as value,
// base or index).
func (o Operand) UsesReg(r Reg) bool {
	switch o.Kind {
	case KindReg:
		return o.Reg == r
	case KindMem:
		return o.Base == r || o.Index == r
	}
	return false
}

// StackRelative reports whether a memory operand addresses the stack frame:
// any ESP- or EBP-based access. TwinDrivers exempts these from SVM
// translation because the hypervisor instance runs on its own stack (§4.1);
// the rewriter relies on this predicate.
func (o Operand) StackRelative() bool {
	if o.Kind != KindMem {
		return false
	}
	return o.Base == ESP || o.Base == EBP
}

// format renders the operand in AT&T syntax; size is used only for
// register operands of byte/word instructions (we always print the 32-bit
// name since the machine has no architectural sub-registers).
func (o Operand) format() string {
	switch o.Kind {
	case KindReg:
		return "%" + o.Reg.String()
	case KindImm:
		if o.Sym != "" {
			if o.Imm != 0 {
				return fmt.Sprintf("$%s+%d", o.Sym, o.Imm)
			}
			return "$" + o.Sym
		}
		return fmt.Sprintf("$%d", o.Imm)
	case KindMem:
		var b strings.Builder
		if o.Sym != "" {
			b.WriteString(o.Sym)
			if o.Disp > 0 {
				fmt.Fprintf(&b, "+%d", o.Disp)
			} else if o.Disp < 0 {
				fmt.Fprintf(&b, "%d", o.Disp)
			}
		} else if o.Disp != 0 {
			fmt.Fprintf(&b, "%d", o.Disp)
		}
		if o.Base != RegNone || o.Index != RegNone {
			b.WriteByte('(')
			if o.Base != RegNone {
				b.WriteString("%" + o.Base.String())
			}
			if o.Index != RegNone {
				fmt.Fprintf(&b, ",%%%s,%d", o.Index.String(), o.EffScale())
			}
			b.WriteByte(')')
		}
		if b.Len() == 0 {
			b.WriteString("0")
		}
		return b.String()
	}
	return "<none>"
}

// EffScale returns the effective scale factor (0 normalised to 1). Pointer
// receiver, like EffSize: the interpreter calls both once per instruction
// and a value receiver copies the operand (the whole Inst, for EffSize).
func (o *Operand) EffScale() uint8 {
	if o.Scale == 0 {
		return 1
	}
	return o.Scale
}

// Inst is one instruction. AT&T operand order is preserved: Src then Dst.
// Direct jump/call targets are symbolic (Target); indirect targets use Src
// with Indirect set.
type Inst struct {
	Op       Op
	Cond     Cond  // JCC / SETCC
	Size     uint8 // operand size in bytes: 1, 2 or 4 (0 means 4)
	Src      Operand
	Dst      Operand
	Target   string // direct CALL/JMP/JCC label or function name
	Indirect bool   // CALL/JMP via Src operand value
	Rep      Rep    // string instruction prefix

	// Label is the (optional) label defined at this instruction.
	// Multiple labels collapse to the first; the assembler keeps an alias
	// table for the rest.
	Label string

	// Line is the source line for diagnostics (0 if synthesised).
	Line int
}

// EffSize returns the operand size, normalising 0 to 4.
func (i *Inst) EffSize() uint32 {
	if i.Size == 0 {
		return 4
	}
	return uint32(i.Size)
}

// sizeSuffix maps operand size to the AT&T suffix.
func sizeSuffix(size uint8) string {
	switch size {
	case 1:
		return "b"
	case 2:
		return "w"
	default:
		return "l"
	}
}

// String renders the instruction in the assembler's dialect. The output is
// re-parsable by package asm; the round-trip is property-tested.
func (i Inst) String() string {
	var b strings.Builder
	if i.Label != "" {
		b.WriteString(i.Label + ":\n")
	}
	b.WriteString("\t")
	switch i.Op {
	case JCC:
		fmt.Fprintf(&b, "j%s\t%s", i.Cond, i.Target)
	case SETCC:
		fmt.Fprintf(&b, "set%s\t%s", i.Cond, i.Dst.format())
	case JMP, CALL:
		if i.Indirect {
			fmt.Fprintf(&b, "%s\t*%s", i.Op, i.Src.format())
		} else {
			fmt.Fprintf(&b, "%s\t%s", i.Op, i.Target)
		}
	case RET, NOP, HLT, CLI, STI, PUSHF, POPF, CLC, STC, CLD, STD, UD2:
		b.WriteString(i.Op.String())
	case INT:
		fmt.Fprintf(&b, "int\t%s", i.Src.format())
	case MOVS, STOS, LODS, CMPS, SCAS:
		if i.Rep != RepNone {
			b.Reset()
			if i.Label != "" {
				b.WriteString(i.Label + ":\n")
			}
			fmt.Fprintf(&b, "\t%s; %s%s", i.Rep, i.Op, sizeSuffix(i.Size))
		} else {
			fmt.Fprintf(&b, "%s%s", i.Op, sizeSuffix(i.Size))
		}
	case MOVZX, MOVSX:
		mn := "movz"
		if i.Op == MOVSX {
			mn = "movs"
		}
		fmt.Fprintf(&b, "%s%sl\t%s, %s", mn, sizeSuffix(i.Size), i.Src.format(), i.Dst.format())
	case PUSH:
		fmt.Fprintf(&b, "pushl\t%s", i.Src.format())
	case POP:
		fmt.Fprintf(&b, "popl\t%s", i.Dst.format())
	case INC, DEC, NEG, NOT, MUL, DIV:
		fmt.Fprintf(&b, "%s%s\t%s", i.Op, sizeSuffix(i.Size), i.Dst.format())
	default:
		fmt.Fprintf(&b, "%s%s\t%s, %s", i.Op, sizeSuffix(i.Size), i.Src.format(), i.Dst.format())
	}
	return b.String()
}

// MemOperand returns a pointer to the instruction's memory operand and
// whether one exists. Instructions in this ISA have at most one memory
// operand (as on x86). Implicit string-instruction memory accesses are not
// reported here; use IsString.
func (i *Inst) MemOperand() (*Operand, bool) {
	if i.Src.Kind == KindMem {
		return &i.Src, true
	}
	if i.Dst.Kind == KindMem {
		return &i.Dst, true
	}
	return nil, false
}

// IsString reports whether the op is a string instruction (implicit
// ESI/EDI memory operands).
func (i Inst) IsString() bool {
	switch i.Op {
	case MOVS, STOS, LODS, CMPS, SCAS:
		return true
	}
	return false
}

// ReadsMem reports whether execution reads from the explicit memory operand.
func (i Inst) ReadsMem() bool {
	if _, ok := i.MemOperand(); !ok {
		return false
	}
	if i.Op == LEA {
		return false
	}
	if i.Src.Kind == KindMem {
		return true
	}
	// Dst is memory: read-modify-write ops read it; plain stores do not.
	switch i.Op {
	case MOV, SETCC, POP:
		return false
	}
	return true
}

// WritesMem reports whether execution writes the explicit memory operand.
func (i Inst) WritesMem() bool {
	if i.Dst.Kind != KindMem {
		return false
	}
	switch i.Op {
	case CMP, TEST, LEA:
		return false
	}
	return true
}

// WritesFlags reports whether the instruction sets the condition flags.
func (i Inst) WritesFlags() bool {
	switch i.Op {
	case ADD, SUB, ADC, SBB, AND, OR, XOR, CMP, TEST, SHL, SHR, SAR,
		INC, DEC, NEG, IMUL, MUL, DIV, CMPS, SCAS, POPF, CLC, STC:
		return true
	}
	return false
}

// ReadsFlags reports whether the instruction's behaviour depends on the
// current flags.
func (i Inst) ReadsFlags() bool {
	switch i.Op {
	case JCC, SETCC, ADC, SBB, PUSHF:
		return true
	case CMPS, SCAS:
		return i.Rep == RepE || i.Rep == RepNE
	}
	return false
}
