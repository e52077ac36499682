package cpu

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"twindrivers/internal/asm"
	"twindrivers/internal/isa"
	"twindrivers/internal/mem"
)

// ---------------------------------------------------------------------------
// (i) The enumerated table: every operation × operand shape × size × REP
// form as a one-instruction program, each run from every adversarial state.

// Operand shapes. Base is EBX and index EBP throughout, so a state aims
// every memory shape at once by setting those two. The last three carry a
// register number no machine has: the reference indexes out of range on
// them, and so must the engine (in its generic body — a shape handler must
// never see one).
var tableShapes = []isa.Operand{
	{}, // no operand
	isa.RegOp(isa.EAX), isa.RegOp(isa.ECX), isa.RegOp(isa.ESP),
	isa.ImmOp(0), isa.ImmOp(31), isa.ImmOp(-5),
	isa.MemOp(8, isa.EBX),
	isa.MemOp(4, isa.ESP),
	isa.MemOpIdx(8, isa.EBX, isa.EBP, 4),
	isa.MemOpIdx(8, isa.EBX, isa.EBP, 0), // scale 0 reads as 1
	isa.MemOpIdx(8, isa.RegNone, isa.EBP, 2),
	isa.MemOp(lsData+0x3000, isa.RegNone), // absolute
	isa.RegOp(9),
	isa.MemOp(8, 12),
	isa.MemOpIdx(8, isa.EBX, 12, 1),
}

// coreShapes index tableShapes: the operands the condition sweep uses.
var coreShapes = []int{0, 1, 7}

const (
	tableMid  = ".Lmid" // a label inside the table function: a legal jump target, an illegal call target
	tableLeaf = "g"     // a second function: a legal target for both
)

// tableUnit builds the one image the table runs in: function "t" holds
// every enumerated instruction, one per slot; "g" is a small leaf.
func tableUnit() *asm.Unit {
	var insts []isa.Inst
	add := func(in isa.Inst) { insts = append(insts, in) }

	// The full cross of the operands a machine can have, in the three real
	// sizes; size 0 (reads as 4) and the out-of-range registers against the
	// core operands only.
	good := tableShapes[:len(tableShapes)-3]
	bad := tableShapes[len(tableShapes)-3:]
	for op := isa.Op(0); op <= isa.NumOps+1; op++ { // two past the end: operations nobody defined
		reps := []isa.Rep{isa.RepNone}
		if (isa.Inst{Op: op}).IsString() {
			reps = []isa.Rep{isa.RepNone, isa.RepPlain, isa.RepE, isa.RepNE}
		}
		target := ""
		if op == isa.JMP || op == isa.JCC || op == isa.CALL {
			target = tableMid
		}
		form := func(size uint8, src, dst isa.Operand) {
			for _, rep := range reps {
				add(isa.Inst{Op: op, Cond: isa.NE, Size: size, Src: src, Dst: dst, Rep: rep, Target: target})
			}
		}
		for _, size := range []uint8{1, 2, 4} {
			for _, src := range good {
				for _, dst := range good {
					form(size, src, dst)
				}
			}
		}
		for _, c := range coreShapes {
			for _, c2 := range coreShapes {
				form(0, tableShapes[c], tableShapes[c2])
			}
			for _, b := range bad {
				form(4, tableShapes[c], b)
				form(4, b, tableShapes[c])
			}
		}
	}
	// Every condition, and one past the last, on both instructions that
	// read one.
	for cond := isa.Cond(0); cond <= isa.NumConds; cond++ {
		for _, s := range coreShapes {
			for _, d := range coreShapes {
				add(isa.Inst{Op: isa.JCC, Cond: cond, Src: tableShapes[s], Dst: tableShapes[d], Target: tableMid})
				add(isa.Inst{Op: isa.SETCC, Cond: cond, Size: 1, Src: tableShapes[s], Dst: tableShapes[d]})
			}
		}
	}
	// Direct transfers to every kind of target, indirect ones through
	// every operand shape.
	for _, op := range []isa.Op{isa.JMP, isa.CALL} {
		for _, target := range []string{"", tableLeaf, "ext_ok", symProtect, symFail, symNest} {
			add(isa.Inst{Op: op, Target: target})
		}
		for _, src := range tableShapes {
			add(isa.Inst{Op: op, Indirect: true, Src: src})
		}
	}
	// The hypercall gate, by vector.
	for _, vec := range []int32{0x82, 0x99} {
		add(isa.Inst{Op: isa.INT, Src: isa.ImmOp(vec)})
	}

	u := asm.NewUnit()
	u.Funcs = []*asm.Func{
		{Name: "t", Insts: insts, Labels: map[string]int{"t": 0, tableMid: len(insts) / 2}},
		{Name: tableLeaf, Labels: map[string]int{tableLeaf: 0}, Insts: []isa.Inst{
			{Op: isa.MOV, Size: 4, Src: isa.MemOp(4, isa.ESP), Dst: isa.RegOp(isa.EAX)},
			{Op: isa.ADD, Size: 4, Src: isa.RegOp(isa.EAX), Dst: isa.RegOp(isa.EAX)},
			{Op: isa.RET},
		}},
	}
	return u
}

// tableState is one adversarial starting state. Everything the CPU reads
// is set from it before every instruction; memory is poked, not reset — the
// two sides carry the same history.
type tableState struct {
	name                    string
	regs                    [isa.NumRegs]uint32
	flags                   bool        // all four set
	guard                   [2]uint32   // GuardLow, GuardHigh
	shadow                  []uint32    // non-nil: ShadowStack on, with these entries
	priv, noGate, exhausted bool        // AllowPrivileged; no Hypercall handler; budget already spent
	poke                    [][2]uint32 // (address, word) pairs stored before the step
}

func tableStates(m *machine) []tableState {
	const (
		guardLow  = lsStack + mem.PageSize
		guardHigh = lsStack + 3*mem.PageSize
		mid       = lsStack + 2*mem.PageSize
		abs       = lsData + 0x3000
	)
	leaf, _ := m.im.FuncEntry(tableLeaf)
	inFunc := leaf + asm.InstSlot // a code address that is not a function entry
	ext := func(sym string) uint32 {
		for i, s := range m.imports {
			if s == sym {
				return lsImport + uint32(i)*lsImportSlot
			}
		}
		panic("no import " + sym)
	}
	// regs builds a register file: value registers, then EBX (base), ESP,
	// EBP (index), and the string pointers. Where ECX holds a pointer — a
	// huge repeat count — the string pointers sit just short of the
	// unmapped page, so a REP form faults after a few elements.
	regs := func(eax, ecx, edx, ebx, esp, ebp, esi, edi uint32) [isa.NumRegs]uint32 {
		return [isa.NumRegs]uint32{isa.EAX: eax, isa.ECX: ecx, isa.EDX: edx, isa.EBX: ebx,
			isa.ESP: esp, isa.EBP: ebp, isa.ESI: esi, isa.EDI: edi}
	}
	const d = lsData
	plain := regs(0x12345678, 3, 0x9ABCDEF0, d+0x100, mid, 5, d+0x400, d+0x1000)
	with := func(r [isa.NumRegs]uint32, reg isa.Reg, v uint32) [isa.NumRegs]uint32 {
		r[reg] = v
		return r
	}
	lastPage := uint32(lsDataEnd - mem.PageSize)
	return []tableState{
		{name: "plain", regs: plain},
		{name: "flags set, extremes, count 0", flags: true,
			regs: regs(0x80000000, 0, 0xFFFFFFFF, d+0x2000, mid, 0xFFFFFFFF, d+0x2400, d+0x2800)},
		{name: "count 31", regs: regs(0xFFFFFFFF, 31, 0, d+0x100, mid, 1, d+0x400, d+0x1000)},
		{name: "divisor one, small dividend", regs: regs(1, 1, 0, d+0x100, mid, 0, d+0x400, d+0x1000),
			poke: [][2]uint32{{d + 0x108, 1}, {abs, 7}}},
		{name: "EA straddles two mapped pages", // 8(%ebx) is two bytes before the boundary
			regs: regs(0x11223344, 2, 5, d+mem.PageSize-10, mid, 0, d+mem.PageSize-1, d+2*mem.PageSize-3)},
		{name: "EA straddles into the unmapped page",
			regs: regs(0x55667788, 4, 5, lsDataEnd-10, mid, 0, lsDataEnd-1, lastPage+0x10)},
		{name: "EA ends with the last mapped byte",
			regs: regs(0x55667788, 1, 5, lsDataEnd-12, mid, 0, lsDataEnd-4, lsDataEnd-4)},
		{name: "EA unmapped", regs: regs(1, 1, 1, lsUnmapped, mid, 3, lsUnmapped, d+0x1000)},
		{name: "EA in the device window", regs: regs(7, 2, 9, lsDev+0x10, mid, 2, lsDev+0x20, lsDev+0x40)},
		{name: "ESP one push above the low guard", guard: [2]uint32{guardLow, guardHigh}, regs: with(plain, isa.ESP, guardLow+4)},
		{name: "ESP on the low guard", guard: [2]uint32{guardLow, guardHigh}, regs: with(plain, isa.ESP, guardLow)},
		{name: "ESP on the high guard", guard: [2]uint32{guardLow, guardHigh}, regs: with(plain, isa.ESP, guardHigh)},
		{name: "ESP one push past the high guard", guard: [2]uint32{guardLow, guardHigh}, regs: with(plain, isa.ESP, guardHigh+4)},
		{name: "ESP unmapped", regs: with(plain, isa.ESP, lsUnmapped)},
		{name: "ESP straddles a page", regs: with(plain, isa.ESP, mid+2)},
		{name: "ESP at the bottom of the stack", regs: with(plain, isa.ESP, lsStack)},
		{name: "budget already spent", regs: plain, exhausted: true},
		{name: "privileged, no gate", regs: plain, priv: true, noGate: true},
		{name: "function pointers, return to the sentinel, shadow agrees",
			regs:   regs(leaf, ext("ext_ok"), 0, d+0x100, mid, 0, lsDataEnd-40, lsDataEnd-24),
			shadow: []uint32{ReturnSentinel},
			poke:   [][2]uint32{{d + 0x108, leaf}, {abs, ext("ext_ok")}, {mid, ReturnSentinel}, {mid + 4, leaf}}},
		{name: "return into a function, shadow disagrees",
			regs:   regs(inFunc, leaf, 0, d+0x100, mid, 0, lsDataEnd-40, lsDataEnd-24),
			shadow: []uint32{leaf},
			poke:   [][2]uint32{{d + 0x108, inFunc}, {abs, inFunc}, {mid, inFunc}, {mid + 4, inFunc}}},
		{name: "return into a function, shadow empty",
			regs:   regs(ext(symNest), ext(symFail), 0, d+0x100, mid, 0, lsDataEnd-40, lsDataEnd-24),
			shadow: []uint32{},
			poke:   [][2]uint32{{d + 0x108, ext(symNest)}, {abs, ext(symFail)}, {mid, inFunc}, {mid + 4, 21}}},
		{name: "wild pointers, faulting externs",
			regs: regs(ext(symProtect), 0x12345678, 0, d+0x100, mid, 0, lsDataEnd-40, lsDataEnd-24),
			poke: [][2]uint32{{d + 0x108, ext(symProtect)}, {abs, 0x12345678}, {mid, 0x12345678}, {mid + 4, 0}}},
	}
}

// reach returns the frames, on both sides, of every page one instruction
// started from this state can write without calling native code: the
// pages under each memory shape's effective address, the stack slots
// around ESP and the string pointers, each with its successor for the
// access that straddles.
func (s *tableState) reach(p *pair) (frames [][2]*[mem.PageSize]byte) {
	r := &s.regs
	addrs := []uint32{
		8 + r[isa.EBX], 8 + r[isa.EBX] + 4*r[isa.EBP], 8 + r[isa.EBX] + r[isa.EBP], 8 + 2*r[isa.EBP],
		lsData + 0x3000, r[isa.ESP] - 4, r[isa.ESP] + 4, r[isa.ESI], r[isa.EDI],
	}
	seen := map[uint32]bool{}
	for _, a := range addrs {
		for _, vp := range []uint32{a / mem.PageSize, (a + 64) / mem.PageSize} {
			fa, ok := p.eng.as.Lookup(vp)
			fb, _ := p.ref.as.Lookup(vp)
			if ok && !seen[vp] {
				seen[vp] = true
				frames = append(frames, [2]*[mem.PageSize]byte{p.eng.as.Phys.FrameData(fa), p.ref.as.Phys.FrameData(fb)})
			}
		}
	}
	return frames
}

func (s *tableState) apply(m *machine, pc uint32) {
	c := m.c
	c.Regs = s.regs
	c.ZF, c.SF, c.CF, c.OF = s.flags, s.flags, s.flags, s.flags
	c.GuardLow, c.GuardHigh = s.guard[0], s.guard[1]
	c.ShadowStack = s.shadow != nil
	c.shadow = append(c.shadow[:0], s.shadow...)
	c.AllowPrivileged = s.priv
	c.Hypercall = hypercallStub
	if s.noGate {
		c.Hypercall = nil
	}
	for _, p := range s.poke {
		_ = m.as.Store(p[0], 4, p[1])
	}
	c.PC, c.depth, c.inst = pc, 1, 1
}

func TestLockStepTable(t *testing.T) {
	u := tableUnit()
	p := newPair(t, u)
	states := tableStates(p.eng)
	entry, _ := p.eng.im.FuncEntry("t")
	n := len(u.Func("t").Insts)

	// What the sweep reached: clean executions per handler, fault kinds
	// (and errors that are not faults) per kind of body, operations that
	// did anything other than fault as unknown.
	var clean [hJcc + 1]int
	var faults [2][FaultStackGuard + 1]int // [0] generic body, [1] shape handlers
	var rawErrors [2]int
	var panics int
	known := map[isa.Op]bool{}

	reach := make([][][2]*[mem.PageSize]byte, len(states))
	for si := range states {
		reach[si] = states[si].reach(p)
	}
	for i := 0; i < n; i++ {
		pc := entry + uint32(i)*asm.InstSlot
		in, _, _ := p.eng.im.At(pc)
		h := p.handlerAt(pc)
		// Native code (a stub, the gate) writes where it likes: compare all
		// of memory after an instruction that can reach it, and every so
		// often anyway; otherwise the pages the state lets it reach.
		native := in.Op == isa.CALL || in.Op == isa.JMP || in.Op == isa.INT || i%64 == 0
		for si := range states {
			st := &states[si]
			p.each(func(m *machine) { st.apply(m, pc) })
			errA, crashA := p.eng.step(0, st.exhausted)
			errB, crashB := p.ref.step(0, st.exhausted)
			d := p.cpuDiff()
			if d == "" {
				d = stopDiff(errA, crashA, errB, crashB)
			}
			if d == "" && native {
				d = p.memDiff()
			}
			for _, f := range reach[si] {
				if d == "" && *f[0] != *f[1] {
					d = "memory differs"
				}
			}
			if d != "" {
				t.Fatalf("%s from state %q: %s", p.describe(pc), st.name, d)
			}

			special := 0
			if h != hGeneric {
				special = 1
			}
			f, isFault := errA.(*Fault)
			switch {
			case crashA != "":
				panics++
				if h != hGeneric {
					t.Fatalf("%s from state %q: panicked in a shape handler: %s", p.describe(pc), st.name, crashA)
				}
			case errA == nil || !st.exhausted && p.eng.stepped(errA):
				clean[h]++
			case isFault:
				faults[special][f.Kind]++
			default:
				rawErrors[special]++
			}
			unknown := isFault && f.Kind == FaultInvalidOp && f.Msg == in.Op.String() && in.Op != isa.UD2
			if !unknown && !st.exhausted && crashA == "" {
				known[in.Op] = true
			}
		}
	}
	if d := p.memDiff(); d != "" {
		t.Fatalf("after the sweep: %s", d)
	}

	for h, k := range clean {
		if k == 0 {
			t.Errorf("handler %d never executed cleanly", h)
		}
	}
	for kind := FaultPage; kind <= FaultStackGuard; kind++ {
		if faults[0][kind] == 0 {
			t.Errorf("the generic body never raised %q", kind)
		}
	}
	// What a shape handler can raise itself: a page fault from a memory
	// source or a pop, the stack guard and the raw store error from a push,
	// the watchdog in front of any of them, a bad fetch behind a jump.
	for _, kind := range []FaultKind{FaultPage, FaultStackGuard, FaultWatchdog} {
		if faults[1][kind] == 0 {
			t.Errorf("no shape handler raised %q", kind)
		}
	}
	if rawErrors[0] == 0 || rawErrors[1] == 0 {
		t.Errorf("errors that are not faults: %d from the generic body, %d from shape handlers; want both", rawErrors[0], rawErrors[1])
	}
	if panics == 0 {
		t.Error("no register index out of range was reached")
	}
	// An operation the engine has no case for faults as an invalid opcode
	// named after itself (only UD2 does that on purpose). Every operation
	// the ISA defines must do something else at least once.
	for op := isa.INVALID + 1; op < isa.NumOps; op++ {
		if !known[op] {
			t.Errorf("operation %s (%d) is unknown to the engine", op, op)
		}
	}
	for _, op := range []isa.Op{isa.INVALID, isa.NumOps, isa.NumOps + 1} {
		if known[op] {
			t.Errorf("undefined operation %d did something", op)
		}
	}
	t.Logf("%d instructions × %d states; clean per handler %v; faults generic %v, shape %v; %d panics",
		n, len(states), clean, faults[0], faults[1], panics)
}

// ---------------------------------------------------------------------------
// (ii) Seeded random multi-instruction programs.

// genProgram builds a random program: a main function "f" of ALU, memory,
// stack, string and flag instructions in every size with forward and
// backward branches, direct and indirect calls (register, memory, extern,
// nested), an indirect tail jump and hypercalls; "g" and "h" are its
// callees. EBX, EBP, ESI and EDI are kept as pointers into the data window
// (nothing but string instructions writes them), so most programs run long;
// the ones that wander off fault, on both sides alike.
func genProgram(r *rand.Rand) *asm.Unit {
	val := []isa.Reg{isa.EAX, isa.ECX, isa.EDX}
	reg := func() isa.Operand { return isa.RegOp(val[r.Intn(len(val))]) }
	size := func() uint8 { return []uint8{4, 4, 4, 0, 2, 1}[r.Intn(6)] }
	memop := func() isa.Operand {
		switch r.Intn(8) {
		case 0:
			return isa.SymMemOp("buf", int32(r.Intn(60)), isa.RegNone)
		case 1:
			return isa.MemOp(int32(r.Intn(5)*4), isa.ESP)
		case 2:
			// Index: a value register, whatever it holds, scaled — masked
			// just before use by the caller when it wants it tame.
			return isa.MemOpIdx(int32(r.Intn(64)), isa.EBX, isa.EDX, []uint8{0, 1, 2, 4, 8}[r.Intn(5)])
		}
		base := []isa.Reg{isa.EBX, isa.EBP, isa.ESI, isa.EDI}[r.Intn(4)]
		return isa.MemOp(int32(r.Intn(96))-16, base)
	}
	srcAny := func() isa.Operand {
		switch r.Intn(3) {
		case 0:
			return isa.ImmOp(int32(r.Uint32() >> uint(r.Intn(32))))
		case 1:
			return memop()
		}
		return reg()
	}

	n := 12 + r.Intn(48)
	label := func(i int) string { return fmt.Sprintf(".L%d", i) }
	labels := map[string]int{"f": 0}
	for i := 0; i <= n; i++ {
		labels[label(i)] = i
	}
	var insts []isa.Inst
	depth := 0 // words this function has pushed, as far as straight-line code knows
	for len(insts) < n {
		i := len(insts)
		add := func(in ...isa.Inst) { insts = append(insts, in...) }
		switch k := r.Intn(100); {
		case k < 30:
			ops := []isa.Op{isa.MOV, isa.ADD, isa.SUB, isa.ADC, isa.SBB, isa.AND, isa.OR, isa.XOR, isa.CMP, isa.TEST, isa.XCHG, isa.IMUL}
			in := isa.Inst{Op: ops[r.Intn(len(ops))], Size: size(), Src: srcAny(), Dst: reg()}
			if in.Src.Kind != isa.KindMem && r.Intn(3) == 0 {
				in.Dst = memop()
			}
			if in.Op == isa.XCHG && in.Src.Kind == isa.KindImm {
				in.Src = reg()
			}
			if in.Src.Index == isa.EDX || in.Dst.Index == isa.EDX {
				add(isa.Inst{Op: isa.AND, Size: 4, Src: isa.ImmOp(0x1C), Dst: isa.RegOp(isa.EDX)})
			}
			add(in)
		case k < 36:
			in := isa.Inst{Op: []isa.Op{isa.MOVZX, isa.MOVSX}[r.Intn(2)], Size: uint8(1 + r.Intn(2)), Src: memop(), Dst: reg()}
			if r.Intn(3) == 0 {
				in.Src = reg()
			}
			add(in)
		case k < 41:
			add(isa.Inst{Op: isa.LEA, Size: 4, Src: memop(), Dst: reg()})
		case k < 48:
			in := isa.Inst{Op: []isa.Op{isa.INC, isa.DEC, isa.NEG, isa.NOT, isa.MUL, isa.DIV}[r.Intn(6)], Size: size(), Dst: reg()}
			if r.Intn(2) == 0 {
				in.Dst = memop()
			}
			add(in)
		case k < 55:
			in := isa.Inst{Op: []isa.Op{isa.SHL, isa.SHR, isa.SAR}[r.Intn(3)], Size: size(), Src: isa.ImmOp(int32(r.Intn(36))), Dst: reg()}
			if r.Intn(4) == 0 {
				in.Src = isa.RegOp(isa.ECX)
			}
			if r.Intn(4) == 0 {
				in.Dst = memop()
			}
			add(in)
		case k < 62:
			add(isa.Inst{Op: isa.PUSH, Size: 4, Src: srcAny()})
			depth++
		case k < 68:
			if depth == 0 && r.Intn(4) != 0 {
				continue
			}
			in := isa.Inst{Op: isa.POP, Size: 4, Dst: reg()}
			if r.Intn(4) == 0 {
				in.Dst = memop()
			}
			add(in)
			depth = max(depth-1, 0)
		case k < 71:
			add(isa.Inst{Op: isa.PUSHF}, isa.Inst{Op: []isa.Op{isa.CLC, isa.STC, isa.CLD, isa.NOP}[r.Intn(4)]}, isa.Inst{Op: isa.POPF})
		case k < 75:
			in := isa.Inst{Op: isa.SETCC, Cond: isa.Cond(1 + r.Intn(int(isa.NumConds)-1)), Size: 1, Dst: reg()}
			if r.Intn(2) == 0 {
				in.Dst = memop()
			}
			add(in)
		case k < 85:
			// Mostly forward, so most programs end; a backward branch makes
			// a loop the budget bounds.
			to := i + 1 + r.Intn(n-i)
			if r.Intn(5) == 0 {
				to = r.Intn(i + 1)
			}
			in := isa.Inst{Op: isa.JCC, Cond: isa.Cond(1 + r.Intn(int(isa.NumConds)-1)), Target: label(to)}
			if r.Intn(6) == 0 {
				in = isa.Inst{Op: isa.JMP, Target: label(to)}
			}
			add(in)
		case k < 92:
			callee := []string{"g", "h"}[r.Intn(2)]
			add(isa.Inst{Op: isa.PUSH, Size: 4, Src: srcAny()})
			switch r.Intn(6) {
			case 0:
				add(isa.Inst{Op: isa.MOV, Size: 4, Src: isa.SymImmOp(callee, 0), Dst: isa.RegOp(isa.EAX)},
					isa.Inst{Op: isa.CALL, Indirect: true, Src: isa.RegOp(isa.EAX)})
			case 1:
				add(isa.Inst{Op: isa.MOV, Size: 4, Src: isa.SymImmOp(callee, 0), Dst: isa.SymMemOp("fptr", 0, isa.RegNone)},
					isa.Inst{Op: isa.CALL, Indirect: true, Src: isa.SymMemOp("fptr", 0, isa.RegNone)})
			case 2:
				add(isa.Inst{Op: isa.CALL, Target: []string{"ext_a", "ext_b", symNest, symIdentity}[r.Intn(4)]})
			case 3:
				add(isa.Inst{Op: isa.MOV, Size: 4, Src: isa.SymImmOp("ext_a", 0), Dst: isa.RegOp(isa.ECX)},
					isa.Inst{Op: isa.CALL, Indirect: true, Src: isa.RegOp(isa.ECX)})
			default:
				add(isa.Inst{Op: isa.CALL, Target: callee})
			}
			add(isa.Inst{Op: isa.LEA, Size: 4, Src: isa.MemOp(4, isa.ESP), Dst: isa.RegOp(isa.ESP)})
		case k < 97:
			add(isa.Inst{Op: isa.MOV, Size: 4, Src: isa.ImmOp(int32(r.Intn(9))), Dst: isa.RegOp(isa.ECX)},
				isa.Inst{
					Op:   []isa.Op{isa.MOVS, isa.STOS, isa.LODS, isa.CMPS, isa.SCAS}[r.Intn(5)],
					Size: []uint8{1, 2, 4}[r.Intn(3)],
					Rep:  []isa.Rep{isa.RepNone, isa.RepPlain, isa.RepE, isa.RepNE}[r.Intn(4)],
				})
		case k < 99:
			add(isa.Inst{Op: isa.INT, Src: isa.ImmOp(int32(0x80 + r.Intn(4)))})
		default:
			// A tail jump through a register: the callee returns for us.
			if depth == 0 {
				add(isa.Inst{Op: isa.MOV, Size: 4, Src: isa.SymImmOp("g", 0), Dst: isa.RegOp(isa.EAX)},
					isa.Inst{Op: isa.JMP, Indirect: true, Src: isa.RegOp(isa.EAX)})
			}
		}
	}
	insts = insts[:n] // a group may have run past the last label
	if depth > 0 && r.Intn(4) != 0 {
		insts = append(insts, isa.Inst{Op: isa.LEA, Size: 4, Src: isa.MemOp(int32(4*depth), isa.ESP), Dst: isa.RegOp(isa.ESP)})
		labels[label(n)] = n // the clean-up is where a forward branch to the end lands
	}
	insts = append(insts, isa.Inst{Op: isa.RET})

	u := asm.NewUnit()
	u.Funcs = []*asm.Func{
		{Name: "f", Insts: insts, Labels: labels},
		{Name: "g", Labels: map[string]int{"g": 0}, Insts: []isa.Inst{
			{Op: isa.MOV, Size: 4, Src: isa.MemOp(4, isa.ESP), Dst: isa.RegOp(isa.EAX)},
			{Op: isa.XOR, Size: 4, Src: isa.MemOp(0, isa.EBX), Dst: isa.RegOp(isa.EAX)},
			{Op: isa.SHR, Size: 4, Src: isa.ImmOp(3), Dst: isa.RegOp(isa.EAX)},
			{Op: isa.RET},
		}},
		{Name: "h", Labels: map[string]int{"h": 0}, Insts: []isa.Inst{
			{Op: isa.PUSH, Size: 4, Src: isa.RegOp(isa.EBX)},
			{Op: isa.PUSH, Size: 4, Src: isa.MemOp(8, isa.ESP)},
			{Op: isa.CALL, Target: "g"},
			{Op: isa.LEA, Size: 4, Src: isa.MemOp(4, isa.ESP), Dst: isa.RegOp(isa.ESP)},
			{Op: isa.DEC, Size: 4, Dst: isa.RegOp(isa.EAX)},
			{Op: isa.POP, Size: 4, Dst: isa.RegOp(isa.EBX)},
			{Op: isa.RET},
		}},
	}
	u.Datas = []*asm.Data{
		{Name: "buf", Section: "data", Bytes: make([]byte, 64), Align: 4},
		{Name: "fptr", Section: "data", Bytes: make([]byte, 4), Align: 4},
	}
	return u
}

// seedPointers sets the pointer registers of a random program: somewhere in
// the data window, now and then a few bytes short of a page boundary.
func seedPointers(m *machine, r *rand.Rand) {
	for _, reg := range []isa.Reg{isa.EBX, isa.EBP, isa.ESI, isa.EDI} {
		a := lsData + uint32(r.Intn(3*mem.PageSize))&^3
		if r.Intn(4) == 0 {
			a = lsData + uint32(1+r.Intn(3))*mem.PageSize - uint32(r.Intn(24))
		}
		m.c.Regs[reg] = a
	}
	m.c.ShadowStack = r.Intn(2) == 0
}

func TestLockStepRandomPrograms(t *testing.T) {
	var programs, instructions int
	check := func(seed int64) bool {
		u := genProgram(rand.New(rand.NewSource(seed)))
		p := newPair(t, u)
		entry, _ := p.eng.im.FuncEntry("f")
		arg := uint32(seed)

		p.each(func(m *machine) { seedPointers(m, rand.New(rand.NewSource(seed))) })
		steps, d := p.lockStep(entry, 600, arg)
		if d == "" {
			p.each(func(m *machine) { m.reset(); seedPointers(m, rand.New(rand.NewSource(seed))) })
			d = p.wholeRun(entry, 2000, arg)
		}
		if d != "" {
			t.Logf("seed %d: %s\n%s", seed, d, u.Print())
			return false
		}
		programs++
		instructions += steps
		return true
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
	// The generator must not degenerate into programs that die at once.
	if programs > 0 && instructions/programs < 20 {
		t.Errorf("%d programs ran %d instructions in lock step: under 20 each", programs, instructions)
	}
	t.Logf("%d programs, %d instructions in lock step", programs, instructions)
}
