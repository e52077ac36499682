package cpu

import (
	"reflect"
	"strings"
	"testing"

	"twindrivers/internal/asm"
	"twindrivers/internal/cycles"
	"twindrivers/internal/isa"
	"twindrivers/internal/mem"
)

// testEnv builds a CPU with a flat address space: code at 0x100000, data at
// 0x200000, stack at 0x300000 (16 pages each, pre-mapped).
func testEnv(t *testing.T, src string) (*CPU, *asm.Image) {
	t.Helper()
	phys := mem.NewPhysical()
	as := mem.NewAddressSpace("test", phys, nil)
	for _, base := range []uint32{0x200000, 0x300000} {
		f := phys.AllocFrames(mem.OwnerDom0, 16)
		as.MapRange(base, f, 16)
	}
	u, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	im, err := asm.Layout("test", u, 0x100000, 0x200000, nil)
	if err != nil {
		t.Fatalf("layout: %v", err)
	}
	if err := as.WriteBytes(0x200000, im.DataInit()); err != nil {
		t.Fatalf("data init: %v", err)
	}
	c := New(as, cycles.NewMeter())
	c.AddImage(im)
	c.Regs[isa.ESP] = 0x300000 + 16*mem.PageSize
	return c, im
}

func run(t *testing.T, src, entry string, args ...uint32) (*CPU, uint32) {
	t.Helper()
	c, im := testEnv(t, src)
	e, ok := im.FuncEntry(entry)
	if !ok {
		t.Fatalf("no entry %q", entry)
	}
	v, err := c.Call(e, args...)
	if err != nil {
		t.Fatalf("run %s: %v", entry, err)
	}
	return c, v
}

func TestArithmeticAndReturn(t *testing.T) {
	_, v2 := run(t, `
add2:
	movl	4(%esp), %eax
	addl	8(%esp), %eax
	ret
`, "add2", 17, 25)
	if v2 != 42 {
		t.Errorf("add2(17,25) = %d", v2)
	}
}

func TestFrameAndLocals(t *testing.T) {
	_, v := run(t, `
f:
	pushl	%ebp
	movl	%esp, %ebp
	subl	$16, %esp
	movl	8(%ebp), %eax
	movl	%eax, -4(%ebp)
	movl	-4(%ebp), %ecx
	imull	$3, %ecx
	movl	%ecx, %eax
	movl	%ebp, %esp
	popl	%ebp
	ret
`, "f", 14)
	if v != 42 {
		t.Errorf("f(14) = %d, want 42", v)
	}
}

func TestLoopAndBranches(t *testing.T) {
	// sum of 1..n
	_, v := run(t, `
sum:
	movl	4(%esp), %ecx
	xorl	%eax, %eax
.Lloop:
	testl	%ecx, %ecx
	je	.Ldone
	addl	%ecx, %eax
	decl	%ecx
	jmp	.Lloop
.Ldone:
	ret
`, "sum", 10)
	if v != 55 {
		t.Errorf("sum(10) = %d, want 55", v)
	}
}

func TestMemoryAndData(t *testing.T) {
	c, v := run(t, `
f:
	movl	counter, %eax
	incl	%eax
	movl	%eax, counter
	movl	counter, %eax
	ret

	.data
counter:
	.long	41
`, "f")
	if v != 42 {
		t.Errorf("f() = %d, want 42", v)
	}
	got, _ := c.AS.Load(0x200000, 4)
	if got != 42 {
		t.Errorf("counter in memory = %d", got)
	}
}

func TestByteWordAccess(t *testing.T) {
	_, v := run(t, `
f:
	movl	$0xAABBCCDD, %eax
	movl	%eax, buf
	movzbl	buf+1, %eax         # 0xCC
	movzwl	buf+2, %ecx         # 0xAABB
	addl	%ecx, %eax
	ret

	.data
buf:
	.long	0
`, "f")
	if v != 0xCC+0xAABB {
		t.Errorf("got %#x", v)
	}
}

func TestSignExtension(t *testing.T) {
	_, v := run(t, `
f:
	movl	$0xFF, %eax
	movl	%eax, buf
	movsbl	buf, %eax
	ret
	.data
buf:
	.long	0
`, "f")
	if int32(v) != -1 {
		t.Errorf("movsbl 0xFF = %d, want -1", int32(v))
	}
}

func TestCallsAndCdecl(t *testing.T) {
	_, v := run(t, `
caller:
	pushl	$4
	pushl	$5
	call	mul
	addl	$8, %esp
	addl	$2, %eax
	ret

mul:
	movl	4(%esp), %eax
	imull	8(%esp), %eax
	ret
`, "caller")
	if v != 22 {
		t.Errorf("caller() = %d, want 22", v)
	}
}

func TestIndirectCall(t *testing.T) {
	_, v := run(t, `
f:
	movl	$target, %eax
	pushl	$21
	call	*%eax
	addl	$4, %esp
	ret

target:
	movl	4(%esp), %eax
	addl	%eax, %eax
	ret
`, "f")
	if v != 42 {
		t.Errorf("indirect call = %d, want 42", v)
	}
}

func TestIndirectCallViaMemory(t *testing.T) {
	_, v := run(t, `
f:
	movl	$g, %eax
	movl	%eax, fptr
	pushl	$7
	call	*fptr
	addl	$4, %esp
	ret
g:
	movl	4(%esp), %eax
	imull	$6, %eax
	ret
	.data
fptr:
	.long	0
`, "f")
	if v != 42 {
		t.Errorf("call *fptr = %d, want 42", v)
	}
}

func TestBadIndirectCallFaults(t *testing.T) {
	c, im := testEnv(t, `
f:
	movl	$12345, %eax
	call	*%eax
	ret
`)
	e, _ := im.FuncEntry("f")
	_, err := c.Call(e)
	if !IsFault(err, FaultBadCall) {
		t.Errorf("err = %v, want bad-call fault", err)
	}
}

func TestIndirectCallMidFunctionFaults(t *testing.T) {
	c, im := testEnv(t, `
f:
	movl	$g+8, %eax
	call	*%eax
	ret
g:
	nop
	ret
`)
	e, _ := im.FuncEntry("f")
	_, err := c.Call(e)
	if !IsFault(err, FaultBadCall) {
		t.Errorf("mid-function target: err = %v, want bad-call fault", err)
	}
}

func TestExternCall(t *testing.T) {
	phys := mem.NewPhysical()
	as := mem.NewAddressSpace("t", phys, nil)
	fr := phys.AllocFrames(mem.OwnerDom0, 16)
	as.MapRange(0x300000, fr, 16)
	u, err := asm.Assemble(`
f:
	pushl	$10
	call	external_twice
	addl	$4, %esp
	addl	$1, %eax
	ret
`)
	if err != nil {
		t.Fatal(err)
	}
	im, err := asm.Layout("t", u, 0x110000, 0x210000, func(sym string) (uint32, bool) {
		if sym == "external_twice" {
			return 0xE0000000, true
		}
		return 0, false
	})
	if err != nil {
		t.Fatal(err)
	}
	c := New(as, cycles.NewMeter())
	c.AddImage(im)
	c.Regs[isa.ESP] = 0x300000 + 16*mem.PageSize
	c.BindExtern(0xE0000000, "external_twice", func(c *CPU) (uint32, error) {
		return c.Arg(0) * 2, nil
	})
	e, _ := im.FuncEntry("f")
	v, err := c.Call(e)
	if err != nil {
		t.Fatal(err)
	}
	if v != 21 {
		t.Errorf("extern chain = %d, want 21", v)
	}
}

func TestExternCallback(t *testing.T) {
	// An extern that calls back into simulated code (upcall shape).
	src := `
f:
	pushl	$5
	call	native_helper
	addl	$4, %esp
	ret

double:
	movl	4(%esp), %eax
	addl	%eax, %eax
	ret
`
	phys := mem.NewPhysical()
	as := mem.NewAddressSpace("t", phys, nil)
	f := phys.AllocFrames(mem.OwnerDom0, 16)
	as.MapRange(0x300000, f, 16)
	u, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	im, err := asm.Layout("t", u, 0x100000, 0x200000, func(sym string) (uint32, bool) {
		if sym == "native_helper" {
			return 0xE0000000, true
		}
		return 0, false
	})
	if err != nil {
		t.Fatal(err)
	}
	c := New(as, cycles.NewMeter())
	c.AddImage(im)
	c.Regs[isa.ESP] = 0x300000 + 16*mem.PageSize
	dbl, _ := im.FuncEntry("double")
	c.BindExtern(0xE0000000, "native_helper", func(c *CPU) (uint32, error) {
		v, err := c.Call(dbl, c.Arg(0)+1)
		return v + 100, err
	})
	entry, _ := im.FuncEntry("f")
	v, err := c.Call(entry)
	if err != nil {
		t.Fatal(err)
	}
	if v != 112 { // double(6)+100
		t.Errorf("callback = %d, want 112", v)
	}
}

func TestStringMovs(t *testing.T) {
	c, _ := run(t, `
f:
	movl	$src, %esi
	movl	$dst, %edi
	movl	$3, %ecx
	rep; movsl
	movl	dst+8, %eax
	ret
	.data
src:
	.long	0x11111111
	.long	0x22222222
	.long	0x33333333
dst:
	.space	12
`, "f")
	_ = c
	if v := c.Regs[0]; v != 0x33333333 {
		t.Errorf("movs copied wrong data: eax=%#x", v)
	}
}

func TestStringStosAndCmps(t *testing.T) {
	_, v := run(t, `
f:
	movl	$dst, %edi
	movl	$0xAB, %eax
	movl	$8, %ecx
	rep; stosb
	movl	$dst, %esi
	movl	$dst+4, %edi
	movl	$4, %ecx
	repe; cmpsb
	sete	flag
	movzbl	flag, %eax
	ret
	.data
dst:
	.space	16
flag:
	.byte	0
`, "f")
	if v != 1 {
		t.Errorf("cmps equal regions = %d, want 1", v)
	}
}

func TestWatchdog(t *testing.T) {
	c, im := testEnv(t, `
f:
	jmp	f
`)
	c.Budget = 1000
	e, _ := im.FuncEntry("f")
	_, err := c.Call(e)
	if !IsFault(err, FaultWatchdog) {
		t.Errorf("err = %v, want watchdog fault", err)
	}
}

func TestPrivilegedFault(t *testing.T) {
	c, im := testEnv(t, `
f:
	cli
	ret
`)
	e, _ := im.FuncEntry("f")
	_, err := c.Call(e)
	if !IsFault(err, FaultPrivileged) {
		t.Errorf("err = %v, want privileged fault", err)
	}
	c.AllowPrivileged = true
	if _, err := c.Call(e); err != nil {
		t.Errorf("privileged context: %v", err)
	}
}

func TestPageFault(t *testing.T) {
	c, im := testEnv(t, `
f:
	movl	0x9000000, %eax
	ret
`)
	e, _ := im.FuncEntry("f")
	_, err := c.Call(e)
	if !IsFault(err, FaultPage) {
		t.Errorf("err = %v, want page fault", err)
	}
	if f, ok := err.(*Fault); ok && f.Addr != 0x9000000 {
		t.Errorf("fault addr = %#x", f.Addr)
	}
}

func TestDivide(t *testing.T) {
	_, v := run(t, `
f:
	movl	$100, %eax
	xorl	%edx, %edx
	movl	$7, %ecx
	divl	%ecx
	imull	$10, %eax
	addl	%edx, %eax
	ret
`, "f")
	if v != 142 { // 14*10 + 2
		t.Errorf("div result = %d, want 142", v)
	}
	c, im := testEnv(t, `
g:
	xorl	%ecx, %ecx
	divl	%ecx
	ret
`)
	e, _ := im.FuncEntry("g")
	_, err := c.Call(e)
	if !IsFault(err, FaultDivide) {
		t.Errorf("err = %v, want divide fault", err)
	}
}

func TestFlagsAcrossPushfPopf(t *testing.T) {
	_, v := run(t, `
f:
	movl	$1, %eax
	cmpl	$2, %eax       # sets CF (1 < 2), clears ZF
	pushf
	movl	$5, %ecx
	addl	%ecx, %ecx     # clobbers flags
	popf
	jb	.Lwas_below
	movl	$0, %eax
	ret
.Lwas_below:
	movl	$42, %eax
	ret
`, "f")
	if v != 42 {
		t.Errorf("flags not preserved: %d", v)
	}
}

func TestShadowStackDetectsCorruption(t *testing.T) {
	c, im := testEnv(t, `
f:
	call	evil
	ret
evil:
	movl	$g, %eax
	movl	%eax, (%esp)   # overwrite return address
	ret
g:
	nop
	ret
`)
	c.ShadowStack = true
	e, _ := im.FuncEntry("f")
	_, err := c.Call(e)
	if !IsFault(err, FaultShadowStack) {
		t.Errorf("err = %v, want shadow-stack fault", err)
	}
}

func TestStackGuard(t *testing.T) {
	c, im := testEnv(t, `
f:
	pushl	%eax
	jmp	f
`)
	c.GuardLow = 0x300000 + 8*mem.PageSize
	c.GuardHigh = 0x300000 + 16*mem.PageSize
	e, _ := im.FuncEntry("f")
	_, err := c.Call(e)
	if !IsFault(err, FaultStackGuard) {
		t.Errorf("err = %v, want stack guard fault", err)
	}
}

func TestHypercallGate(t *testing.T) {
	c, im := testEnv(t, `
f:
	movl	$7, %ebx
	int	$0x82
	ret
`)
	var gotVec, gotEBX uint32
	c.Hypercall = func(c *CPU, vec uint32) error {
		gotVec, gotEBX = vec, c.Regs[isa.EBX]
		c.Regs[isa.EAX] = 99
		return nil
	}
	e, _ := im.FuncEntry("f")
	v, err := c.Call(e)
	if err != nil {
		t.Fatal(err)
	}
	if gotVec != 0x82 || gotEBX != 7 || v != 99 {
		t.Errorf("hypercall: vec=%#x ebx=%d ret=%d", gotVec, gotEBX, v)
	}
}

func TestCycleAttribution(t *testing.T) {
	c, im := testEnv(t, `
f:
	movl	counter, %eax
	addl	$1, %eax
	ret
	.data
counter:
	.long	0
`)
	c.Meter.SetComponent(cycles.CompDriver)
	e, _ := im.FuncEntry("f")
	if _, err := c.Call(e); err != nil {
		t.Fatal(err)
	}
	if c.Meter.Get(cycles.CompDriver) == 0 {
		t.Error("no cycles attributed to driver")
	}
	if c.Meter.Get(cycles.CompDom0) != 0 {
		t.Error("cycles leaked into dom0 bucket")
	}
}

func TestColdCachesCostMore(t *testing.T) {
	src := `
f:
	movl	$data, %esi
	movl	$16, %ecx
	xorl	%eax, %eax
.Ll:
	addl	(%esi), %eax
	addl	$4, %esi
	decl	%ecx
	jne	.Ll
	ret
	.data
data:
	.space	64
`
	c, im := testEnv(t, src)
	e, _ := im.FuncEntry("f")
	if _, err := c.Call(e); err != nil {
		t.Fatal(err)
	}
	cold := c.Meter.Total()
	c.Meter.Reset()
	if _, err := c.Call(e); err != nil {
		t.Fatal(err)
	}
	warm := c.Meter.Total()
	if warm >= cold {
		t.Errorf("warm run (%d) not cheaper than cold run (%d)", warm, cold)
	}
	// A flush (domain switch) makes it cold again.
	c.Meter.FlushHW()
	c.Meter.Reset()
	if _, err := c.Call(e); err != nil {
		t.Fatal(err)
	}
	reCold := c.Meter.Total()
	if reCold <= warm {
		t.Errorf("post-flush run (%d) not dearer than warm run (%d)", reCold, warm)
	}
}

func TestUndefinedMnemonicMessage(t *testing.T) {
	_, err := asm.Assemble("f:\n\tbogus %eax\n")
	if err == nil || !strings.Contains(err.Error(), "unknown mnemonic") {
		t.Errorf("err = %v", err)
	}
}

// A zero-kind fault used to print an empty name ("cpu:  at pc=...").
func TestFaultMessageNamesEveryKind(t *testing.T) {
	if got := (&Fault{PC: 0x10}).Error(); got != "cpu: no fault at pc=0x00000010" {
		t.Errorf("zero-kind fault prints %q", got)
	}
	for k := FaultNone; k <= FaultStackGuard; k++ {
		if msg := (&Fault{Kind: k}).Error(); !strings.HasPrefix(msg, "cpu: "+k.String()+" at pc=") || k.String() == "" {
			t.Errorf("kind %d prints %q", k, msg)
		}
	}
	if FaultKind(200).String() != "no fault" {
		t.Errorf("unknown kind prints %q", FaultKind(200))
	}
}

// The interpreter remembers the image of the previous fetch; that memory
// must follow the PC into another image and must not outlive RemoveImage.
func TestFetchFollowsImageChanges(t *testing.T) {
	c, im := testEnv(t, `
f:
	movl	$1, %eax
	ret
`)
	u, err := asm.Assemble(`
g:
	movl	$2, %eax
	ret
`)
	if err != nil {
		t.Fatal(err)
	}
	im2, err := asm.Layout("second", u, 0x180000, 0x210000, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.AddImage(im2)
	f, _ := im.FuncEntry("f")
	g, _ := im2.FuncEntry("g")
	for _, step := range []struct{ entry, want uint32 }{{f, 1}, {g, 2}, {f, 1}} {
		if v, err := c.Call(step.entry); err != nil || v != step.want {
			t.Fatalf("call %#x = %d, %v; want %d", step.entry, v, err, step.want)
		}
	}
	c.RemoveImage(im)
	if _, err := c.Call(f); !IsFault(err, FaultBadFetch) {
		t.Errorf("fetch from a removed image: err = %v, want bad fetch", err)
	}
	if v, err := c.Call(g); err != nil || v != 2 {
		t.Errorf("surviving image: %d, %v", v, err)
	}

	// The same two changes made from inside an extern, while the calling
	// image is the one running: a nested Call into the other image must
	// hand the caller back its own code, and removing the caller must make
	// its very next fetch a bad one — never an instruction of a program
	// that is no longer loaded.
	u3, err := asm.Assemble(`
h:
	call	hook
	addl	$40, %eax
	ret
`)
	if err != nil {
		t.Fatal(err)
	}
	const hookAddr = 0xE0000000
	im3, err := asm.Layout("third", u3, 0x1C0000, 0x220000, func(sym string) (uint32, bool) {
		return hookAddr, sym == "hook"
	})
	if err != nil {
		t.Fatal(err)
	}
	c.AddImage(im3)
	h, _ := im3.FuncEntry("h")
	remove := false
	c.BindExtern(hookAddr, "hook", func(c *CPU) (uint32, error) {
		v, err := c.Call(g) // runs in im2
		if remove {
			c.RemoveImage(im3)
		}
		return v, err
	})
	if v, err := c.Call(h); err != nil || v != 42 {
		t.Errorf("caller resumed after a nested call into another image: %d, %v; want 42", v, err)
	}
	remove = true
	_, err = c.Call(h)
	if fault, ok := err.(*Fault); !ok || fault.Kind != FaultBadFetch || fault.PC != h+asm.InstSlot {
		t.Errorf("caller removed by its own extern: err = %v, want a bad fetch at %#x", err, h+asm.InstSlot)
	}
	if len(c.Images()) != 1 || len(c.progs) != 1 || c.progs[0].im != im2 {
		t.Errorf("after the removals: %d images, %d lowered programs", len(c.Images()), len(c.progs))
	}
	if v, err := c.Call(g); err != nil || v != 2 {
		t.Errorf("surviving image after its caller was removed: %d, %v", v, err)
	}
}

// The watchdog budget is per outer Call: a Call that ended in a fault must
// leave the nesting depth at zero so the next one starts a fresh count.
func TestBudgetRestartsAfterFault(t *testing.T) {
	c, im := testEnv(t, `
spin:
	jmp	spin
ok:
	movl	$7, %eax
	ret
`)
	c.Budget = 100
	spin, _ := im.FuncEntry("spin")
	ok, _ := im.FuncEntry("ok")
	if _, err := c.Call(spin); !IsFault(err, FaultWatchdog) {
		t.Fatalf("err = %v, want watchdog fault", err)
	}
	if v, err := c.Call(ok); err != nil || v != 7 {
		t.Errorf("call after a faulted call = %d, %v", v, err)
	}
}

// Both instances of a derived driver stay lowered while loaded, so the
// record's size is heap: the e1000 pair is some 9 600 records, and a
// 52-byte record was measured at +4–5 % peak heap on the benchmark's
// smallest workloads. Growing it is a decision, not a side effect.
func TestLoweredRecordSize(t *testing.T) {
	if n := reflect.TypeOf(linst{}).Size(); n > 28 {
		t.Errorf("a lowered instruction is %d bytes, want at most 28", n)
	}
}
