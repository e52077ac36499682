package kernel

import (
	"bytes"
	"testing"

	"twindrivers/internal/cpu"
	"twindrivers/internal/cycles"
	"twindrivers/internal/isa"
	"twindrivers/internal/mem"
	"twindrivers/internal/xen"
)

func newKernel(t *testing.T) (*xen.Hypervisor, *Kernel) {
	t.Helper()
	hv := xen.New()
	dom0 := hv.CreateDomain(mem.OwnerDom0, "dom0")
	k := New(hv, dom0)
	// A stack so gates are callable.
	top, _, _ := hv.AllocStack(4)
	hv.CPU.Regs[isa.ESP] = top
	return hv, k
}

// callSym invokes a support routine through its gate with cdecl args.
func callSym(t *testing.T, hv *xen.Hypervisor, k *Kernel, name string, args ...uint32) uint32 {
	t.Helper()
	addr, ok := k.SymbolAddr(name)
	if !ok {
		t.Fatalf("no symbol %s", name)
	}
	v, err := hv.CPU.Call(addr, args...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return v
}

func TestSymbolTableShape(t *testing.T) {
	_, k := newKernel(t)
	names := k.SymbolNames()
	if len(names) < 60 {
		t.Errorf("only %d support routines registered (paper's driver used 97)", len(names))
	}
	// Table 1's ten are all present.
	for _, n := range []string{
		"netdev_alloc_skb", "dev_kfree_skb_any", "netif_rx",
		"dma_map_single", "dma_map_page", "dma_unmap_single",
		"dma_unmap_page", "spin_trylock", "spin_unlock_irqrestore",
		"eth_type_trans",
	} {
		if !k.IsSupportRoutine(n) {
			t.Errorf("missing Table-1 routine %s", n)
		}
		if _, ok := k.Extern(n); !ok {
			t.Errorf("no native implementation handle for %s", n)
		}
	}
}

func TestSkbAllocFreeRecycle(t *testing.T) {
	hv, k := newKernel(t)
	skb := callSym(t, hv, k, "netdev_alloc_skb", 0x1111, SkbBufSize)
	if skb == 0 {
		t.Fatal("alloc returned null")
	}
	if k.load(skb+SkbDev) != 0x1111 {
		t.Error("dev not set")
	}
	data := k.load(skb + SkbData)
	head := k.load(skb + SkbHead)
	end := k.load(skb + SkbEnd)
	if data != head || end != head+SkbBufSize {
		t.Errorf("skb geometry: data=%#x head=%#x end=%#x", data, head, end)
	}
	callSym(t, hv, k, "dev_kfree_skb_any", skb)
	skb2 := callSym(t, hv, k, "netdev_alloc_skb", 0x2222, SkbBufSize)
	if skb2 != skb {
		t.Errorf("free list did not recycle: %#x vs %#x", skb2, skb)
	}
	if k.Counts["netdev_alloc_skb"] != 2 || k.Counts["dev_kfree_skb_any"] != 1 {
		t.Errorf("counts wrong: %v", k.Counts)
	}
}

// TestFreeSkbTwiceKeepsSlabDistinct pins the dom0 slab against a double
// free: a contained driver fault can hand the same stale sk_buff to
// FreeSkb twice (the injector aliases an already-freed skb into the RX
// ring, the abort frees every queued skb), and a slab holding it twice
// gives one buffer to two RX descriptors — the next ordinary receive
// delivers one frame's bytes under another's length.
func TestFreeSkbTwiceKeepsSlabDistinct(t *testing.T) {
	_, k := newKernel(t)
	skb := k.AllocSkb(0)
	k.FreeSkb(skb)
	k.FreeSkb(skb)
	a, b := k.AllocSkb(0), k.AllocSkb(0)
	if a == b {
		t.Fatalf("double free: one sk_buff %#x allocated twice", a)
	}
	if k.load(a+SkbHead) == k.load(b+SkbHead) {
		t.Fatalf("double free: two sk_buffs share data buffer %#x", k.load(a+SkbHead))
	}
}

func TestSkbPutAndBytes(t *testing.T) {
	_, k := newKernel(t)
	skb := k.AllocSkb(0)
	payload := []byte("some packet payload")
	if err := k.SkbPut(skb, payload); err != nil {
		t.Fatal(err)
	}
	got, err := k.SkbBytes(skb)
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("SkbBytes = %q, %v", got, err)
	}
	// With a fragment.
	fb := k.Alloc(256)
	k.Dom.AS.WriteBytes(fb, []byte("FRAG"))
	k.store(skb+SkbNrFrags, 1)
	k.store(skb+SkbFragPage, fb)
	k.store(skb+SkbFragOff, 0)
	k.store(skb+SkbFragSize, 4)
	k.store(skb+SkbLen, uint32(len(payload))+4)
	got, err = k.SkbBytes(skb)
	if err != nil || string(got) != "some packet payloadFRAG" {
		t.Errorf("fragged SkbBytes = %q, %v", got, err)
	}
}

func TestDmaMapReturnsMachineAddress(t *testing.T) {
	hv, k := newKernel(t)
	buf := k.Alloc(64)
	pa := callSym(t, hv, k, "dma_map_single", 0, buf, 64, 0)
	want, ok := k.Dom.AS.Translate(buf)
	if !ok || pa != want {
		t.Errorf("dma handle = %#x, want %#x", pa, want)
	}
	pa2 := callSym(t, hv, k, "dma_map_page", 0, buf&^uint32(mem.PageMask), buf&mem.PageMask, 64, 0)
	if pa2 != want {
		t.Errorf("dma_map_page = %#x", pa2)
	}
}

func TestSpinlocks(t *testing.T) {
	hv, k := newKernel(t)
	lock := k.Alloc(4)
	if v := callSym(t, hv, k, "spin_trylock", lock); v != 1 {
		t.Fatal("first trylock failed")
	}
	if v := callSym(t, hv, k, "spin_trylock", lock); v != 0 {
		t.Fatal("second trylock succeeded on held lock")
	}
	k.Dom.VirtIRQMasked = true
	callSym(t, hv, k, "spin_unlock_irqrestore", lock, 0)
	if k.load(lock) != 0 {
		t.Error("lock not released")
	}
	if k.Dom.VirtIRQMasked {
		t.Error("virtual interrupts not restored")
	}
	// irqsave masks.
	callSym(t, hv, k, "spin_lock_irqsave", lock)
	if !k.Dom.VirtIRQMasked {
		t.Error("irqsave did not mask")
	}
}

func TestEthTypeTrans(t *testing.T) {
	hv, k := newKernel(t)
	skb := k.AllocSkb(0)
	frame := make([]byte, 60)
	frame[12], frame[13] = 0x08, 0x06 // ARP
	k.SkbPut(skb, frame)
	proto := callSym(t, hv, k, "eth_type_trans", skb, 0x3333)
	if proto != 0x0806 {
		t.Errorf("proto = %#x", proto)
	}
	if k.load(skb+SkbLen) != 60-14 {
		t.Error("header not pulled")
	}
	if k.load(skb+SkbProtocol) != 0x0806 || k.load(skb+SkbDev) != 0x3333 {
		t.Error("protocol/dev not set")
	}
}

func TestNetifRxBacklogAndHook(t *testing.T) {
	hv, k := newKernel(t)
	skb := k.AllocSkb(0)
	callSym(t, hv, k, "netif_rx", skb)
	got, ok := k.PopBacklog()
	if !ok || got != skb {
		t.Error("backlog path broken")
	}
	var hooked uint32
	k.OnNetifRx = func(s uint32) { hooked = s }
	callSym(t, hv, k, "netif_rx", skb)
	if hooked != skb {
		t.Error("hook not invoked")
	}
	if _, ok := k.PopBacklog(); ok {
		t.Error("hooked skb also queued")
	}
}

func TestTimersFireAndRearm(t *testing.T) {
	hv, k := newKernel(t)
	// A simulated timer callback: a one-instruction function.
	// Use a gate as the "driver function" to observe invocation.
	fired := 0
	gate := hv.BindGate("timer_cb", func(c *cpu.CPU) (uint32, error) {
		fired++
		if fired == 1 {
			// Re-arm from within the callback (mod_timer during run).
			tm := c.Arg(0)
			k.store(tm+TimerExpires, k.Jiffies()+1)
			k.timers = append(k.timers, tm)
		}
		return 0, nil
	})
	tm := k.Alloc(TimerSize)
	k.store(tm+TimerFn, gate)
	k.store(tm+TimerData, tm)
	callSym(t, hv, k, "mod_timer", tm, 1)
	if k.PendingTimers() != 1 {
		t.Fatal("not armed")
	}
	// Not due yet.
	if err := k.RunTimers(hv.CPU); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Error("fired early")
	}
	k.Tick()
	if err := k.RunTimers(hv.CPU); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired = %d", fired)
	}
	if k.PendingTimers() != 1 {
		t.Error("re-arm during callback lost")
	}
	k.Tick()
	k.Tick()
	if err := k.RunTimers(hv.CPU); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("fired = %d after re-arm", fired)
	}
	// del_timer removes.
	callSym(t, hv, k, "mod_timer", tm, 100)
	if v := callSym(t, hv, k, "del_timer", tm); v != 1 {
		t.Error("del_timer missed an armed timer")
	}
	if k.PendingTimers() != 0 {
		t.Error("timer not removed")
	}
}

func TestIoremapRoutesToDevice(t *testing.T) {
	hv, k := newKernel(t)
	dev := &probeMMIO{}
	first := hv.Phys.ClaimMMIO(mem.OwnerDom0, 2, dev)
	va := callSym(t, hv, k, "ioremap", first*mem.PageSize, 2*mem.PageSize)
	if err := k.Dom.AS.Store(va+0x10, 4, 0xABCD); err != nil {
		t.Fatal(err)
	}
	if dev.lastOff != 0x10 || dev.lastVal != 0xABCD {
		t.Errorf("mmio write off=%#x val=%#x", dev.lastOff, dev.lastVal)
	}
}

type probeMMIO struct {
	lastOff, lastVal uint32
}

func (p *probeMMIO) MMIORead(off, size uint32) uint32 { return 0 }
func (p *probeMMIO) MMIOWrite(off, size, val uint32)  { p.lastOff, p.lastVal = off, val }

func TestChargesGoToDom0Bucket(t *testing.T) {
	hv, k := newKernel(t)
	before := hv.Meter.Get(cycles.CompDom0)
	callSym(t, hv, k, "netdev_alloc_skb", 0, SkbBufSize)
	if hv.Meter.Get(cycles.CompDom0) <= before {
		t.Error("support routine cost not charged to dom0")
	}
}

func TestIsValidEtherAddr(t *testing.T) {
	hv, k := newKernel(t)
	mac := k.Alloc(8)
	k.Dom.AS.WriteBytes(mac, []byte{0x00, 0x16, 0x3E, 1, 2, 3})
	if v := callSym(t, hv, k, "is_valid_ether_addr", mac); v != 1 {
		t.Error("valid MAC rejected")
	}
	k.Dom.AS.WriteBytes(mac, []byte{0x01, 0, 0, 0, 0, 1}) // multicast bit
	if v := callSym(t, hv, k, "is_valid_ether_addr", mac); v != 0 {
		t.Error("multicast MAC accepted")
	}
	k.Dom.AS.WriteBytes(mac, []byte{0, 0, 0, 0, 0, 0})
	if v := callSym(t, hv, k, "is_valid_ether_addr", mac); v != 0 {
		t.Error("zero MAC accepted")
	}
}

func TestDmaAllocCoherent(t *testing.T) {
	hv, k := newKernel(t)
	handle := k.Alloc(4)
	va := callSym(t, hv, k, "dma_alloc_coherent", 4096, handle)
	if va&mem.PageMask != 0 {
		t.Errorf("not page aligned: %#x", va)
	}
	pa := k.load(handle)
	want, _ := k.Dom.AS.Translate(va)
	if pa != want {
		t.Errorf("handle = %#x, want %#x", pa, want)
	}
	// The memory is usable.
	if err := k.Dom.AS.Store(va+4092, 4, 1); err != nil {
		t.Error(err)
	}
}

func TestEquatesCoverLayout(t *testing.T) {
	eq := Equates()
	checks := map[string]int32{
		"SKB_DATA": SkbData, "SKB_LEN": SkbLen, "ND_XMIT": NdXmit,
		"E1000_TDT": 0x3818, "DESC_SIZE": 16, "TXD_CMD_EOP": 1,
	}
	for name, want := range checks {
		if eq[name] != want {
			t.Errorf("equate %s = %d, want %d", name, eq[name], want)
		}
	}
	if len(eq) < 40 {
		t.Errorf("only %d equates", len(eq))
	}
}
