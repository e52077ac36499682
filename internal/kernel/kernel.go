// Package kernel is the dom0 (Linux-like) kernel substrate: a heap, the
// sk_buff slab, net_device objects, timers, interrupt dispatch, and — most
// importantly for TwinDrivers — the driver support routine symbol table
// that both driver instances link against.
//
// The VM driver instance calls these routines directly (it runs in dom0);
// the hypervisor driver instance reaches the same implementations through
// upcall stubs for every routine the hypervisor does not reimplement
// (§4.2/§4.3 of the paper). Reusing this body of code instead of porting
// it is the software-engineering payoff the paper quantifies at 851 lines
// versus the whole support library.
package kernel

import (
	"fmt"
	"sort"

	"twindrivers/internal/cost"
	"twindrivers/internal/cpu"
	"twindrivers/internal/cycles"
	"twindrivers/internal/isa"
	"twindrivers/internal/mem"
	"twindrivers/internal/xen"
)

// Kernel is the dom0 kernel instance.
type Kernel struct {
	HV  *xen.Hypervisor
	Dom *xen.Domain

	// OnNetifRx, when set, receives every skb passed to netif_rx (the
	// protocol stack). Otherwise skbs queue on Backlog.
	OnNetifRx func(skb uint32)

	// Backlog holds netif_rx'd skbs awaiting the stack.
	Backlog []uint32

	// Counts tallies support-routine invocations by name (Table 1 data).
	Counts map[string]uint64

	// JiffiesAddr is the dom0 address of the jiffies tick counter.
	JiffiesAddr uint32

	syms     map[string]uint32     // function name -> gate address
	impls    map[string]cpu.Extern // function name -> wrapped implementation
	dataSyms map[string]uint32     // kernel data symbol -> dom0 address
	gateName map[uint32]string

	skbFree   []uint32
	ioNext    uint32
	timers    []uint32 // timer struct addresses with pending expiry
	irqs      map[uint32]irqReg
	netdevs   []uint32
	printkLog int
}

type irqReg struct {
	handler uint32
	dev     uint32
}

// New creates the dom0 kernel over an existing hypervisor/domain pair and
// registers the full support-routine symbol table.
func New(hv *xen.Hypervisor, dom *xen.Domain) *Kernel {
	k := &Kernel{
		HV: hv, Dom: dom,
		Counts:   make(map[string]uint64),
		syms:     make(map[string]uint32),
		impls:    make(map[string]cpu.Extern),
		dataSyms: make(map[string]uint32),
		gateName: make(map[uint32]string),
		ioNext:   0xCF080000, // staggered: avoids stlb index collision with heap base
		irqs:     make(map[uint32]irqReg),
	}
	k.JiffiesAddr = hv.AllocHeap(dom, 4)
	k.dataSyms["jiffies"] = k.JiffiesAddr
	k.registerSymbols()
	return k
}

// Resolver returns a symbol resolver binding driver imports to kernel
// gates and kernel data (the dom0 module loader's job).
func (k *Kernel) Resolver() func(string) (uint32, bool) {
	return func(sym string) (uint32, bool) {
		if a, ok := k.syms[sym]; ok {
			return a, true
		}
		if a, ok := k.dataSyms[sym]; ok {
			return a, true
		}
		return 0, false
	}
}

// SymbolAddr returns the gate address of a support routine.
func (k *Kernel) SymbolAddr(name string) (uint32, bool) {
	a, ok := k.syms[name]
	return a, ok
}

// SymbolNames returns every registered support routine, sorted. The length
// of this list is this kernel's analogue of the paper's "97 routines
// called by the e1000 driver for all its operations".
func (k *Kernel) SymbolNames() []string {
	out := make([]string, 0, len(k.syms))
	for n := range k.syms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IsSupportRoutine reports whether name is a registered function symbol.
func (k *Kernel) IsSupportRoutine(name string) bool {
	_, ok := k.syms[name]
	return ok
}

// Extern returns the wrapped native implementation of a support routine.
// The dom0 upcall handler invokes it directly on the caller's cdecl frame
// ("the environment in which the driver support routine is called from the
// upcall handler must be identical", §4.2).
func (k *Kernel) Extern(name string) (cpu.Extern, bool) {
	fn, ok := k.impls[name]
	return fn, ok
}

// bind registers one support routine: the gate charges its cycle price to
// the dom0 bucket and counts the call.
func (k *Kernel) bind(name string, cyc uint64, fn func(c *cpu.CPU) (uint32, error)) {
	wrapped := func(c *cpu.CPU) (uint32, error) {
		k.Counts[name]++
		c.Meter.AddTo(cycles.CompDom0, cyc)
		if fn == nil {
			return 0, nil
		}
		return fn(c)
	}
	gate := k.HV.BindGate(name, wrapped)
	k.syms[name] = gate
	k.impls[name] = wrapped
	k.gateName[gate] = name
}

// Alloc allocates n bytes of dom0 kernel heap.
func (k *Kernel) Alloc(n uint32) uint32 { return k.HV.AllocHeap(k.Dom, n) }

// Load/Store convenience accessors into dom0 memory.
func (k *Kernel) load(addr uint32) uint32 {
	v, err := k.Dom.AS.Load(addr, 4)
	if err != nil {
		panic(fmt.Sprintf("kernel: load %#x: %v", addr, err))
	}
	return v
}

func (k *Kernel) store(addr, val uint32) {
	if err := k.Dom.AS.Store(addr, 4, val); err != nil {
		panic(fmt.Sprintf("kernel: store %#x: %v", addr, err))
	}
}

// Tick advances jiffies by one.
func (k *Kernel) Tick() { k.store(k.JiffiesAddr, k.load(k.JiffiesAddr)+1) }

// Jiffies reads the tick counter.
func (k *Kernel) Jiffies() uint32 { return k.load(k.JiffiesAddr) }

// --- sk_buff management -----------------------------------------------

// AllocSkb allocates an sk_buff plus data buffer from the dom0 heap (or
// the free list) and initialises it. Native-side twin of netdev_alloc_skb.
func (k *Kernel) AllocSkb(dev uint32) uint32 {
	var skb uint32
	if n := len(k.skbFree); n > 0 {
		skb = k.skbFree[n-1]
		k.skbFree = k.skbFree[:n-1]
		buf := k.load(skb + SkbHead)
		for i := uint32(0); i < SkbSize; i += 4 {
			k.store(skb+i, 0)
		}
		k.store(skb+SkbHead, buf)
		k.store(skb+SkbData, buf)
		k.store(skb+SkbEnd, buf+SkbBufSize)
	} else {
		skb = k.Alloc(SkbSize)
		buf := k.Alloc(SkbBufSize)
		for i := uint32(0); i < SkbSize; i += 4 {
			k.store(skb+i, 0)
		}
		k.store(skb+SkbHead, buf)
		k.store(skb+SkbData, buf)
		k.store(skb+SkbEnd, buf+SkbBufSize)
	}
	k.store(skb+SkbDev, dev)
	k.store(skb+SkbTruesize, SkbSize+SkbBufSize)
	k.store(skb+SkbRefcnt, 1)
	return skb
}

// FreeSkb releases an sk_buff to the free list (pool skbs are left to the
// pool owner — the hypervisor's refcount trick keeps dom0 from reclaiming
// them, §4.3). A slab skb whose refcount is already 0 is already on the
// free list: freeing it again is refused, as in Linux, or the slab would
// hand one buffer to two owners.
func (k *Kernel) FreeSkb(skb uint32) {
	if k.load(skb+SkbPool) != 0 {
		// Pool-owned: drop the reference; the pool reclaims it.
		rc := k.load(skb + SkbRefcnt)
		if rc > 0 {
			k.store(skb+SkbRefcnt, rc-1)
		}
		return
	}
	if k.load(skb+SkbRefcnt) == 0 {
		return
	}
	k.store(skb+SkbRefcnt, 0)
	k.skbFree = append(k.skbFree, skb)
}

// SkbPut writes payload into an skb's linear buffer and sets its length.
func (k *Kernel) SkbPut(skb uint32, payload []byte) error {
	data := k.load(skb + SkbData)
	if err := k.Dom.AS.WriteBytes(data, payload); err != nil {
		return err
	}
	k.store(skb+SkbLen, uint32(len(payload)))
	return nil
}

// SkbBytes reads an skb's payload (linear part plus one fragment).
func (k *Kernel) SkbBytes(skb uint32) ([]byte, error) {
	data := k.load(skb + SkbData)
	ln := k.load(skb + SkbLen)
	lin := ln
	var frag []byte
	if k.load(skb+SkbNrFrags) > 0 {
		fsz := k.load(skb + SkbFragSize)
		lin = ln - fsz
		fp := k.load(skb+SkbFragPage) + k.load(skb+SkbFragOff)
		var err error
		frag, err = k.Dom.AS.ReadBytes(fp, int(fsz))
		if err != nil {
			return nil, err
		}
	}
	head, err := k.Dom.AS.ReadBytes(data, int(lin))
	if err != nil {
		return nil, err
	}
	return append(head, frag...), nil
}

// --- net_device management ---------------------------------------------

// AllocNetdev allocates a net_device plus private area.
func (k *Kernel) AllocNetdev(privSize uint32) uint32 {
	nd := k.Alloc(NdSize)
	priv := k.Alloc(privSize)
	for i := uint32(0); i < NdSize; i += 4 {
		k.store(nd+i, 0)
	}
	k.store(nd+NdPriv, priv)
	k.store(nd+NdMtu, cost.MTU)
	return nd
}

// Netdevs lists registered devices.
func (k *Kernel) Netdevs() []uint32 { return k.netdevs }

// DropNetdev removes a device from the registered list. Replaying a
// driver's probe re-runs register_netdev for the same net_device; the
// recovery path drops the stale registration first so the list does not
// accumulate duplicates across restarts.
func (k *Kernel) DropNetdev(nd uint32) {
	for i, d := range k.netdevs {
		if d == nd {
			k.netdevs = append(k.netdevs[:i], k.netdevs[i+1:]...)
			return
		}
	}
}

// NetdevStat reads one of the ND stats slots.
func (k *Kernel) NetdevStat(nd, off uint32) uint32 { return k.load(nd + off) }

// --- interrupt and timer dispatch ---------------------------------------

// DispatchIRQ runs the registered interrupt handler for irq in dom0
// context (the native-Linux / dom0 configurations' IRQ path). The caller
// must already have switched to dom0.
func (k *Kernel) DispatchIRQ(c *cpu.CPU, irq uint32) error {
	reg, ok := k.irqs[irq]
	if !ok {
		return fmt.Errorf("kernel: spurious irq %d", irq)
	}
	c.Meter.AddTo(cycles.CompDom0, cost.IrqOverhead)
	c.Meter.PushComponent(cycles.CompDriver)
	defer c.Meter.PopComponent()
	_, err := c.Call(reg.handler, irq, reg.dev)
	return err
}

// HasIRQ reports whether a handler is registered for irq.
func (k *Kernel) HasIRQ(irq uint32) bool {
	_, ok := k.irqs[irq]
	return ok
}

// RunTimers fires every timer whose expiry has passed, calling the driver
// function in dom0 context (the VM instance's watchdog/error paths).
func (k *Kernel) RunTimers(c *cpu.CPU) error {
	now := k.Jiffies()
	// Partition first: callbacks may re-arm (mod_timer appends to the
	// list while we run).
	var due, rest []uint32
	for _, tm := range k.timers {
		if k.load(tm+TimerExpires) <= now {
			due = append(due, tm)
		} else {
			rest = append(rest, tm)
		}
	}
	k.timers = rest
	for _, tm := range due {
		fn := k.load(tm + TimerFn)
		data := k.load(tm + TimerData)
		c.Meter.AddTo(cycles.CompDom0, cost.TimerOp)
		c.Meter.PushComponent(cycles.CompDriver)
		_, err := c.Call(fn, data)
		c.Meter.PopComponent()
		if err != nil {
			return err
		}
	}
	return nil
}

// PendingTimers reports the number of armed timers.
func (k *Kernel) PendingTimers() int { return len(k.timers) }

// PopBacklog removes and returns the oldest netif_rx'd skb.
func (k *Kernel) PopBacklog() (uint32, bool) {
	if len(k.Backlog) == 0 {
		return 0, false
	}
	skb := k.Backlog[0]
	k.Backlog = k.Backlog[1:]
	return skb, true
}

// ethTypeTrans is shared by the gate implementation and the hypervisor's
// reimplementation test oracle: pull the 14-byte header, set protocol.
func ethTypeTrans(space *mem.AddressSpace, skb, dev uint32) uint32 {
	load := func(a uint32) uint32 { v, _ := space.Load(a, 4); return v }
	data := load(skb + SkbData)
	proto, _ := space.Load(data+12, 2)
	proto = (proto>>8 | proto<<8) & 0xFFFF // network byte order
	space.Store(skb+SkbData, 4, data+14)
	space.Store(skb+SkbLen, 4, load(skb+SkbLen)-14)
	space.Store(skb+SkbProtocol, 4, proto)
	space.Store(skb+SkbDev, 4, dev)
	return proto
}

// Regs convenience: argument access with names.
func arg(c *cpu.CPU, i int) uint32 { return c.Arg(i) }

var _ = isa.EAX // keep isa imported for future register plumbing
