package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"twindrivers/internal/asm"
	"twindrivers/internal/cost"
	"twindrivers/internal/cpu"
	"twindrivers/internal/cycles"
	"twindrivers/internal/drivermodel"
	"twindrivers/internal/isa"
	"twindrivers/internal/kernel"
	"twindrivers/internal/mem"
	"twindrivers/internal/rewrite"
	"twindrivers/internal/svm"
	"twindrivers/internal/telemetry"
	"twindrivers/internal/upcall"
	"twindrivers/internal/vswitch"
	"twindrivers/internal/xen"
)

// DefaultHvSupport is Table 1 of the paper: the support routines called
// during error-free execution of the e1000 transmit and receive paths,
// implemented natively in the hypervisor.
func DefaultHvSupport() []string {
	return []string{
		"netdev_alloc_skb",
		"dev_kfree_skb_any",
		"netif_rx",
		"dma_map_single",
		"dma_map_page",
		"dma_unmap_single",
		"dma_unmap_page",
		"spin_trylock",
		"spin_unlock_irqrestore",
		"eth_type_trans",
	}
}

// TwinConfig parameterises the derivation.
type TwinConfig struct {
	// HvSupport names the support routines implemented natively in the
	// hypervisor; every other imported routine becomes an upcall stub.
	// Nil means DefaultHvSupport (all ten fast-path routines; zero
	// upcalls per invocation, the leftmost bar of Figure 10).
	HvSupport []string

	// Watchdog is the instruction budget per hypervisor-driver invocation
	// (VINO-style containment, §4.5.2). 0 means 2,000,000.
	Watchdog uint64

	// Rewrite options; RejectPrivileged is forced on.
	Rewrite rewrite.Options

	// PoolSize is the number of preallocated dom0 sk_buffs reserved for
	// the hypervisor (§4.3's buffer pool). 0 means 1024.
	PoolSize int

	// ShadowStack enables return-address checking during hypervisor
	// driver execution (§4.5.1 extension).
	ShadowStack bool

	// STLBEntries sizes the software translation table (0 = the paper's
	// 4096). Smaller tables collide more — the stlb-size ablation.
	STLBEntries int

	// Queues is the number of transmit service queues guests are sharded
	// across. 0 means the model's own queue count; any value is clamped
	// to [1, Model.Queues]. Single-queue backends always run the
	// degenerate one-queue configuration: one sweep, the machine meter.
	Queues int

	// Trace attaches a telemetry event tracer. Nil (the default) means
	// no tracing unless a telemetry.Session is active, in which case the
	// session's tracer is picked up — the hot path then records typed
	// events into per-queue lanes. Tracing never charges the simulated
	// cycle meters, so enabling it cannot move a cyc/pkt number.
	Trace *telemetry.Tracer

	// Weights sets the per-guest service weights of the deficit-round-
	// robin sweep (sched.go), applied to guests in index order
	// (cyclically when shorter than the guest count; values < 1 clamp
	// to 1). Nil or empty — the default — weighs every guest 1, which
	// is plain round-robin.
	Weights []int

	// Rates sets the per-guest cap on descriptors consumed per service
	// crossing, in index order like Weights; 0 — and nil, the default —
	// means unlimited.
	Rates []int

	// Switch enables the inter-guest L2 switch (internal/vswitch):
	// guest→guest frames are classified on their Ethernet header and
	// delivered dom0-side without a device round-trip, with MAC
	// learning, broadcast fan-out and anti-spoofing. Off by default;
	// the transmit paths then carry no switch hook at all.
	Switch bool
}

// ErrDriverDead reports that the hypervisor instance was aborted and torn
// down after a containment fault.
var ErrDriverDead = errors.New("core: hypervisor driver instance is dead")

// ErrTxBusy reports a transient transmit-ring-full condition.
var ErrTxBusy = errors.New("core: transmit ring busy")

// ErrFrameOversize reports a transmit frame larger than the pooled
// sk_buff's linear buffer. The length word of a staged ring descriptor is
// guest-writable memory, so the hypervisor-side transmit validates it
// before copying a single byte — a scribbled 0xFFFF length must not
// overrun the 2048-byte pooled buffer (or, on a no-scatter/gather
// backend, the driver's staging slot).
var ErrFrameOversize = errors.New("core: transmit frame exceeds the pooled buffer")

// ErrBounceOverflow reports a GuestTransmit frame larger than the guest's
// staging bounce buffer. The check runs before any byte is staged: the
// transmit ring and its staging slots are allocated directly after the
// bounce buffer in the guest heap, so an unchecked oversize WriteBytes
// would scribble the ring header of the guest's own batched path.
var ErrBounceOverflow = errors.New("core: transmit frame exceeds the guest bounce buffer")

// GuestBounceBytes is the size of each guest's transmit bounce buffer (the
// staging region GuestTransmit copies a frame into before the hypercall).
const GuestBounceBytes = 2 * mem.PageSize

// FaultLogCap bounds the fault log: a flapping driver must not grow an
// unbounded history, so the log is a ring keeping the most recent records
// (Twin.Faults still counts every fault ever taken).
const FaultLogCap = 32

// FaultRecord describes one containment fault: the classified CPU fault
// kind, the driver entry-point symbol that was executing, the cause text
// and a lifetime-cycle timestamp (the monotonic clock recovery policies
// window over).
type FaultRecord struct {
	Kind  cpu.FaultKind
	Entry string
	Cause string
	Cycle uint64
}

// String renders a record for humans: the classified fault kind, the
// driver entry symbol that was running, the lifetime-cycle stamp, and
// the cause text — the attribution line a post-incident report leads
// with.
func (r FaultRecord) String() string {
	return fmt.Sprintf("[%s in %s @%dcyc] %s", r.Kind, r.Entry, r.Cycle, r.Cause)
}

// AbortStats is the teardown accounting of one abort: how many packets
// were lost where, and how many in-flight pooled buffers came back.
type AbortStats struct {
	// StagedTxDiscarded counts frames that guests had staged on their
	// transmit rings but the dead instance never drained.
	StagedTxDiscarded int

	// RxPendingDropped counts packets received and queued but never
	// delivered to their guest.
	RxPendingDropped int

	// RxPostedDiscarded counts guest-posted receive descriptors discarded
	// when their ring was reset: the buffers are the guests' own memory
	// (nothing to reclaim into dom0), but a revived instance must never
	// deliver into descriptors posted to its dead predecessor, so the
	// guests re-post after recovery.
	RxPostedDiscarded int

	// SkbsReclaimed counts pooled sk_buffs that were in flight (posted as
	// RX buffers, parked on the device transmit ring, or queued for
	// delivery) and were returned to the pool by the teardown.
	SkbsReclaimed int

	// TxPostedDiscarded counts guest-posted transmit descriptors discarded
	// when their ring was reset: the dead instance never serviced them, so
	// they are accounted as lost instead of phantom-transmitted later. The
	// guests re-post after recovery.
	TxPostedDiscarded int

	// TxPinsReleased counts guest pages that were still pinned for
	// in-flight posted transmits when the instance died; the teardown
	// releases every pin — a revived instance must never DMA through a
	// translation validated for its dead predecessor.
	TxPinsReleased int
}

// Twin is the loaded TwinDrivers runtime: both instances live, single data
// copy in dom0.
type Twin struct {
	M *Machine

	// SV is the hypervisor instance's translating SVM; IdentSV the VM
	// instance's identity SVM.
	SV      *svm.SVM
	IdentSV *svm.SVM

	// HVImage is the derived driver loaded in the hypervisor.
	HVImage *asm.Image

	// RewriteStats describes the derivation.
	RewriteStats *rewrite.Stats

	// Upcalls manages stubs for non-hypervisor-implemented routines.
	Upcalls *upcall.Manager

	// HvCalls counts invocations of the hypervisor's native support
	// routines by name.
	HvCalls map[string]uint64

	// Dead is set after a containment fault; Faults counts every fault
	// over the twin's lifetime (recoveries do not reset it) and
	// FaultLog() exposes the bounded log of the most recent ones.
	Dead   bool
	Faults uint64

	// LastAbort describes what the most recent abort's teardown found:
	// the loss and reclamation accounting a recovery supervisor reports.
	LastAbort AbortStats

	cfg           TwinConfig
	hvSupport     map[string]bool
	xmitEntry     uint32
	intrEntry     uint32
	stackTop      uint32
	guardLo       uint32
	guardHi       uint32
	stackViolGate uint32
	entryName     map[uint32]string
	faultLog      []FaultRecord
	pool          []uint32           // free pooled skbs
	outstanding   map[uint32]bool    // pooled skbs handed out and not yet returned
	fragBuf       map[uint32]uint32  // pooled skb -> preallocated frag buffer
	txPins        map[uint32]txPin   // guest VA page -> pinned posted-TX translation
	pinsBySkb     map[uint32]skbPins // pooled skb -> the pages its posted frame pins
	rxQueues      map[mem.Owner]*rxQueue
	macToDom      map[[6]byte]mem.Owner
	pendingIRQ    []*NICDev // deferred while dom0 masks virtual interrupts
	rxBounce      []byte    // copyToPosted's source bounce buffer, reused per frame

	// vsw is the inter-guest L2 switch, nil when disabled: the transmit
	// path only consults it behind a nil check, so the switched-off
	// configuration carries no classification work at all.
	vsw *vswitch.Switch

	// guestIO holds each guest's transmit-side I/O state, keyed by the
	// owning domain; guestOrder fixes the round-robin service order.
	guestIO    map[mem.Owner]*guestIO
	guestOrder []mem.Owner

	// Per-queue service state: guests shard across nQueues service
	// queues (queueGuests fixes each queue's round-robin order); with
	// more than one queue each gets its own cycle meter — its simulated
	// core — merged into a machine-wide view at measurement time.
	nQueues     int
	queueGuests [][]mem.Owner
	queueMeters []*cycles.Meter
	qSched      []qSched // per-queue DRR cycle position (sched.go)

	// Telemetry: one control lane for machine-scoped events (hypercalls,
	// faults, recoveries, deliveries, TLB traffic) plus one lane per
	// service queue for sweep events. All nil when tracing is off — every
	// Record call then returns before touching anything. mMeter is the
	// machine-wide meter captured before any per-queue swap, so
	// control-lane stamps share one monotonic clock even when a fault
	// fires during a per-queue sweep.
	trc     *telemetry.Tracer
	ctlLane *telemetry.Lane
	qLanes  []*telemetry.Lane
	mMeter  *cycles.Meter

	// Coalescer batches guest notifications and upcall IRQ deliveries to
	// one per batch window; outside a window it degenerates to the
	// per-packet delivery.
	Coalescer *upcall.Coalescer
}

// guestIO is one guest's I/O state: the bounce buffer the per-packet
// hypercall path stages frames in, the guest's own shared transmit
// descriptor ring with its per-slot staging buffers for the batched path
// (see twinbatch.go), and the posted-receive ring plus guest translation
// cache of the posted-buffer receive path (see rxpath.go). Every guest
// gets its own instance so N guests can stage concurrently and the
// ring-service loop can drain them round-robin under one boundary
// crossing.
type guestIO struct {
	dom    *xen.Domain
	bounce uint32 // guest-side bounce buffer for GuestTransmit
	ring   *mem.Ring
	slots  []uint32 // per-slot guest staging buffers
	queue  int      // transmit service queue this guest is sharded onto

	rxRing *mem.Ring     // guest-posted receive buffer descriptors
	gtlb   *svm.GuestTLB // cached guest-address translations for delivery
	rxDel  RxDelivery    // the last posted delivery's result, reused by the next

	txRing     *mem.Ring // guest-posted transmit scatter/gather descriptors
	postedLost uint64    // posted-TX frames lost to containment, lifetime

	// DRR scheduler state (sched.go).
	weight  int // descriptors of quantum added per deficit round
	rate    int // max descriptors per service crossing; 0 = unlimited
	deficit int // accumulated unspent quantum
	served  int // descriptors consumed this crossing (rate accounting)

	// Inter-guest switch accounting (sched.go); zero when the switch
	// is off.
	spoofDropped uint64 // TX frames dropped for forging another port's MAC
	vswRxDropped uint64 // switch-delivered frames lost to pool exhaustion
}

// NewTwinMachine builds a machine whose e1000 driver is twinned from the
// start: the same rewritten binary serves as the VM instance in dom0
// (identity stlb) and as the hypervisor instance (translating stlb) —
// §5.1.2. nGuests guest domains share the NIC through the derived driver;
// each gets its own transmit ring, staging slots and bounce buffer.
func NewTwinMachine(nNICs, nGuests int, cfg TwinConfig) (*Machine, *Twin, error) {
	return NewTwinMachineModel(nNICs, nGuests, nil, cfg)
}

// NewTwinMachineModel is NewTwinMachine for an arbitrary backend model
// (nil selects the e1000): the same derivation pipeline — rewrite,
// translating SVM, gate binding, layout — runs over whatever driver the
// model carries, which is the paper's driver-generic claim made concrete.
func NewTwinMachineModel(nNICs, nGuests int, model *drivermodel.Model, cfg TwinConfig) (*Machine, *Twin, error) {
	m, err := newBase(nNICs, nGuests, model)
	if err != nil {
		return nil, nil, err
	}
	t, err := loadTwin(m, cfg)
	if err != nil {
		return nil, nil, err
	}
	// Initialisation runs through the VM instance, exactly as in the
	// paper ("we first load the VM driver into the dom0 kernel where it
	// performs the initialization", §3.1).
	if err := m.probeAll(); err != nil {
		return nil, nil, err
	}
	return m, t, nil
}

func loadTwin(m *Machine, cfg TwinConfig) (*Twin, error) {
	if cfg.Watchdog == 0 {
		cfg.Watchdog = 2_000_000
	}
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 1024
	}
	if cfg.HvSupport == nil {
		cfg.HvSupport = DefaultHvSupport()
	}
	cfg.Rewrite.RejectPrivileged = true
	if cfg.STLBEntries == 0 {
		cfg.STLBEntries = svm.NumEntries
	}
	cfg.Rewrite.STLBEntries = cfg.STLBEntries
	maxQueues := m.Model.Queues
	if maxQueues < 1 {
		maxQueues = 1
	}
	if cfg.Queues == 0 {
		cfg.Queues = maxQueues
	}
	if cfg.Queues < 1 {
		cfg.Queues = 1
	}
	if cfg.Queues > maxQueues {
		cfg.Queues = maxQueues
	}

	t := &Twin{
		M:           m,
		HvCalls:     make(map[string]uint64),
		cfg:         cfg,
		hvSupport:   make(map[string]bool),
		fragBuf:     make(map[uint32]uint32),
		outstanding: make(map[uint32]bool),
		txPins:      make(map[uint32]txPin),
		pinsBySkb:   make(map[uint32]skbPins),
		rxQueues:    make(map[mem.Owner]*rxQueue),
		macToDom:    make(map[[6]byte]mem.Owner),
	}
	if cfg.Switch {
		t.vsw = vswitch.New()
	}
	for _, n := range cfg.HvSupport {
		if !m.K.IsSupportRoutine(n) {
			return nil, fmt.Errorf("core: unknown hypervisor support routine %q", n)
		}
		t.hvSupport[n] = true
	}

	// One derivation serves both instances at bring-up: the rewritten unit
	// is laid out twice (identity stlb in dom0, translating stlb in the
	// hypervisor). Only a recovery re-derives.
	ru, stats, err := rewrite.Rewrite(m.Unit, cfg.Rewrite)
	if err != nil {
		return nil, fmt.Errorf("core: derive driver: %w", err)
	}

	hv, k := m.HV, m.K

	// --- VM instance: rewritten binary, identity stlb, in dom0 ----------
	// Built exactly once: dom0 and its VM instance survive every
	// containment fault; only the hypervisor instance is rebuilt.
	tableBytes := uint32(cfg.STLBEntries * svm.EntrySize)
	idTable := k.Alloc(tableBytes)
	idSv, err := svm.NewSized(hv, m.Dom0, m.Dom0.AS, idTable, cfg.STLBEntries, true)
	if err != nil {
		return nil, err
	}
	t.IdentSV = idSv
	idSlow := hv.BindGate("__svm_slowpath.vm", func(c *cpu.CPU) (uint32, error) {
		return idSv.SlowPath(c.Meter, c.Arg(0))
	})
	idGlobals := k.Alloc(32) // code_lo/hi/delta zero: no adjustment
	t.stackViolGate = hv.BindGate("__svm_stack_violation", func(c *cpu.CPU) (uint32, error) {
		return 0, &cpu.Fault{Kind: cpu.FaultProtection, Msg: "stack bounds violation"}
	})

	vmResolve := func(sym string) (uint32, bool) {
		switch sym {
		case rewrite.SymSTLB:
			return idTable, true
		case rewrite.SymSlowPath:
			return idSlow, true
		case rewrite.SymStackViolation:
			return t.stackViolGate, true
		case rewrite.SymCodeLo, rewrite.SymCodeHi, rewrite.SymCodeDelta:
			return idGlobals + 0, true // all read as zero
		case rewrite.SymScratch:
			return idGlobals + 12, true
		case rewrite.SymStackLo:
			return idGlobals + 16, true
		case rewrite.SymStackHi:
			return idGlobals + 20, true
		}
		return k.Resolver()(sym)
	}
	vmIm, err := asm.Layout(m.Model.Name+"-vm", ru, xen.Dom0DriverCode, xen.Dom0DriverData, vmResolve)
	if err != nil {
		return nil, fmt.Errorf("core: load VM instance: %w", err)
	}
	if err := m.mapDriverData(vmIm); err != nil {
		return nil, err
	}
	m.VMImage = vmIm
	hv.CPU.AddImage(vmIm)

	// --- Durable twin state: shared by every hypervisor instance --------
	t.Upcalls = upcall.New(hv, m.Dom0)

	// Preallocated dom0 buffer pool with the refcount trick (§4.3).
	for i := 0; i < cfg.PoolSize; i++ {
		skb := k.AllocSkb(0)
		k.Dom.AS.Store(skb+kernel.SkbPool, 4, 1)
		k.Dom.AS.Store(skb+kernel.SkbRefcnt, 4, 1)
		t.fragBuf[skb] = k.Alloc(kernel.SkbBufSize)
		t.pool = append(t.pool, skb)
	}

	// Default guest routing: every NIC MAC delivers to the first guest.
	// Recorded through RegisterGuestMAC so the configuration log carries
	// every route: replay rebuilds the routing table wholly from the log,
	// and a failed replay can never leave a route behind that no recorded
	// event asserts.
	for _, d := range m.Devs {
		t.RegisterGuestMAC(d.Dev.HWAddr(), m.DomU.ID)
	}

	// Per-guest I/O state: guest notifications and upcall IRQs coalesce to
	// one per batch window; each guest's transmit ring and staging buffers
	// carry whole batches across the boundary per crossing. Ring formatting
	// is recorded in the configuration log so recovery re-attaches each
	// guest's ring at the same base it already maps.
	t.Coalescer = upcall.NewCoalescer(hv)
	t.Upcalls.Coalesce = t.Coalescer
	t.guestIO = make(map[mem.Owner]*guestIO)
	// Queue sharding is a pure function of (guest index, queue count):
	// balanced by the modular walk, seeded by the RSS hash, derived
	// identically by a recovered instance — nothing to log or replay.
	// With one queue the single meter IS the machine meter, so the
	// degenerate configuration measures exactly what it always did; with
	// more, each queue meters its own simulated core (own cold TLB/L1).
	t.nQueues = cfg.Queues
	t.queueGuests = make([][]mem.Owner, t.nQueues)
	t.qSched = make([]qSched, t.nQueues)
	if t.nQueues == 1 {
		t.queueMeters = []*cycles.Meter{hv.Meter}
	} else {
		for q := 0; q < t.nQueues; q++ {
			t.queueMeters = append(t.queueMeters, cycles.NewMeter())
		}
	}
	// Telemetry attachment: an explicit tracer in the config wins;
	// otherwise a process-wide session (cmd/twintrace) is picked up.
	// Untraced machines get nil lanes, whose Record is a no-op that
	// never reads the meter — the zero-overhead-when-disabled contract.
	t.trc = cfg.Trace
	var reg *telemetry.Registry
	if s := telemetry.ActiveSession(); s != nil {
		if t.trc == nil {
			t.trc = s.Tracer
		}
		reg = s.Registry
	}
	t.mMeter = hv.Meter
	t.ctlLane = t.trc.NewLane(m.Model.Name + "/ctl")
	for q := 0; q < t.nQueues; q++ {
		t.qLanes = append(t.qLanes, t.trc.NewLane(fmt.Sprintf("%s/q%d", m.Model.Name, q)))
	}
	base := shardBase(t.nQueues)
	for gi, g := range m.Guests {
		io := &guestIO{dom: g, queue: (base + gi) % t.nQueues}
		// Scheduler parameters are a pure function of (config, guest
		// index) — like the queue shard, derived identically by a
		// recovered instance, nothing to log or replay. A weight below 1
		// would starve the guest (the rate limit, not the weight, is the
		// tool for that); a negative rate means no cap.
		io.weight = max(schedParam(cfg.Weights, gi, 1), 1)
		io.rate = max(schedParam(cfg.Rates, gi, 0), 0)
		if t.vsw != nil {
			t.vsw.AddPort(g.ID)
		}
		t.queueGuests[io.queue] = append(t.queueGuests[io.queue], g.ID)
		// Guest-side transmit bounce buffer (stands in for the guest's own
		// packet pages; the paravirtual driver hands their addresses down).
		io.bounce = hv.AllocHeap(g, GuestBounceBytes)
		ringBase := hv.AllocHeap(g, mem.RingBytes(TxRingSlots))
		if io.ring, err = mem.InitRing(g.AS, ringBase, TxRingSlots); err != nil {
			return nil, err
		}
		for i := 0; i < TxRingSlots; i++ {
			io.slots = append(io.slots, hv.AllocHeap(g, TxSlotBytes))
		}
		// Posted-receive ring (guest-writable, hardened like the transmit
		// ring) and the per-guest translation cache delivery resolves
		// posted addresses through.
		rxBase := hv.AllocHeap(g, mem.RingBytes(RxRingSlots))
		if io.rxRing, err = mem.InitRing(g.AS, rxBase, RxRingSlots); err != nil {
			return nil, err
		}
		io.gtlb = svm.NewGuestTLB(hv, g)
		io.gtlb.Trace = t.ctlLane
		// Posted-transmit descriptor ring (guest-writable, hardened like
		// the other two): (addr, len) scatter/gather descriptors the ring
		// service resolves through the guest TLB.
		txBase := hv.AllocHeap(g, mem.RingBytes(TxRingSlots))
		if io.txRing, err = mem.InitRing(g.AS, txBase, TxRingSlots); err != nil {
			return nil, err
		}
		t.guestIO[g.ID] = io
		t.guestOrder = append(t.guestOrder, g.ID)
		m.Config.record(ConfigEvent{Op: OpRing, Dom: g.ID, Addr: ringBase, Aux: TxRingSlots})
		m.Config.record(ConfigEvent{Op: OpRxRing, Dom: g.ID, Addr: rxBase, Aux: RxRingSlots})
		m.Config.record(ConfigEvent{Op: OpTxRing, Dom: g.ID, Addr: txBase, Aux: TxRingSlots})
	}

	// --- Hypervisor instance: derived, translating stlb, upcall stubs ---
	// Everything instance-scoped lives in buildInstance so a faulted
	// instance can be torn away and re-derived (see instance.go).
	inst, err := t.buildInstance(ru, stats)
	if err != nil {
		return nil, err
	}
	t.installInstance(inst)
	if reg != nil {
		t.PublishMetrics(reg)
	}
	return t, nil
}

// ioCurrent resolves the guest I/O state of the domain currently running —
// the derived driver executes "in whatever guest context is current" — and
// falls back to the first guest when the current domain is not a guest
// (dom0 issuing a transmit on a guest's behalf).
func (t *Twin) ioCurrent() *guestIO {
	if g, ok := t.guestIO[t.M.HV.Current.ID]; ok {
		return g
	}
	return t.guestIO[t.M.DomU.ID]
}

// RegisterGuestMAC routes received packets with the given destination MAC
// to a domain. The route is recorded in the configuration log so recovery
// re-asserts it on a rebuilt instance.
func (t *Twin) RegisterGuestMAC(mac [6]byte, dom mem.Owner) {
	t.macToDom[mac] = dom
	if t.vsw != nil {
		// Registered MACs are the switch's authoritative static
		// entries: the anchor of the anti-spoof check.
		t.vsw.BindStatic(vswitch.MAC(mac), dom)
	}
	t.M.Config.record(ConfigEvent{Op: OpGuestMAC, MAC: mac, Dom: dom})
}

// FaultLog returns the bounded fault history, oldest first. It is a copy:
// callers may keep it across further faults.
func (t *Twin) FaultLog() []FaultRecord {
	return append([]FaultRecord(nil), t.faultLog...)
}

// PoolFree reports the number of free pooled sk_buffs.
func (t *Twin) PoolFree() int { return len(t.pool) }

// PoolOutstanding reports how many pooled sk_buffs are currently handed
// out and not yet returned (posted on device rings, queued for delivery,
// or leaked by an injected bug). PoolFree + PoolOutstanding == PoolCapacity
// is the pool-conservation invariant the chaos harness asserts at every
// settle point; after an abort's outstanding-buffer sweep it must be zero.
func (t *Twin) PoolOutstanding() int { return len(t.outstanding) }

// PoolCapacity reports the configured pool size.
func (t *Twin) PoolCapacity() int { return t.cfg.PoolSize }

// StagedTx reports how many descriptors a guest currently has staged on
// its transmit ring (introspection for harnesses reconciling their own
// staged-frame ledgers against the ring).
func (t *Twin) StagedTx(dom mem.Owner) (int, error) {
	g, ok := t.guestIO[dom]
	if !ok {
		return 0, fmt.Errorf("core: domain %d has no transmit ring", dom)
	}
	return g.ring.Len()
}

// LeakPooledBuffers is a fault-injection hook: it makes up to n pooled
// sk_buffs unreachable, the way a driver bug that forgets to free its
// buffers does. The leaked buffers stay in the outstanding set, so the
// teardown of a subsequent containment abort reclaims them — recovery
// heals the leak along with the instance. Returns how many were leaked.
func (t *Twin) LeakPooledBuffers(n int) int {
	leaked := 0
	for ; leaked < n; leaked++ {
		if _, ok := t.poolGet(); !ok {
			break
		}
	}
	return leaked
}

// poolGet pops a pooled skb and reinitialises it. The skb is tracked as
// outstanding until poolPut sees it again: if the instance dies while the
// buffer is posted on a device ring or queued for delivery, the abort
// teardown reclaims it from this set instead of leaking it.
func (t *Twin) poolGet() (uint32, bool) {
	n := len(t.pool)
	if n == 0 {
		return 0, false
	}
	skb := t.pool[n-1]
	t.pool = t.pool[:n-1]
	t.outstanding[skb] = true
	as := t.M.Dom0.AS
	head, _ := as.Load(skb+kernel.SkbHead, 4)
	as.Store(skb+kernel.SkbData, 4, head)
	as.Store(skb+kernel.SkbLen, 4, 0)
	as.Store(skb+kernel.SkbNrFrags, 4, 0)
	as.Store(skb+kernel.SkbNext, 4, 0)
	as.Store(skb+kernel.SkbRefcnt, 4, 1)
	as.Store(skb+kernel.SkbPool, 4, 1)
	return skb, true
}

func (t *Twin) poolPut(skb uint32) {
	// TX completion is the pin release point: a posted frame's guest pages
	// stay pinned exactly as long as its sk_buff is in flight.
	t.unpinSkb(skb)
	delete(t.outstanding, skb)
	t.pool = append(t.pool, skb)
}

// invokeHV runs a derived-driver entry point in the *current* domain
// context — no address-space switch, the core performance property — on
// the guard-paged hypervisor stack, under the watchdog budget. A fault
// aborts and tears down the instance (containment).
func (t *Twin) invokeHV(entry uint32, args ...uint32) (uint32, error) {
	if t.Dead {
		return 0, ErrDriverDead
	}
	c := t.M.CPU
	savedSP := c.Regs[isa.ESP]
	savedBudget := c.Budget
	savedShadow := c.ShadowStack
	c.Regs[isa.ESP] = t.stackTop
	c.GuardLow, c.GuardHigh = t.guardLo, t.guardHi
	c.Budget = t.cfg.Watchdog
	c.ShadowStack = t.cfg.ShadowStack
	c.Meter.PushComponent(cycles.CompDriver)

	ret, err := c.Call(entry, args...)

	c.Meter.PopComponent()
	c.Regs[isa.ESP] = savedSP
	c.GuardLow, c.GuardHigh = 0, 0
	c.Budget = savedBudget
	c.ShadowStack = savedShadow

	if err != nil {
		t.abort(entry, err)
		return 0, fmt.Errorf("%w: %v", ErrDriverDead, err)
	}
	return ret, nil
}

// abort implements containment plus clean teardown: the faulting
// hypervisor instance is marked dead and unloaded — dom0 and its VM
// instance are untouched — and every resource the dead instance shared
// with the guests is settled so a recovery can start from known state:
//
//   - received-but-undelivered packets are dropped, their buffers
//     returned to the pool or slab (no pool leak, no stale delivery from
//     a dead instance);
//   - every guest transmit ring is reset, so staged-but-undrained frames
//     are accounted as lost instead of phantom-delivered later, and the
//     guests' next staging attempt fails fast with ErrDriverDead;
//   - in-flight pooled sk_buffs (posted RX buffers, frames parked on the
//     device transmit ring) are reclaimed — the device rings die with the
//     instance;
//   - any open notification-coalescing window is force-closed so the
//     unwinding batch cannot absorb the recovered instance's deliveries.
//
// The accounting lands in LastAbort and the fault in the bounded log.
func (t *Twin) abort(entry uint32, cause error) {
	t.Dead = true
	t.Faults++
	rec := FaultRecord{
		Entry: t.entryName[entry],
		Cause: cause.Error(),
		Cycle: t.M.HV.Meter.Lifetime(),
	}
	if f, ok := cause.(*cpu.Fault); ok {
		rec.Kind = f.Kind
	}
	t.ctlLane.Record(t.mMeter, telemetry.EvFault, int32(t.M.HV.Current.ID), uint64(rec.Kind), 0)
	if len(t.faultLog) == FaultLogCap {
		copy(t.faultLog, t.faultLog[1:])
		t.faultLog = t.faultLog[:FaultLogCap-1]
	}
	t.faultLog = append(t.faultLog, rec)
	t.M.CPU.RemoveImage(t.HVImage)

	st := AbortStats{}
	// Reclamation must walk in a deterministic order — identical runs give
	// bit-identical cycle measurements, and the pool's post-abort order
	// feeds every later allocation — so the map-keyed queues and the
	// outstanding set are swept in sorted order, not map order.
	doms := make([]mem.Owner, 0, len(t.rxQueues))
	for dom := range t.rxQueues {
		doms = append(doms, dom)
	}
	sort.Slice(doms, func(i, j int) bool { return doms[i] < doms[j] })
	// A runaway cleaner can queue the same buffer several times before the
	// watchdog cuts it off; free each distinct buffer once or the pool
	// would hold duplicates after the drain.
	seen := make(map[uint32]bool)
	for _, dom := range doms {
		q := t.rxQueues[dom]
		st.RxPendingDropped += q.len()
		for q.len() > 0 {
			if skb := q.pop(); !seen[skb] {
				seen[skb] = true
				t.poolFreeOrKernel(skb)
			}
		}
	}
	for _, id := range t.guestOrder {
		g := t.guestIO[id]
		n, _ := g.ring.Discard() // resets even when corrupt
		st.StagedTxDiscarded += n
		// Posted receive buffers die with the instance: the descriptors
		// are discarded (the guests re-post after recovery) and the guest
		// translation cache is shot down — a revived instance must never
		// trust a translation cached for its dead predecessor.
		n, _ = g.rxRing.Discard()
		st.RxPostedDiscarded += n
		// Posted transmit descriptors the dead instance never serviced are
		// discarded the same way, accounted in TxPostedDiscarded (not in
		// PostedTxLost, which counts only service-time containment losses —
		// each lost frame lands in exactly one bucket).
		n, _ = g.txRing.Discard()
		st.TxPostedDiscarded += n
		g.gtlb.Invalidate()
	}
	// Release every posted-TX pin the dead instance held: in-flight frames
	// die with the device rings, and a revived instance must never DMA
	// through a translation validated for its predecessor.
	st.TxPinsReleased = len(t.txPins)
	clear(t.txPins)
	clear(t.pinsBySkb)
	left := make([]uint32, 0, len(t.outstanding))
	for skb := range t.outstanding {
		left = append(left, skb)
	}
	sort.Slice(left, func(i, j int) bool { return left[i] < left[j] })
	for _, skb := range left {
		st.SkbsReclaimed++
		t.poolPut(skb)
	}
	// Deferred softirq work targeted the dead instance; the device reset a
	// recovery performs drops the packets behind those interrupts anyway.
	t.pendingIRQ = nil
	t.Coalescer.AbortWindows()
	t.LastAbort = st
	t.ctlLane.Record(t.mMeter, telemetry.EvAbort, int32(t.M.HV.Current.ID),
		uint64(st.StagedTxDiscarded+st.RxPendingDropped), uint64(st.SkbsReclaimed))
}

// GuestTransmit sends a guest packet through the hypervisor driver: the
// paravirtual driver's hypercall path (§5.3). The frame is staged in guest
// memory; the hypervisor copies only the header (up to the first 96 bytes)
// into a pooled dom0 sk_buff and chains the rest of the *guest* packet via
// the sk_buff's page fragment pointers — the zero-copy transmit that makes
// the hypervisor DMA helpers return "the correct guest machine page
// addresses".
func (t *Twin) GuestTransmit(d *NICDev, frame []byte) error {
	if t.Dead {
		return ErrDriverDead
	}
	g := t.ioCurrent()
	// The frame must fit the bounce buffer BEFORE any byte is staged: the
	// guest's transmit ring header lives directly after the bounce region,
	// and an unchecked oversize write would corrupt it.
	if len(frame) > GuestBounceBytes {
		return fmt.Errorf("%w: %d bytes into a %d-byte bounce", ErrBounceOverflow, len(frame), GuestBounceBytes)
	}
	// Stage the packet in guest memory (the guest stack's copy is priced
	// by the caller as part of its kernel path).
	if err := g.dom.AS.WriteBytes(g.bounce, frame); err != nil {
		return err
	}
	return t.GuestTransmitAt(d, g.bounce, len(frame))
}

// GuestTransmitAt transmits n bytes already staged at a virtual address of
// the current guest.
func (t *Twin) GuestTransmitAt(d *NICDev, guestAddr uint32, n int) error {
	if t.Dead {
		return ErrDriverDead
	}
	t.M.HV.ChargeHypercall()
	t.ctlLane.Record(t.mMeter, telemetry.EvHypercall, int32(t.M.HV.Current.ID), 1, 0)
	return t.xmit(d, t.ioCurrent(), guestAddr, n, false)
}

// copyFromGuest copies n bytes at virtual address src of guest g into the
// dom0 buffer at virtual address dst (a pooled skb's linear buffer,
// persistently mapped into the hypervisor). The destination is translated
// per page (pageSpans): a buffer straddling a page boundary must not
// inherit the first page's translation for bytes on the second page — the
// SVM window pairing that usually saves a straddle is not guaranteed when
// the second page was unmapped at the first page's first touch.
func (t *Twin) copyFromGuest(dst uint32, g *guestIO, src uint32, n int) error {
	hv := t.M.HV
	meter := hv.Meter
	var buf spanBuf
	spans, err := pageSpans(&buf, dst, n, func(a uint32) (uint32, error) {
		return t.SV.Translate(meter, a)
	})
	if err != nil {
		return err
	}
	off := 0
	for _, sp := range spans {
		meter.AddTo(cycles.CompXen, uint64(sp.bytes)*cost.HvCopyPerByte)
		meter.TouchLines(sp.pa, sp.bytes)
		if err := mem.Copy(hv.HVSpace, sp.pa, g.dom.AS, src+uint32(off), sp.bytes); err != nil {
			return err
		}
		off += sp.bytes
	}
	return nil
}

// HandleIRQ services a NIC interrupt with the hypervisor driver instance,
// directly in the current domain context. If dom0 has masked its virtual
// interrupt flag, the invocation is deferred to a softirq (§4.4).
func (t *Twin) HandleIRQ(d *NICDev) error {
	if t.Dead {
		return ErrDriverDead
	}
	if t.M.Dom0.VirtIRQMasked {
		t.pendingIRQ = append(t.pendingIRQ, d)
		return nil
	}
	t.M.HV.Meter.AddTo(cycles.CompXen, cost.IrqOverhead)
	_, err := t.invokeHV(t.intrEntry, d.IRQ, d.Netdev)
	return err
}

// RunSoftirq services interrupts deferred while dom0 masked its virtual
// interrupt flag.
func (t *Twin) RunSoftirq() error {
	if t.M.Dom0.VirtIRQMasked {
		return nil
	}
	pend := t.pendingIRQ
	t.pendingIRQ = nil
	for _, d := range pend {
		t.M.HV.Meter.AddTo(cycles.CompXen, cost.IrqOverhead)
		if _, err := t.invokeHV(t.intrEntry, d.IRQ, d.Netdev); err != nil {
			return err
		}
	}
	return nil
}

// PendingRx reports queued-but-undelivered packets for a domain.
func (t *Twin) PendingRx(dom mem.Owner) int {
	if q := t.rxQueues[dom]; q != nil {
		return q.len()
	}
	return 0
}

// queueRx enqueues a received skb for a domain (netif_rx's demux target).
func (t *Twin) queueRx(dom mem.Owner, skb uint32) {
	q := t.rxQueues[dom]
	if q == nil {
		q = &rxQueue{}
		t.rxQueues[dom] = q
	}
	q.push(skb)
}

// DeliverPending copies every queued received packet into guest buffers
// (the hypervisor's per-packet copy that dominates its receive overhead in
// Figure 8) and raises one virtual interrupt. It returns the packets, valid
// until the next copy delivery to the same guest (see DeliverPendingBatch).
func (t *Twin) DeliverPending(dom *xen.Domain) ([][]byte, error) {
	return t.DeliverPendingBatch(dom, 0)
}

// DeliverPendingBatch delivers at most max queued packets (0 means all),
// raising a single coalesced guest notification for the whole batch.
//
// The returned frames, and the slice holding them, live in buffers the
// guest's receive queue owns and reuses: they are valid only until the
// next DeliverPending or DeliverPendingBatch for the same guest (a
// delivery to another guest leaves them alone), so a caller that keeps a
// frame past that must copy it.
//
// A mid-batch fault (a translate or read failure over a scribbled skb)
// drops the rest of the dequeued batch but returns the frames already
// delivered alongside a *DeliveryError carrying the exact drop count:
// callers must count those frames delivered and the dropped remainder lost
// exactly once.
func (t *Twin) DeliverPendingBatch(dom *xen.Domain, max int) ([][]byte, error) {
	rq := t.rxQueues[dom.ID]
	if rq == nil || rq.len() == 0 {
		return nil, nil
	}
	n := rq.len()
	if max > 0 && max < n {
		n = max
	}
	meter := t.M.HV.Meter
	as := t.M.Dom0.AS
	buf, out := rq.frames[:0], rq.out[:0]
	for i := 0; i < n; i++ {
		skb := rq.pop()
		data, _ := as.Load(skb+kernel.SkbData, 4)
		ln, _ := as.Load(skb+kernel.SkbLen, 4)
		// eth_type_trans pulled the 14-byte header; the guest receives
		// the full frame.
		start := data - 14
		total := int(ln) + 14
		off := len(buf)
		ta, err := t.SV.Translate(meter, start)
		if err == nil {
			meter.AddTo(cycles.CompXen, uint64(total)*cost.HvCopyPerByte)
			meter.TouchLines(ta, total)
			// A grown buffer moves; the frames already returned keep
			// pointing at the old one, which nothing writes again.
			buf = slices.Grow(buf, total)[:off+total]
			err = as.ReadInto(start, buf[off:])
		}
		if err != nil {
			rq.frames, rq.out = buf[:off], out
			return out, t.deliveryFault(dom, rq, out, skb, n-1-i, err)
		}
		out = append(out, buf[off:off+total:off+total])
		t.poolFreeOrKernel(skb)
	}
	rq.frames, rq.out = buf, out
	t.Coalescer.Deliver(dom)
	return out, nil
}

// deliveryFault settles a mid-batch delivery failure: the failed skb, and
// the batch's remaining rest skbs still on q, are dropped (buffers back to
// the pool or slab — every aborted batch must not shrink transmit capacity),
// the frames already delivered get their coalesced notification, and the
// caller receives a *DeliveryError with the exact delivered/dropped split
// so loss is accounted exactly once.
func (t *Twin) deliveryFault(dom *xen.Domain, q *rxQueue, out [][]byte, failed uint32, rest int, cause error) error {
	t.poolFreeOrKernel(failed)
	for k := 0; k < rest; k++ {
		t.poolFreeOrKernel(q.pop())
	}
	if len(out) > 0 {
		t.Coalescer.Deliver(dom)
	}
	return &DeliveryError{Delivered: len(out), Dropped: 1 + rest, Cause: cause}
}

// poolFreeOrKernel returns an skb to the hypervisor pool or to the dom0
// slab, depending on provenance.
func (t *Twin) poolFreeOrKernel(skb uint32) {
	as := t.M.Dom0.AS
	if v, _ := as.Load(skb+kernel.SkbPool, 4); v != 0 {
		t.poolPut(skb)
		return
	}
	t.M.K.FreeSkb(skb)
}

// UpcallsPerformed returns the total upcall count.
func (t *Twin) UpcallsPerformed() uint64 { return t.Upcalls.Count }

// QueueCount reports the number of transmit service queues this twin
// shards its guests across (1 on single-queue backends).
func (t *Twin) QueueCount() int { return t.nQueues }

// QueueOf reports the service queue a guest domain is sharded onto, or
// -1 for a domain without transmit state.
func (t *Twin) QueueOf(dom mem.Owner) int {
	if g, ok := t.guestIO[dom]; ok {
		return g.queue
	}
	return -1
}

// QueueMeters returns the per-queue cycle meters. With one queue the
// single entry is the machine meter itself — the degenerate configuration
// has no separate accounting; with more, each meter is that queue's
// simulated core, and a machine-wide view is a cycles.Merge over them
// plus the machine meter.
func (t *Twin) QueueMeters() []*cycles.Meter {
	return append([]*cycles.Meter(nil), t.queueMeters...)
}

// ResetQueueMeters starts a measurement epoch on every per-queue meter
// (hardware state stays warm, exactly like Meter.Reset). With one queue
// the single meter is the machine meter, which the caller resets itself —
// resetting it twice here would double-retire its lifetime, so the
// degenerate case is a no-op.
func (t *Twin) ResetQueueMeters() {
	if t.nQueues == 1 {
		return
	}
	for _, qm := range t.queueMeters {
		qm.Reset()
	}
}
