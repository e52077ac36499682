package core

import (
	"errors"
	"fmt"

	"twindrivers/internal/kernel"
	"twindrivers/internal/mem"
	"twindrivers/internal/vswitch"
)

// The configuration log is the shadow-driver half of transparent recovery:
// during normal operation the machine records, as a replayable object log,
// every configuration action that shaped the driver's state — netdev
// creation (the module loader's owned fields), probe, open (which performs
// the IRQ registration and ring programming), guest MAC routing and guest
// transmit-ring formatting. When the hypervisor instance faults, the
// supervisor re-derives a fresh instance and replays this log to bring the
// device, the dom0-side driver data and the guest rings back to an
// equivalent state, without the guests ever detaching.

// ConfigOp tags one replayable configuration event.
type ConfigOp uint8

// Configuration event kinds, in the order bring-up records them.
const (
	// OpNetdev restores the module-loader-owned net_device fields (the
	// priv pointer) before the driver's probe touches them: a wild write
	// may have scribbled exactly these words, and replaying probe over a
	// corrupt priv pointer would spread the damage instead of healing it.
	OpNetdev ConfigOp = iota

	// OpProbe replays the driver's probe entry point through the VM
	// instance (initialisation always runs in dom0, §3.1 of the paper).
	OpProbe

	// OpOpen replays the driver's open: IRQ registration, descriptor-ring
	// programming, RX fill, watchdog-timer arming.
	OpOpen

	// OpGuestMAC re-asserts a receive-demultiplex route.
	OpGuestMAC

	// OpRing reformats and re-attaches a guest's transmit descriptor ring
	// at its recorded base (the guest keeps the same mapping; recovery
	// must not move it).
	OpRing

	// OpRxRing reformats and re-attaches a guest's posted-receive
	// descriptor ring at its recorded base, and shoots down the guest's
	// translation cache: descriptors and translations that served the dead
	// instance must never leak into its successor — the guests re-post
	// their buffers after recovery.
	OpRxRing

	// OpTxRing reformats and re-attaches a guest's posted-transmit
	// descriptor ring at its recorded base, shoots down the guest's
	// translation cache and drops any surviving posted-TX pins: a revived
	// instance must never service a descriptor, trust a translation or DMA
	// through a pin that belonged to its dead predecessor.
	OpTxRing
)

// ConfigEvent is one entry of the log. Fields are used per-op: Dev indexes
// Machine.Devs for OpNetdev/OpProbe/OpOpen; Dom and MAC describe OpGuestMAC;
// Dom, Addr (ring base) and Aux (slot count) describe OpRing; Addr/Aux carry
// the net_device address and priv pointer for OpNetdev.
//
// Args carries the concrete argument words of an OpProbe event. Probe
// arity is a property of the driver model (the e1000 probe takes three
// arguments, the rtl8139 probe four), so the event records exactly what
// bring-up passed instead of replay re-deriving it from one backend's
// signature — the conformance sweep caught replay assuming e1000's
// (netdev, mmio, irq) triple and truncating the rtl8139's ring-size word.
type ConfigEvent struct {
	Op   ConfigOp
	Dev  int
	Dom  mem.Owner
	MAC  [6]byte
	Addr uint32
	Aux  uint32
	Args []uint32
}

// ConfigLog is an append-only record of configuration history.
type ConfigLog struct {
	Events []ConfigEvent
}

// record appends one event.
func (l *ConfigLog) record(ev ConfigEvent) {
	l.Events = append(l.Events, ev)
}

// ErrConfigCorrupt reports a configuration log that fails validation:
// an unknown op, a device index outside the machine, a probe event with
// no recorded arguments, a ring event whose geometry mem.Ring would
// refuse, or a log missing the netdev/probe/open history a device needs
// to come back. Replay fails closed on it — Revive removes the fresh
// instance and leaves the twin dead — because replaying a damaged log
// would install an instance whose state matches nothing the guests ever
// configured.
var ErrConfigCorrupt = errors.New("core: configuration log corrupt")

// validateConfig checks the recorded history before replay touches any
// state: every event must be structurally sound, and every device must
// retain the netdev/probe/open triple bring-up recorded — a truncated log
// must not half-install an instance whose device was never probed or
// opened.
func (t *Twin) validateConfig() error {
	m := t.M
	type devSeen struct{ netdev, probe, open bool }
	seen := make([]devSeen, len(m.Devs))
	for i, ev := range m.Config.Events {
		switch ev.Op {
		case OpNetdev:
			if ev.Dev < 0 || ev.Dev >= len(m.Devs) {
				return fmt.Errorf("%w: event %d: netdev device index %d of %d", ErrConfigCorrupt, i, ev.Dev, len(m.Devs))
			}
			// Replay heals this event with a store to Addr+NdPriv; pin the
			// address to the device it claims to describe so a scribbled
			// log cannot steer that store anywhere else in dom0 memory.
			if ev.Addr != m.Devs[ev.Dev].Netdev {
				return fmt.Errorf("%w: event %d: netdev address %#x is not device %d's", ErrConfigCorrupt, i, ev.Addr, ev.Dev)
			}
			seen[ev.Dev].netdev = true
		case OpProbe:
			if ev.Dev < 0 || ev.Dev >= len(m.Devs) {
				return fmt.Errorf("%w: event %d: probe device index %d of %d", ErrConfigCorrupt, i, ev.Dev, len(m.Devs))
			}
			if len(ev.Args) == 0 {
				return fmt.Errorf("%w: event %d: probe with no recorded arguments", ErrConfigCorrupt, i)
			}
			seen[ev.Dev].probe = true
		case OpOpen:
			if ev.Dev < 0 || ev.Dev >= len(m.Devs) {
				return fmt.Errorf("%w: event %d: open device index %d of %d", ErrConfigCorrupt, i, ev.Dev, len(m.Devs))
			}
			seen[ev.Dev].open = true
		case OpGuestMAC:
			// Any MAC/domain pair is representable; unknown domains are
			// routes to departed guests and replay keeps them verbatim.
		case OpRing, OpRxRing, OpTxRing:
			// Mirror mem.InitRing's geometry checks so a scribbled slot
			// count fails the whole replay up front instead of mid-way.
			c := int(ev.Aux)
			if c <= 0 || c&(c-1) != 0 || c > mem.MaxRingSlots {
				return fmt.Errorf("%w: event %d: ring capacity %d", ErrConfigCorrupt, i, ev.Aux)
			}
		default:
			return fmt.Errorf("%w: event %d: unknown op %d", ErrConfigCorrupt, i, ev.Op)
		}
	}
	for dev, s := range seen {
		if !s.netdev || !s.probe || !s.open {
			return fmt.Errorf("%w: device %d history incomplete (netdev=%v probe=%v open=%v)",
				ErrConfigCorrupt, dev, s.netdev, s.probe, s.open)
		}
	}
	return nil
}

// replayConfig drives the recorded configuration history into a freshly
// installed hypervisor instance. Probe and open run through the VM driver
// instance exactly as at bring-up; ring and MAC events rebuild the
// twin-side routing and guest I/O state in place. The log is validated in
// full before any event executes (fail closed: see ErrConfigCorrupt), and
// the MAC routing table is rebuilt from scratch — every route comes from
// the log, so a replay that fails mid-way can never leave a route no
// recorded event asserts.
func (t *Twin) replayConfig() error {
	if err := t.validateConfig(); err != nil {
		return err
	}
	m := t.M
	t.macToDom = make(map[[6]byte]mem.Owner)
	for _, ev := range m.Config.Events {
		switch ev.Op {
		case OpNetdev:
			if err := m.Dom0.AS.Store(ev.Addr+kernel.NdPriv, 4, ev.Aux); err != nil {
				return err
			}
		case OpProbe:
			d := m.Devs[ev.Dev]
			// register_netdev will re-add the device; drop the stale entry.
			m.K.DropNetdev(d.Netdev)
			// Replay the recorded argument words: the model owns the probe
			// arity, and the event recorded exactly what bring-up passed.
			if _, err := m.CallDriver(m.Model.Entries.Probe, ev.Args...); err != nil {
				return err
			}
		case OpOpen:
			if _, err := m.CallDriver(m.Model.Entries.Open, m.Devs[ev.Dev].Netdev); err != nil {
				return err
			}
		case OpGuestMAC:
			t.macToDom[ev.MAC] = ev.Dom
			if t.vsw != nil {
				// The switch's authoritative static table is rebuilt
				// from the same recorded routes as the demux table.
				t.vsw.BindStatic(vswitch.MAC(ev.MAC), ev.Dom)
			}
		case OpRing:
			g, ok := t.guestIO[ev.Dom]
			if !ok {
				continue
			}
			ring, err := mem.InitRing(g.dom.AS, ev.Addr, int(ev.Aux))
			if err != nil {
				return err
			}
			g.ring = ring
		case OpRxRing:
			g, ok := t.guestIO[ev.Dom]
			if !ok {
				continue
			}
			ring, err := mem.InitRing(g.dom.AS, ev.Addr, int(ev.Aux))
			if err != nil {
				return err
			}
			g.rxRing = ring
			g.gtlb.Invalidate()
		case OpTxRing:
			g, ok := t.guestIO[ev.Dom]
			if !ok {
				continue
			}
			ring, err := mem.InitRing(g.dom.AS, ev.Addr, int(ev.Aux))
			if err != nil {
				return err
			}
			g.txRing = ring
			g.gtlb.Invalidate()
			// The TLB shootdown's DMA counterpart: no pin outlives the
			// instance whose TLB validated it (the abort already swept
			// them; replay re-asserts the invariant idempotently).
			clear(t.txPins)
			clear(t.pinsBySkb)
		}
	}
	return nil
}
