package chaos

import (
	"errors"
	"fmt"

	"twindrivers/internal/core"
	"twindrivers/internal/drivermodel"
	"twindrivers/internal/mem"
	"twindrivers/internal/recovery"
)

// The attack-surface matrix. The driver-isolation literature's taxonomy
// organizes isolation failures by the interface a hostile or buggy guest
// reaches the system through; each Dimension here is one of those
// surfaces, and each Attack is a concrete hostile behavior on it. Attacks
// are registered like the conformance behavior table — a flat, sorted,
// enumerable list — so coverage is a property you can assert (the matrix
// test requires every dimension × backend × rx-mode × tx-mode cell to be
// non-empty and runs every attack in every cell, zero-skip), not an
// anecdote.
//
// Adding a backend: nothing to do here — attacks drive the backend-generic
// twin interface, and Cells() picks the new model up from the driver-model
// registry; the matrix test then runs every attack against it.
//
// Adding an attack: append one Attack to the table with the dimension it
// probes and the rx-modes it is meaningful under; the soak's hostile
// scheduler and the matrix test pick it up automatically.

// Dimension names one attack surface of the taxonomy.
type Dimension string

// The five attack surfaces.
const (
	// DimControlPlane is shared control state the guest can scribble:
	// ring headers, indices.
	DimControlPlane Dimension = "control-plane"

	// DimDataPlane is guest-authored descriptor content: addresses and
	// lengths the hypervisor must validate before trusting.
	DimDataPlane Dimension = "data-plane"

	// DimFaultContainment is driver bugs: the containment abort and the
	// recovery that follows.
	DimFaultContainment Dimension = "fault-containment"

	// DimResourceExhaustion is finite shared resources: the buffer pool,
	// ring capacity.
	DimResourceExhaustion Dimension = "resource-exhaustion"

	// DimInterfaceAbuse is hostile arguments at the hypercall boundary
	// itself.
	DimInterfaceAbuse Dimension = "interface-abuse"
)

// Dimensions lists every attack surface, in a fixed order.
func Dimensions() []Dimension {
	return []Dimension{
		DimControlPlane,
		DimDataPlane,
		DimFaultContainment,
		DimResourceExhaustion,
		DimInterfaceAbuse,
	}
}

// Attack is one registered hostile behavior. Run executes it against one
// guest of a running soak, asserting containment; it returns an error
// (wrapping ErrInvariant) when the system misbehaved. Attacks leave the
// system consistent — the soak's settle invariants run right after.
type Attack struct {
	Name    string
	Dim     Dimension
	Modes   []RxMode
	TxModes []TxMode
	Run     func(s *Soak, g *soakGuest) error
}

func (a Attack) hasMode(m RxMode) bool {
	for _, mode := range a.Modes {
		if mode == m {
			return true
		}
	}
	return false
}

func (a Attack) hasTxMode(m TxMode) bool {
	for _, mode := range a.TxModes {
		if mode == m {
			return true
		}
	}
	return false
}

var (
	both     = []RxMode{ModeCopy, ModePosted}
	bothTx   = []TxMode{TxCopy, TxPosted}
	postedTx = []TxMode{TxPosted}
)

// Attacks returns the registered attack table, in a fixed order.
func Attacks() []Attack {
	return []Attack{
		{Name: "tx-ring-head-scribble", Dim: DimControlPlane, Modes: both, TxModes: bothTx, Run: attackTxRingHeadScribble},
		{Name: "posted-ring-header-scribble", Dim: DimControlPlane, Modes: []RxMode{ModePosted}, TxModes: bothTx, Run: attackPostedRingHeaderScribble},
		{Name: "tx-desc-len-scribble", Dim: DimDataPlane, Modes: both, TxModes: bothTx, Run: attackTxDescLenScribble},
		{Name: "posted-hostile-descriptor", Dim: DimDataPlane, Modes: []RxMode{ModePosted}, TxModes: bothTx, Run: attackPostedHostileDescriptor},
		{Name: "posted-tx-hostile-addr", Dim: DimDataPlane, Modes: both, TxModes: postedTx, Run: attackPostedTxHostileAddr},
		{Name: "posted-tx-short-len", Dim: DimDataPlane, Modes: both, TxModes: postedTx, Run: attackPostedTxShortLen},
		{Name: "posted-tx-toctou", Dim: DimDataPlane, Modes: both, TxModes: postedTx, Run: attackPostedTxTOCTOU},
		{Name: "rx-copy-queue-integrity", Dim: DimDataPlane, Modes: []RxMode{ModeCopy}, TxModes: bothTx, Run: attackRxCopyQueueIntegrity},
		{Name: "switch-mac-spoof", Dim: DimDataPlane, Modes: both, TxModes: bothTx, Run: attackSwitchMacSpoof},
		{Name: "wild-write-recover", Dim: DimFaultContainment, Modes: both, TxModes: bothTx, Run: attackWildWriteRecover},
		{Name: "dead-fail-fast", Dim: DimFaultContainment, Modes: both, TxModes: bothTx, Run: attackDeadFailFast},
		{Name: "pool-leak-heal", Dim: DimResourceExhaustion, Modes: both, TxModes: bothTx, Run: attackPoolLeakHeal},
		{Name: "tx-ring-flood", Dim: DimResourceExhaustion, Modes: both, TxModes: bothTx, Run: attackTxRingFlood},
		{Name: "sched-noisy-neighbor", Dim: DimResourceExhaustion, Modes: both, TxModes: bothTx, Run: attackSchedNoisyNeighbor},
		{Name: "oversize-hypercall", Dim: DimInterfaceAbuse, Modes: both, TxModes: bothTx, Run: attackOversizeHypercall},
		{Name: "posted-overcommit", Dim: DimInterfaceAbuse, Modes: []RxMode{ModePosted}, TxModes: bothTx, Run: attackPostedOvercommit},
		{Name: "posted-tx-double-post", Dim: DimInterfaceAbuse, Modes: both, TxModes: postedTx, Run: attackPostedTxDoublePost},
	}
}

// attacksFor filters the table to the attacks meaningful under one
// rx-mode × tx-mode combination.
func attacksFor(m RxMode, tx TxMode) []Attack {
	var out []Attack
	for _, a := range Attacks() {
		if a.hasMode(m) && a.hasTxMode(tx) {
			out = append(out, a)
		}
	}
	return out
}

// QueueCounts is the service-queue axis of the matrix: the degenerate
// single-queue configuration and a sharded multi-queue one. A count a
// backend cannot provide (beyond its Model.Queues) is skipped for that
// backend — it would clamp down to a cell the matrix already holds.
func QueueCounts() []int { return []int{1, 4} }

// BackendQueueCounts filters the queue axis to the counts one backend
// can actually run.
func BackendQueueCounts(backend string) []int {
	model, ok := drivermodel.Get(backend)
	var out []int
	for _, q := range QueueCounts() {
		if q == 1 || (ok && q <= model.Queues) {
			out = append(out, q)
		}
	}
	return out
}

// Cell is one coordinate of the attack-surface matrix.
type Cell struct {
	Dim     Dimension
	Backend string
	Mode    RxMode
	Tx      TxMode
	Queues  int
	Attacks []string
}

// Cells enumerates the full matrix: every dimension, every registered
// backend, both rx-modes, both tx-modes, every applicable queue count,
// with the attack names covering each cell. The matrix test asserts no
// cell is empty and runs every listed attack.
func Cells() []Cell {
	var cells []Cell
	for _, dim := range Dimensions() {
		for _, backend := range drivermodel.Names() {
			for _, queues := range BackendQueueCounts(backend) {
				for _, mode := range both {
					for _, tx := range bothTx {
						c := Cell{Dim: dim, Backend: backend, Mode: mode, Tx: tx, Queues: queues}
						for _, a := range Attacks() {
							if a.Dim == dim && a.hasMode(mode) && a.hasTxMode(tx) {
								c.Attacks = append(c.Attacks, a.Name)
							}
						}
						cells = append(cells, c)
					}
				}
			}
		}
	}
	return cells
}

// runAttack executes one registered attack by name against a guest
// (matrix-test entry point; the soak's hostile scheduler calls Run
// directly).
func (s *Soak) runAttack(name string, g *soakGuest) error {
	for _, a := range Attacks() {
		if a.Name == name {
			if !a.hasMode(g.mode()) {
				return fmt.Errorf("attack %s does not apply to %s rx-mode", name, g.mode())
			}
			if !a.hasTxMode(g.txMode()) {
				return fmt.Errorf("attack %s does not apply to %s tx-mode", name, g.txMode())
			}
			s.attacks[name]++
			return a.Run(s, g)
		}
	}
	return fmt.Errorf("unknown attack %q", name)
}

// --- control plane ------------------------------------------------------

// attackTxRingHeadScribble: the guest scribbles the head word of the
// transmit ring its traffic rides — the staging ring or, for a posted-TX
// guest, the posted-descriptor ring. The service crossing must detect the
// corrupt header, reset that ring (losing exactly its staged frames),
// leave every other guest's traffic alone, and accept honest traffic from
// the attacker afterwards.
func attackTxRingHeadScribble(s *Soak, g *soakGuest) error {
	base := g.txRingBase
	if g.txPosted {
		base = g.txPostRingBase
	}
	if err := g.dom.AS.Store(base+4, 4, 0xDEADBEEF); err != nil {
		return fmt.Errorf("%w: scribble: %v", ErrInvariant, err)
	}
	if err := s.serviceAll(); err != nil {
		return err
	}
	if s.tw.Dead {
		return fmt.Errorf("%w: ring-header scribble killed the instance", ErrInvariant)
	}
	// The reset ring accepts honest traffic again.
	if err := s.stageBatch(g, [][]byte{s.txFrame(g, 300)}); err != nil {
		return err
	}
	return s.serviceAll()
}

// attackPostedRingHeaderScribble: same hostile header, receive side. The
// delivery must report ErrRingCorrupt, keep the queued frames (they are
// not lost — the guest re-posts and receives them), and never die.
func attackPostedRingHeaderScribble(s *Soak, g *soakGuest) error {
	if err := s.injectRx(g, 2); err != nil {
		return err
	}
	if s.tw.Dead || s.tw.PendingRx(g.dom.ID) == 0 {
		return nil // the burst resolved elsewhere (device refusal); nothing to scribble against
	}
	head, _ := g.dom.AS.Load(g.rxRingBase+4, 4)
	if err := g.dom.AS.Store(g.rxRingBase+8, 4, head+core.RxRingSlots+17); err != nil {
		return fmt.Errorf("%w: scribble: %v", ErrInvariant, err)
	}
	del, err := s.tw.DeliverPendingPosted(g.dom, 0)
	if !errors.Is(err, mem.ErrRingCorrupt) {
		return fmt.Errorf("%w: scribbled posted ring delivered with err=%v", ErrInvariant, err)
	}
	if aerr := s.accountPosted(g, del); aerr != nil {
		return aerr
	}
	if s.tw.Dead {
		return fmt.Errorf("%w: posted-ring scribble killed the instance", ErrInvariant)
	}
	// The reset ring re-posts honestly and the queued frames arrive.
	return s.deliverRx(g)
}

// --- data plane ---------------------------------------------------------

// attackTxDescLenScribble: the guest stages an honest frame, then
// scribbles the descriptor's length word with an oversize value. The
// hypervisor must refuse the descriptor before copying a byte (the pooled
// buffer is 2048 bytes; a trusted 0xFFFF would overrun it). On the
// staging ring the refusal resets the ring and costs exactly the staged
// frames; on the posted ring it is contained to the scribbled frame — the
// descriptor is consumed, exactly that frame is lost, and the ring keeps
// servicing.
func attackTxDescLenScribble(s *Soak, g *soakGuest) error {
	if err := s.serviceAll(); err != nil { // start from an empty ring
		return err
	}
	if s.tw.Dead {
		return nil
	}
	if err := s.stageBatch(g, [][]byte{s.txFrame(g, 400)}); err != nil {
		return err
	}
	staged := len(g.stagedQ)
	if staged == 0 {
		return nil
	}
	base, want := g.txRingBase, staged
	if g.txPosted {
		base, want = g.txPostRingBase, 1
	}
	tail, err := g.dom.AS.Load(base+8, 4)
	if err != nil {
		return fmt.Errorf("%w: read tail: %v", ErrInvariant, err)
	}
	slot := (tail - 1) % core.TxRingSlots
	desc := base + 16 + slot*8
	if err := g.dom.AS.Store(desc+4, 4, 0xFFFF); err != nil {
		return fmt.Errorf("%w: scribble: %v", ErrInvariant, err)
	}
	lostBefore := g.ledger.LostTx
	if err := s.serviceAll(); err != nil {
		return err
	}
	if s.tw.Dead {
		return fmt.Errorf("%w: oversize descriptor killed the instance", ErrInvariant)
	}
	if g.ledger.LostTx != lostBefore+want {
		return fmt.Errorf("%w: oversize descriptor lost %d frames, want %d",
			ErrInvariant, g.ledger.LostTx-lostBefore, want)
	}
	return nil
}

// attackPostedHostileDescriptor: the guest posts receive descriptors
// naming memory it does not own — hypervisor code, the dom0 net_device,
// unmapped space, another guest's buffer — plus one too-small honest
// buffer. Every hostile address must be refused by the guest TLB (frame
// lost, violation counted), not a byte outside the guest written, and
// delivery must keep going.
func attackPostedHostileDescriptor(s *Soak, g *soakGuest) error {
	hostile := []core.RxPost{
		{Addr: 0xF1000040, Len: 4096}, // hypervisor code
		{Addr: s.d.Netdev, Len: 2048}, // dom0 net_device
		{Addr: 0x00000040, Len: 2048}, // unmapped
		{Addr: g.arena[0], Len: 8},    // honest address, too small
	}
	var victim *soakGuest
	for _, other := range s.guests {
		if other != g && other.posted {
			victim = other
			break
		}
	}
	if victim != nil {
		hostile = append(hostile, core.RxPost{Addr: victim.arena[0], Len: 2048})
	}
	// Sentinels around everything a hostile address points at.
	hvAddr := s.tw.HVImage.CodeBase
	hvBefore, _ := s.m.HV.HVSpace.Load(hvAddr, 4)
	dom0Before, _ := s.m.Dom0.AS.Load(s.d.Netdev, 4)
	var victimBefore uint32
	if victim != nil {
		victimBefore, _ = victim.dom.AS.Load(victim.arena[0], 4)
	}
	violBefore := s.tw.GuestTLBViolations(g.dom.ID)

	// Older honest descriptors may still sit ahead of the hostile ones;
	// offer enough frames that every hostile descriptor is consumed.
	free, err := s.tw.RxPostedFree(g.dom.ID)
	if err != nil {
		return fmt.Errorf("%w: posted free: %v", ErrInvariant, err)
	}
	ahead := core.RxRingSlots - free
	posted, err := s.tw.PostRxBuffers(g.dom, hostile)
	if err != nil {
		return fmt.Errorf("%w: hostile post refused outright: %v", ErrInvariant, err)
	}
	if err := s.injectRx(g, ahead+posted); err != nil {
		return err
	}
	if s.tw.Dead {
		return fmt.Errorf("%w: hostile descriptors killed the instance", ErrInvariant)
	}
	if err := s.deliverRx(g); err != nil {
		return err
	}

	if v, _ := s.m.HV.HVSpace.Load(hvAddr, 4); v != hvBefore {
		return fmt.Errorf("%w: hostile descriptor wrote hypervisor memory", ErrInvariant)
	}
	if v, _ := s.m.Dom0.AS.Load(s.d.Netdev, 4); v != dom0Before {
		return fmt.Errorf("%w: hostile descriptor wrote dom0 memory", ErrInvariant)
	}
	if victim != nil {
		if v, _ := victim.dom.AS.Load(victim.arena[0], 4); v != victimBefore {
			return fmt.Errorf("%w: hostile descriptor wrote another guest's memory", ErrInvariant)
		}
	}
	// At least the out-of-domain addresses must have been refused by the
	// TLB check (the too-small buffer is length-refused, not TLB-refused).
	// PostRxBuffers stops at a full ring, so only the prefix of hostile
	// descriptors that actually made it into the ring can be refused —
	// index 3 in that prefix is the too-small honest buffer.
	wantViol := uint64(0)
	for i := 0; i < posted; i++ {
		if i != 3 {
			wantViol++
		}
	}
	if got := s.tw.GuestTLBViolations(g.dom.ID) - violBefore; got < wantViol {
		return fmt.Errorf("%w: %d TLB violations recorded, want >= %d", ErrInvariant, got, wantViol)
	}
	return nil
}

// attackPostedTxHostileAddr: the guest posts transmit descriptors naming
// memory it does not own — hypervisor code, the dom0 net_device, unmapped
// space, another guest's buffer. Every hostile address must be refused by
// the guest TLB (frame lost, violation counted), not a byte may leave the
// machine or move outside the guest, and the ring must keep servicing
// honest traffic afterwards.
func attackPostedTxHostileAddr(s *Soak, g *soakGuest) error {
	if err := s.serviceAll(); err != nil { // start from an empty ring
		return err
	}
	if s.tw.Dead {
		return nil
	}
	hostile := []core.TxPost{
		{Addr: s.tw.HVImage.CodeBase, Len: 400}, // hypervisor code
		{Addr: s.d.Netdev, Len: 400},            // dom0 net_device
		{Addr: 0x00000040, Len: 400},            // unmapped
	}
	var victim *soakGuest
	for _, other := range s.guests {
		if other != g && other.txPosted {
			victim = other
			break
		}
	}
	if victim != nil {
		hostile = append(hostile, core.TxPost{Addr: victim.txArena[0], Len: 400})
	}
	hvAddr := s.tw.HVImage.CodeBase
	hvBefore, _ := s.m.HV.HVSpace.Load(hvAddr, 4)
	dom0Before, _ := s.m.Dom0.AS.Load(s.d.Netdev, 4)
	var victimBefore uint32
	if victim != nil {
		victimBefore, _ = victim.dom.AS.Load(victim.txArena[0], 4)
	}
	violBefore := s.tw.GuestTLBViolations(g.dom.ID)
	wireBefore := len(s.wire)

	posted, err := s.tw.PostTxDescriptors(g.dom, hostile)
	if err != nil {
		return fmt.Errorf("%w: hostile post refused outright: %v", ErrInvariant, err)
	}
	g.ledger.OfferedTx += posted
	for i := 0; i < posted; i++ {
		g.stagedQ = append(g.stagedQ, nil) // must drain as a loss, never match the wire
	}
	lostBefore := g.ledger.LostTx
	if err := s.serviceAll(); err != nil {
		return err
	}
	if s.tw.Dead {
		return fmt.Errorf("%w: hostile posted-TX descriptors killed the instance", ErrInvariant)
	}
	if g.ledger.LostTx != lostBefore+posted {
		return fmt.Errorf("%w: hostile descriptors lost %d frames, want %d",
			ErrInvariant, g.ledger.LostTx-lostBefore, posted)
	}
	if len(s.wire) != wireBefore {
		return fmt.Errorf("%w: a hostile posted-TX descriptor reached the wire", ErrInvariant)
	}
	if v, _ := s.m.HV.HVSpace.Load(hvAddr, 4); v != hvBefore {
		return fmt.Errorf("%w: hostile posted TX moved hypervisor memory", ErrInvariant)
	}
	if v, _ := s.m.Dom0.AS.Load(s.d.Netdev, 4); v != dom0Before {
		return fmt.Errorf("%w: hostile posted TX moved dom0 memory", ErrInvariant)
	}
	if victim != nil {
		if v, _ := victim.dom.AS.Load(victim.txArena[0], 4); v != victimBefore {
			return fmt.Errorf("%w: hostile posted TX moved another guest's memory", ErrInvariant)
		}
	}
	if got := s.tw.GuestTLBViolations(g.dom.ID) - violBefore; got < uint64(posted) {
		return fmt.Errorf("%w: %d TLB violations recorded, want >= %d", ErrInvariant, got, posted)
	}
	// The ring keeps servicing honest traffic.
	if err := s.stageBatch(g, [][]byte{s.txFrame(g, 300)}); err != nil {
		return err
	}
	return s.serviceAll()
}

// attackPostedTxShortLen: hostile length words on honest addresses — a
// zero length and an oversize length must each lose exactly that frame
// before a byte moves, and a length shorter than the frame behind it must
// transmit exactly the prefix the descriptor names: the snapshot is the
// contract, not the bytes behind it.
func attackPostedTxShortLen(s *Soak, g *soakGuest) error {
	if err := s.serviceAll(); err != nil { // start from an empty ring
		return err
	}
	if s.tw.Dead {
		return nil
	}
	full := s.txFrame(g, 400)
	const short = 60
	bufs := make([]uint32, 3)
	for i := range bufs {
		bufs[i] = g.txArena[g.txArenaCur]
		g.txArenaCur = (g.txArenaCur + 1) % len(g.txArena)
		if err := g.dom.AS.WriteBytes(bufs[i], full); err != nil {
			return fmt.Errorf("%w: arena write: %v", ErrInvariant, err)
		}
	}
	descs := []core.TxPost{
		{Addr: bufs[0], Len: 0},       // zero length: refused
		{Addr: bufs[1], Len: short},   // short length: the prefix transmits
		{Addr: bufs[2], Len: 1 << 20}, // oversize: refused
	}
	posted, err := s.tw.PostTxDescriptors(g.dom, descs)
	if err != nil || posted != len(descs) {
		return fmt.Errorf("%w: posted %d of %d: %v", ErrInvariant, posted, len(descs), err)
	}
	g.ledger.OfferedTx += posted
	g.stagedQ = append(g.stagedQ, nil, full[:short], nil)
	lostBefore := g.ledger.LostTx
	wireBefore := len(s.wire)
	if err := s.serviceAll(); err != nil {
		return err
	}
	if s.tw.Dead {
		return fmt.Errorf("%w: hostile length words killed the instance", ErrInvariant)
	}
	if g.ledger.LostTx != lostBefore+2 {
		return fmt.Errorf("%w: hostile lengths lost %d frames, want 2", ErrInvariant, g.ledger.LostTx-lostBefore)
	}
	if len(s.wire) != wireBefore+1 {
		return fmt.Errorf("%w: short-length descriptor put %d frames on the wire, want 1",
			ErrInvariant, len(s.wire)-wireBefore)
	}
	return nil
}

// attackPostedTxTOCTOU: the guest posts an honest descriptor, then
// rewrites the descriptor words in the ring slot before the service
// consumes them — the classic stage-then-swap. The service must operate
// on one snapshot of whatever the slot holds at consume time: the
// rewritten hostile address is refused whole (frame lost, nothing leaves,
// not a hypervisor byte moves), never half-validated against the honest
// original.
func attackPostedTxTOCTOU(s *Soak, g *soakGuest) error {
	if err := s.serviceAll(); err != nil { // start from an empty ring
		return err
	}
	if s.tw.Dead {
		return nil
	}
	if err := s.stageBatch(g, [][]byte{s.txFrame(g, 300)}); err != nil {
		return err
	}
	if len(g.stagedQ) == 0 {
		return nil
	}
	tail, err := g.dom.AS.Load(g.txPostRingBase+8, 4)
	if err != nil {
		return fmt.Errorf("%w: read tail: %v", ErrInvariant, err)
	}
	slot := (tail - 1) % core.TxRingSlots
	desc := g.txPostRingBase + 16 + slot*8
	hvAddr := s.tw.HVImage.CodeBase
	hvBefore, _ := s.m.HV.HVSpace.Load(hvAddr, 4)
	if err := g.dom.AS.Store(desc, 4, hvAddr); err != nil {
		return fmt.Errorf("%w: rewrite: %v", ErrInvariant, err)
	}
	lostBefore := g.ledger.LostTx
	wireBefore := len(s.wire)
	if err := s.serviceAll(); err != nil {
		return err
	}
	if s.tw.Dead {
		return fmt.Errorf("%w: rewritten descriptor killed the instance", ErrInvariant)
	}
	if g.ledger.LostTx != lostBefore+1 {
		return fmt.Errorf("%w: rewritten descriptor lost %d frames, want 1",
			ErrInvariant, g.ledger.LostTx-lostBefore)
	}
	if len(s.wire) != wireBefore {
		return fmt.Errorf("%w: rewritten descriptor reached the wire", ErrInvariant)
	}
	if v, _ := s.m.HV.HVSpace.Load(hvAddr, 4); v != hvBefore {
		return fmt.Errorf("%w: rewritten descriptor moved hypervisor memory", ErrInvariant)
	}
	// Honest traffic flows again.
	if err := s.stageBatch(g, [][]byte{s.txFrame(g, 200)}); err != nil {
		return err
	}
	return s.serviceAll()
}

// attackRxCopyQueueIntegrity: a hostile burst larger than the guest's
// share arrives interleaved with another guest's traffic; copy-path
// delivery must hand each guest exactly its own frames, in order
// (cross-guest demux integrity under pressure).
func attackRxCopyQueueIntegrity(s *Soak, g *soakGuest) error {
	other := s.guests[(g.idx+1)%len(s.guests)]
	for i := 0; i < 6; i++ {
		target := g
		if i%2 == 1 && other != g {
			target = other
		}
		if err := s.injectRx(target, 1); err != nil {
			return err
		}
		if s.tw.Dead {
			return nil
		}
	}
	if err := s.deliverRx(g); err != nil {
		return err
	}
	if other != g {
		return s.deliverRx(other)
	}
	return nil
}

// attackSwitchMacSpoof: a guest transmits a frame forging another guest's
// registered source MAC through the inter-guest switch. The switch must
// drop it at the port binding (counted against the forger), the frame must
// reach neither the wire nor the victim's receive queue, and honest
// traffic — the forger's included — must keep flowing. No-op when the
// twin runs without a switch: there is no binding to forge against, and
// the frame would ride the ordinary device path the rest of the soak
// already covers.
//
// Accounting note: a switch-handled frame is consumed from the ring and
// counted in the crossing's per-guest service totals but never appears on
// the wire, so this attack invokes the service directly and settles the
// forger's expectation FIFO by hand instead of going through
// serviceBudget's wire cross-check.
func attackSwitchMacSpoof(s *Soak, g *soakGuest) error {
	if s.tw.VSwitch() == nil {
		return nil
	}
	if err := s.serviceAll(); err != nil { // start from an empty ring
		return err
	}
	if s.tw.Dead {
		return nil
	}
	victim := s.guests[(g.idx+1)%len(s.guests)]
	if victim == g {
		return nil
	}
	payload := make([]byte, 120)
	for i := range payload {
		payload[i] = byte(0xA5 ^ i)
	}
	forged := core.EthernetFrame(victim.mac, victim.mac, 0x0800, payload)
	spoofBefore := s.tw.VswitchSpoofDropped(g.dom.ID)
	wireBefore := len(s.wire)
	pendBefore := s.tw.PendingRx(victim.dom.ID)
	if err := s.stageBatch(g, [][]byte{forged}); err != nil {
		return err
	}
	if s.tw.Dead || len(g.stagedQ) != 1 {
		return nil // abort mid-stage, or the ring refused the frame
	}
	if _, err := s.tw.ServiceRings(s.d, 0); err != nil || s.tw.Dead {
		if errors.Is(err, core.ErrDriverDead) || s.tw.Dead {
			return s.accountAbort()
		}
		return fmt.Errorf("%w: spoof service: %v", ErrInvariant, err)
	}
	// The forged frame was consumed by the crossing but went nowhere; it
	// drains from the expectation FIFO as the forger's loss.
	if n, err := s.pendingTx(g); err != nil || n != 0 {
		return fmt.Errorf("%w: spoofed frame still on the ring (%d pending, err %v)", ErrInvariant, n, err)
	}
	g.stagedQ = g.stagedQ[1:]
	s.loseTx(g, 1)
	if err := s.reconcileWire(nil); err != nil {
		return err
	}
	if got := s.tw.VswitchSpoofDropped(g.dom.ID); got != spoofBefore+1 {
		return fmt.Errorf("%w: spoof drops %d, want %d", ErrInvariant, got, spoofBefore+1)
	}
	if len(s.wire) != wireBefore {
		return fmt.Errorf("%w: forged frame reached the wire", ErrInvariant)
	}
	if got := s.tw.PendingRx(victim.dom.ID); got != pendBefore {
		return fmt.Errorf("%w: forged frame reached the victim's receive queue", ErrInvariant)
	}
	// The forger's honest traffic still flows.
	if err := s.stageBatch(g, [][]byte{s.txFrame(g, 300)}); err != nil {
		return err
	}
	return s.serviceAll()
}

// --- fault containment --------------------------------------------------

// attackWildWriteRecover: the classic §4.5 wild write, followed by the
// full abort-hygiene assertions and a supervised recovery; the revived
// instance must move the attacker's traffic again.
func attackWildWriteRecover(s *Soak, g *soakGuest) error {
	inj, ok := recovery.InjectorByName("wild-write")
	if !ok {
		return fmt.Errorf("%w: wild-write injector missing", ErrInvariant)
	}
	if err := s.trip(inj, g, true); err != nil {
		return err
	}
	if s.tw.Dead {
		return fmt.Errorf("%w: twin dead after supervised recovery", ErrInvariant)
	}
	if err := s.stageBatch(g, [][]byte{s.txFrame(g, 256)}); err != nil {
		return err
	}
	return s.serviceAll()
}

// attackDeadFailFast: between the containment abort and the recovery,
// every driver operation must refuse with ErrDriverDead — no path may
// half-work against a torn-down instance.
func attackDeadFailFast(s *Soak, g *soakGuest) error {
	inj, _ := recovery.InjectorByName("wild-write")
	if err := s.trip(inj, g, false); err != nil {
		return err
	}
	if !s.tw.Dead {
		return nil // trigger transiently refused; the armed fault lands later
	}
	frame := s.txFrame(g, 100)
	s.m.HV.Switch(g.dom)
	if err := s.tw.GuestTransmit(s.d, frame); !errors.Is(err, core.ErrDriverDead) {
		return fmt.Errorf("%w: dead transmit returned %v", ErrInvariant, err)
	}
	if _, err := s.tw.StageTransmitBatch(g.dom, [][]byte{frame}); !errors.Is(err, core.ErrDriverDead) {
		return fmt.Errorf("%w: dead stage returned %v", ErrInvariant, err)
	}
	if _, err := s.tw.ServiceRings(s.d, 0); !errors.Is(err, core.ErrDriverDead) {
		return fmt.Errorf("%w: dead service returned %v", ErrInvariant, err)
	}
	if err := s.tw.HandleIRQ(s.d); !errors.Is(err, core.ErrDriverDead) {
		return fmt.Errorf("%w: dead irq returned %v", ErrInvariant, err)
	}
	if g.posted {
		if _, err := s.tw.PostRxBuffers(g.dom, []core.RxPost{{Addr: g.arena[0], Len: arenaBufBytes}}); !errors.Is(err, core.ErrDriverDead) {
			return fmt.Errorf("%w: dead post returned %v", ErrInvariant, err)
		}
		if _, err := s.tw.DeliverPendingPosted(g.dom, 0); !errors.Is(err, core.ErrDriverDead) {
			return fmt.Errorf("%w: dead posted delivery returned %v", ErrInvariant, err)
		}
	}
	if g.txPosted {
		if _, err := s.tw.PostTxDescriptors(g.dom, []core.TxPost{{Addr: 0, Len: 64}}); !errors.Is(err, core.ErrDriverDead) {
			return fmt.Errorf("%w: dead tx post returned %v", ErrInvariant, err)
		}
	}
	return s.accountAbort()
}

// --- resource exhaustion ------------------------------------------------

// attackPoolLeakHeal: a buggy driver leaks pooled buffers (they stay
// outstanding — conservation must still hold), then faults; the abort's
// outstanding-buffer sweep must return every one of them.
func attackPoolLeakHeal(s *Soak, g *soakGuest) error {
	leaked := s.tw.LeakPooledBuffers(64)
	if free, out, cap := s.tw.PoolFree(), s.tw.PoolOutstanding(), s.tw.PoolCapacity(); free+out != cap {
		return fmt.Errorf("%w: conservation broken mid-leak: %d + %d != %d", ErrInvariant, free, out, cap)
	}
	if out := s.tw.PoolOutstanding(); out < leaked {
		return fmt.Errorf("%w: leaked %d buffers but only %d outstanding", ErrInvariant, leaked, out)
	}
	inj, _ := recovery.InjectorByName("wild-write")
	recovered := s.sup.Recoveries()
	if err := s.trip(inj, g, true); err != nil {
		return err
	}
	if s.sup.Recoveries() == recovered {
		return nil // trigger transiently refused; the armed fault lands later
	}
	if free := s.tw.PoolFree(); free != s.tw.PoolCapacity() {
		return fmt.Errorf("%w: leak not healed by the abort sweep: %d of %d free", ErrInvariant, free, s.tw.PoolCapacity())
	}
	return nil
}

// attackTxRingFlood: the guest offers far more than its ring holds in one
// call; staging must stop exactly at ring capacity (no error, no
// overwrite) and the overflow frames must never be charged to anyone.
func attackTxRingFlood(s *Soak, g *soakGuest) error {
	if g.txPosted {
		return s.floodPostedTx(g)
	}
	flood := make([][]byte, 2*core.TxRingSlots)
	for i := range flood {
		flood[i] = s.txFrame(g, 64)
	}
	room := core.TxRingSlots - len(g.stagedQ)
	staged, err := s.tw.StageTransmitBatch(g.dom, flood)
	if err != nil {
		if errors.Is(err, core.ErrDriverDead) {
			return s.accountAbort()
		}
		return fmt.Errorf("%w: flood stage: %v", ErrInvariant, err)
	}
	if staged != room {
		return fmt.Errorf("%w: flood staged %d frames into %d ring slots", ErrInvariant, staged, room)
	}
	g.ledger.OfferedTx += staged
	g.stagedQ = append(g.stagedQ, flood[:staged]...)
	return s.serviceAll()
}

// attackSchedNoisyNeighbor: one guest floods its transmit ring to
// capacity while a victim stages a single frame behind the flood. Under
// budgeted service crossings — one full scheduler cycle's worth of
// descriptors per crossing — the victim's frame must reach the wire
// within a small bounded number of crossings regardless of the backlog
// imbalance: the scheduler (at unit weights or weighted alike)
// may not starve a backlogged guest behind a noisy neighbor.
func attackSchedNoisyNeighbor(s *Soak, g *soakGuest) error {
	if err := s.serviceAll(); err != nil { // start from an empty ring
		return err
	}
	if s.tw.Dead {
		return nil
	}
	victim := s.guests[(g.idx+1)%len(s.guests)]
	if victim == g {
		return nil
	}
	flood := make([][]byte, core.TxRingSlots)
	for i := range flood {
		flood[i] = s.txFrame(g, 64)
	}
	if err := s.stageBatch(g, flood); err != nil {
		return err
	}
	if s.tw.Dead {
		return nil
	}
	if err := s.stageBatch(victim, [][]byte{s.txFrame(victim, 300)}); err != nil {
		return err
	}
	if s.tw.Dead || len(victim.stagedQ) == 0 {
		return nil // abort mid-stage, or the victim's ring refused the frame
	}
	// One scheduler cycle per crossing: every guest's weight in
	// descriptors (weight 1 apiece when none are set). The budget is
	// per queue, so a sharded victim sees at least its own shard's cycle.
	budget := 0
	for _, other := range s.guests {
		budget += s.tw.GuestWeight(other.dom.ID)
	}
	wireBefore := victim.ledger.WireTx
	for i := 0; i < 4; i++ {
		if err := s.serviceBudget(budget); err != nil {
			return err
		}
		if s.tw.Dead {
			return nil
		}
		if victim.ledger.WireTx > wireBefore {
			return s.serviceAll() // bounded delay held; drain the flood
		}
	}
	return fmt.Errorf("%w: victim starved behind a %d-frame flood for 4 weighted crossings",
		ErrInvariant, len(flood))
}

// --- interface abuse ----------------------------------------------------

// attackOversizeHypercall: hostile sizes at the hypercall boundary — a
// frame larger than the bounce buffer, and zero/oversize length words —
// must be refused before a byte moves, with typed errors and no pool
// mutation.
func attackOversizeHypercall(s *Soak, g *soakGuest) error {
	s.m.HV.Switch(g.dom)
	freeBefore, outBefore := s.tw.PoolFree(), s.tw.PoolOutstanding()
	big := make([]byte, core.GuestBounceBytes+1)
	if err := s.tw.GuestTransmit(s.d, big); !errors.Is(err, core.ErrBounceOverflow) {
		return fmt.Errorf("%w: oversize bounce returned %v", ErrInvariant, err)
	}
	if err := s.tw.GuestTransmitAt(s.d, 0, 0); !errors.Is(err, core.ErrFrameOversize) {
		return fmt.Errorf("%w: zero-length transmit returned %v", ErrInvariant, err)
	}
	if err := s.tw.GuestTransmitAt(s.d, 0, 1<<20); !errors.Is(err, core.ErrFrameOversize) {
		return fmt.Errorf("%w: huge-length transmit returned %v", ErrInvariant, err)
	}
	if s.tw.PoolFree() != freeBefore || s.tw.PoolOutstanding() != outBefore {
		return fmt.Errorf("%w: refused hypercalls moved pool state", ErrInvariant)
	}
	return nil
}

// attackPostedOvercommit: the guest posts more receive buffers than the
// ring holds; the post must stop at capacity without error, and every
// accepted descriptor must still deliver honestly.
func attackPostedOvercommit(s *Soak, g *soakGuest) error {
	free, err := s.tw.RxPostedFree(g.dom.ID)
	if err != nil {
		return fmt.Errorf("%w: posted free: %v", ErrInvariant, err)
	}
	posts := make([]core.RxPost, core.RxRingSlots*2)
	for i := range posts {
		posts[i] = core.RxPost{Addr: g.arena[g.arenaCur], Len: arenaBufBytes}
		g.arenaCur = (g.arenaCur + 1) % len(g.arena)
	}
	posted, err := s.tw.PostRxBuffers(g.dom, posts)
	if err != nil {
		if errors.Is(err, core.ErrDriverDead) {
			return s.accountAbort()
		}
		return fmt.Errorf("%w: overcommit post: %v", ErrInvariant, err)
	}
	if posted != free {
		return fmt.Errorf("%w: overcommit posted %d descriptors into %d free slots", ErrInvariant, posted, free)
	}
	if err := s.injectRx(g, 2); err != nil {
		return err
	}
	if s.tw.Dead {
		return nil
	}
	return s.deliverRx(g)
}

// attackPostedTxDoublePost: the guest posts the same buffer address twice
// in one batch — aliased descriptors naming one physical frame. Each
// descriptor must be accounted exactly once (wire or loss, never neither,
// never twice) and the pin ledger must not wedge on the aliasing.
func attackPostedTxDoublePost(s *Soak, g *soakGuest) error {
	if err := s.serviceAll(); err != nil { // start from an empty ring
		return err
	}
	if s.tw.Dead {
		return nil
	}
	frame := s.txFrame(g, 500)
	buf := g.txArena[g.txArenaCur]
	g.txArenaCur = (g.txArenaCur + 1) % len(g.txArena)
	if err := g.dom.AS.WriteBytes(buf, frame); err != nil {
		return fmt.Errorf("%w: arena write: %v", ErrInvariant, err)
	}
	descs := []core.TxPost{
		{Addr: buf, Len: uint32(len(frame))},
		{Addr: buf, Len: uint32(len(frame))},
	}
	posted, err := s.tw.PostTxDescriptors(g.dom, descs)
	if err != nil {
		if errors.Is(err, core.ErrDriverDead) {
			return s.accountAbort()
		}
		return fmt.Errorf("%w: double post: %v", ErrInvariant, err)
	}
	g.ledger.OfferedTx += posted
	for i := 0; i < posted; i++ {
		g.stagedQ = append(g.stagedQ, frame)
	}
	wireBefore, lostBefore := g.ledger.WireTx, g.ledger.LostTx
	if err := s.serviceAll(); err != nil {
		return err
	}
	if s.tw.Dead {
		return fmt.Errorf("%w: aliased descriptors killed the instance", ErrInvariant)
	}
	if got := (g.ledger.WireTx - wireBefore) + (g.ledger.LostTx - lostBefore); got != posted {
		return fmt.Errorf("%w: double post accounted %d outcomes for %d descriptors", ErrInvariant, got, posted)
	}
	if n := s.tw.PinnedTxPages(); n > 2*s.tw.PoolCapacity() {
		return fmt.Errorf("%w: pin ledger runaway: %d pages pinned", ErrInvariant, n)
	}
	return nil
}

// floodPostedTx: the posted-ring variant of the TX flood — the guest
// offers twice the ring depth in one post; the post must stop exactly at
// ring capacity without error and the overflow descriptors must never be
// charged to anyone.
func (s *Soak) floodPostedTx(g *soakGuest) error {
	free, err := s.tw.TxPostedFree(g.dom.ID)
	if err != nil {
		return fmt.Errorf("%w: tx posted free: %v", ErrInvariant, err)
	}
	flood := make([][]byte, 2*core.TxRingSlots)
	descs := make([]core.TxPost, len(flood))
	for i := range flood {
		flood[i] = s.txFrame(g, 64)
		if i < free {
			buf := g.txArena[g.txArenaCur]
			g.txArenaCur = (g.txArenaCur + 1) % len(g.txArena)
			if err := g.dom.AS.WriteBytes(buf, flood[i]); err != nil {
				return fmt.Errorf("%w: arena write: %v", ErrInvariant, err)
			}
			descs[i] = core.TxPost{Addr: buf, Len: uint32(len(flood[i]))}
		} else {
			descs[i] = core.TxPost{Addr: g.txArena[0], Len: 64} // never posted
		}
	}
	posted, err := s.tw.PostTxDescriptors(g.dom, descs)
	if err != nil {
		if errors.Is(err, core.ErrDriverDead) {
			return s.accountAbort()
		}
		return fmt.Errorf("%w: flood post: %v", ErrInvariant, err)
	}
	if posted != free {
		return fmt.Errorf("%w: flood posted %d descriptors into %d free slots", ErrInvariant, posted, free)
	}
	g.ledger.OfferedTx += posted
	g.stagedQ = append(g.stagedQ, flood[:posted]...)
	return s.serviceAll()
}
