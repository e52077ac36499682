// Package chaos is the seeded long-run soak harness: it drives a
// multi-guest twin with mixed traffic (transmit batches over both the
// staging-copy and the posted-descriptor TX path, hypercall singles,
// receive bursts over both the copy and the posted RX path) while
// concurrently injecting hostile-guest attacks and containment faults, and
// asserts the system invariants continuously — not per feature, but in the
// composed states where isolation bugs actually live:
//
//   - pool conservation: PoolFree + PoolOutstanding == PoolCapacity at
//     every settle point, and zero outstanding after every abort (no
//     sk_buff leak, ever);
//   - exactly-once accounting, per guest: offered == wire + lost + staged
//     on transmit, offered == delivered + lost + queued on receive — every
//     frame the harness offers is eventually on the wire, in a guest
//     buffer, or counted lost exactly once;
//   - no phantoms: every wire frame and every delivered frame is matched
//     byte-exact against the frame the harness offered (unique sequence
//     numbers make the match unambiguous);
//   - abort hygiene: after every containment abort the guest translation
//     caches are empty, the receive queues are drained, and recovery
//     brings the twin back to a state that moves traffic.
//
// Everything is deterministic: one seed fixes the whole run (traffic,
// sizes, attacks, faults), and the report carries a digest over every
// observable so two runs with the same seed are byte-comparable.
//
// The hostile cases are organized as an explicit attack-surface matrix
// (attacks.go): dimension × backend × rx-mode × tx-mode, registered like
// the conformance behavior table so coverage is enumerable and zero-skip.
package chaos

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math/rand"

	"twindrivers/internal/core"
	"twindrivers/internal/drivermodel"
	"twindrivers/internal/mem"
	"twindrivers/internal/recovery"
	"twindrivers/internal/telemetry"
	"twindrivers/internal/xen"

	// Both backends register with the driver-model registry on import:
	// the soak resolves Config.Backend there and the matrix enumerates
	// the registry, so the chaos package must see every model.
	_ "twindrivers/internal/e1000"
	_ "twindrivers/internal/mqnic"
	_ "twindrivers/internal/rtl8139"
)

// ErrInvariant reports that the soak caught the system violating one of
// its invariants. Every violation wraps it.
var ErrInvariant = errors.New("chaos: invariant violated")

// RxMode selects a guest's receive path.
type RxMode string

// The two receive paths every guest-visible behavior must hold under.
const (
	ModeCopy   RxMode = "copy"
	ModePosted RxMode = "posted"
)

// TxMode selects a guest's transmit path.
type TxMode string

// The two transmit paths every guest-visible behavior must hold under.
const (
	TxCopy   TxMode = "copy"
	TxPosted TxMode = "posted"
)

// Config parameterises one soak run.
type Config struct {
	// Seed fixes the run. Same seed, same config: same report.
	Seed uint64

	// Backend names the NIC driver model ("e1000", "rtl8139").
	Backend string

	// Guests is the number of guest domains (default 4).
	Guests int

	// Steps is the number of scheduler steps (default 200).
	Steps int

	// Posted selects each guest's receive mode; nil means alternating
	// (guest 0 copy, guest 1 posted, ...). Length must equal Guests.
	Posted []bool

	// PostedTX selects each guest's transmit mode: true posts (addr, len)
	// scatter/gather descriptors resolved through the guest TLB, false
	// stages copies. nil means alternating, offset from Posted so the
	// default four-guest soak covers all four rx×tx mode combinations
	// (guest 0 posts TX only, guest 1 posts RX only, ...). Length must
	// equal Guests.
	PostedTX []bool

	// Hostile enables the attack-surface steps.
	Hostile bool

	// Faults enables containment-fault → recovery steps.
	Faults bool

	// Watchdog is the per-invocation instruction budget (default 200k,
	// small enough that a soak's runaway-loop faults resolve quickly).
	Watchdog uint64

	// PoolSize overrides the twin's buffer pool size (0 = core default).
	PoolSize int

	// Queues requests the twin's service-queue count (0 = the model's
	// native count, clamped to [1, Model.Queues] like TwinConfig).
	Queues int

	// Weights sets per-guest deficit-round-robin weights (applied
	// cyclically over the guest list, see core.TwinConfig.Weights); nil
	// weighs every guest 1 (plain round-robin). Every ledger and
	// invariant is weight-agnostic — weights change service order and
	// share, never whether a frame is accounted.
	Weights []int

	// Switch enables the inter-guest L2 switch on the soak's twin. The
	// harness's ordinary traffic is unswitchable (unique unregistered
	// source MACs, external destinations), so it still reaches the
	// device; the switch-mac-spoof attack needs the surface present.
	Switch bool

	// Trace attaches a telemetry tracer to the soak's twin; the report
	// then carries the tracer's event-stream digest, seed-deterministic
	// like Digest.
	Trace *telemetry.Tracer
}

func (c *Config) defaults() error {
	if c.Backend == "" {
		c.Backend = "e1000"
	}
	if c.Guests == 0 {
		c.Guests = 4
	}
	if c.Steps == 0 {
		c.Steps = 200
	}
	if c.Watchdog == 0 {
		c.Watchdog = 200_000
	}
	if c.Posted == nil {
		c.Posted = make([]bool, c.Guests)
		for g := range c.Posted {
			c.Posted[g] = g%2 == 1
		}
	}
	if len(c.Posted) != c.Guests {
		return fmt.Errorf("chaos: Posted has %d entries for %d guests", len(c.Posted), c.Guests)
	}
	if c.PostedTX == nil {
		c.PostedTX = make([]bool, c.Guests)
		for g := range c.PostedTX {
			c.PostedTX[g] = g%2 == 0
		}
	}
	if len(c.PostedTX) != c.Guests {
		return fmt.Errorf("chaos: PostedTX has %d entries for %d guests", len(c.PostedTX), c.Guests)
	}
	return nil
}

// GuestLedger is one guest's exactly-once accounting. At the end of a run
// (after the final drain) OfferedTx == WireTx + LostTx and
// OfferedRx == DeliveredRx + LostRx, exactly.
type GuestLedger struct {
	Posted      bool
	PostedTx    bool
	OfferedTx   int
	WireTx      int
	LostTx      int
	OfferedRx   int
	DeliveredRx int
	LostRx      int
}

// AttackCount records how often one attack ran.
type AttackCount struct {
	Name string
	Runs int
}

// Report is a soak run's observable outcome. All fields are scalars and
// slices so two reports compare with reflect.DeepEqual; Digest
// additionally hashes every frame byte that crossed an interface.
type Report struct {
	Backend    string
	Seed       uint64
	Steps      int
	Guests     []GuestLedger
	Attacks    []AttackCount
	Faults     int
	Recoveries int
	Aborts     int
	Digest     string

	// TraceDigest is the telemetry event-stream digest when the run was
	// traced (Config.Trace), empty otherwise.
	TraceDigest string
}

// soakGuest is the harness's shadow of one guest: its identity, its
// expected-wire and expected-delivery FIFOs, and its ledger.
type soakGuest struct {
	idx      int
	dom      *xen.Domain
	mac      [6]byte // registered RX demux route
	posted   bool
	txPosted bool
	ledger   GuestLedger

	txRingBase     uint32
	rxRingBase     uint32
	txPostRingBase uint32

	// stagedQ mirrors the guest's transmit ring — the staging-copy ring
	// or, for a posted-TX guest, the posted-descriptor ring: frames
	// offered and not yet serviced onto the wire, in ring order. A nil
	// entry is a hostile descriptor an attack posted: it can never match
	// a wire frame and must drain as a loss.
	stagedQ [][]byte

	// expRx mirrors the twin's receive queue for this guest: frames
	// injected (and accepted by the device) but not yet delivered or
	// lost, in queue order.
	expRx [][]byte

	// arena is the rotating posted-receive buffer pool (posted mode).
	// Twice the ring depth, so a buffer is never re-posted while an
	// undelivered descriptor still names it.
	arena    []uint32
	arenaCur int

	// txArena is the rotating posted-transmit buffer pool (posted-TX
	// mode), sized the same way: a buffer is never rewritten while an
	// unserviced descriptor still names it.
	txArena    []uint32
	txArenaCur int

	// postedLostSeen/pendingLost reconcile the twin's lifetime
	// PostedTxLost counter into the ledger: after each service the delta
	// is the budget of stagedQ frames the sweep consumed and refused
	// (hostile address, hostile length, busy pool) — the wire reconcile
	// drains each into LostTx exactly once.
	postedLostSeen uint64
	pendingLost    int
}

func (g *soakGuest) mode() RxMode {
	if g.posted {
		return ModePosted
	}
	return ModeCopy
}

func (g *soakGuest) txMode() TxMode {
	if g.txPosted {
		return TxPosted
	}
	return TxCopy
}

// Soak is one running harness instance.
type Soak struct {
	cfg    Config
	m      *core.Machine
	tw     *core.Twin
	d      *core.NICDev
	sup    *recovery.Supervisor
	rng    *rand.Rand
	guests []*soakGuest

	wire       [][]byte // every frame the device put on the wire
	wireCursor int      // reconciled prefix of wire

	digest  hash.Hash
	attacks map[string]int
	aborts  int
	seq     uint32

	// tamper makes the harness suppress exactly one Lost increment — the
	// deliberate accounting bug the teeth test injects to prove the
	// invariant checks actually bite.
	tamper   bool
	tampered bool
}

const (
	arenaBufBytes = 2048
	arenaBufs     = 2 * core.RxRingSlots
	txArenaBufs   = 2 * core.TxRingSlots
)

// New builds a soak over a fresh twin machine.
func New(cfg Config) (*Soak, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	model, ok := drivermodel.Get(cfg.Backend)
	if !ok {
		return nil, fmt.Errorf("chaos: unknown backend %q (have %v)", cfg.Backend, drivermodel.Names())
	}
	m, tw, err := core.NewTwinMachineModel(1, cfg.Guests, model, core.TwinConfig{
		Watchdog: cfg.Watchdog,
		PoolSize: cfg.PoolSize,
		Queues:   cfg.Queues,
		Weights:  cfg.Weights,
		Switch:   cfg.Switch,
		Trace:    cfg.Trace,
	})
	if err != nil {
		return nil, err
	}
	s := &Soak{
		cfg:     cfg,
		m:       m,
		tw:      tw,
		d:       m.Devs[0],
		rng:     rand.New(rand.NewSource(int64(cfg.Seed))),
		digest:  sha256.New(),
		attacks: make(map[string]int),
	}
	// Frequent injected faults must read as distinct transients, not a
	// flapping driver: a one-cycle escalation window never trips, and the
	// lifetime budget comfortably covers one recovery per step.
	s.sup = recovery.New(m, tw, recovery.Policy{
		MaxFaults:     3,
		Window:        1,
		MaxRecoveries: cfg.Steps + 16,
	})
	if sess := telemetry.ActiveSession(); sess != nil {
		s.sup.PublishMetrics(sess.Registry)
	}
	s.d.Dev.SetOnTransmit(func(pkt []byte) {
		s.wire = append(s.wire, append([]byte(nil), pkt...))
	})

	ringBases := make(map[mem.Owner][3]uint32)
	for _, ev := range m.Config.Events {
		b := ringBases[ev.Dom]
		switch ev.Op {
		case core.OpRing:
			b[0] = ev.Addr
		case core.OpRxRing:
			b[1] = ev.Addr
		case core.OpTxRing:
			b[2] = ev.Addr
		default:
			continue
		}
		ringBases[ev.Dom] = b
	}
	for i, dom := range m.Guests {
		g := &soakGuest{
			idx:            i,
			dom:            dom,
			mac:            [6]byte{0x02, 0x52, 0x58, 0, 0, byte(i)},
			posted:         cfg.Posted[i],
			txPosted:       cfg.PostedTX[i],
			txRingBase:     ringBases[dom.ID][0],
			rxRingBase:     ringBases[dom.ID][1],
			txPostRingBase: ringBases[dom.ID][2],
		}
		g.ledger.Posted = g.posted
		g.ledger.PostedTx = g.txPosted
		if g.txRingBase == 0 || g.rxRingBase == 0 || g.txPostRingBase == 0 {
			return nil, fmt.Errorf("chaos: guest %d ring bases not in config log", i)
		}
		tw.RegisterGuestMAC(g.mac, dom.ID)
		if g.posted {
			for b := 0; b < arenaBufs; b++ {
				g.arena = append(g.arena, m.HV.AllocHeap(dom, arenaBufBytes))
			}
		}
		if g.txPosted {
			for b := 0; b < txArenaBufs; b++ {
				g.txArena = append(g.txArena, m.HV.AllocHeap(dom, arenaBufBytes))
			}
		}
		s.guests = append(s.guests, g)
	}
	return s, nil
}

// Run executes the configured soak and returns its report. A non-nil
// error wrapping ErrInvariant means the system (or a tampered harness)
// broke an invariant; the report carries everything observed up to that
// point.
func Run(cfg Config) (*Report, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// Run drives the step schedule, drains everything at the end, and checks
// the final exactly-once equations.
func (s *Soak) Run() (*Report, error) {
	for i := 0; i < s.cfg.Steps; i++ {
		if err := s.step(); err != nil {
			return s.report(), err
		}
		if err := s.settle(); err != nil {
			return s.report(), fmt.Errorf("step %d: %w", i, err)
		}
	}
	if err := s.drain(); err != nil {
		return s.report(), err
	}
	rep := s.report()
	for i, g := range s.guests {
		l := g.ledger
		if l.OfferedTx != l.WireTx+l.LostTx {
			return rep, fmt.Errorf("%w: guest %d final tx: offered %d != wire %d + lost %d",
				ErrInvariant, i, l.OfferedTx, l.WireTx, l.LostTx)
		}
		if l.OfferedRx != l.DeliveredRx+l.LostRx {
			return rep, fmt.Errorf("%w: guest %d final rx: offered %d != delivered %d + lost %d",
				ErrInvariant, i, l.OfferedRx, l.DeliveredRx, l.LostRx)
		}
	}
	return rep, nil
}

// step runs one weighted scheduler step against one random guest.
func (s *Soak) step() error {
	g := s.guests[s.rng.Intn(len(s.guests))]
	r := s.rng.Float64()
	switch {
	case r < 0.30:
		return s.stepTxBatch(g)
	case r < 0.40:
		return s.stepTxSingle(g)
	case r < 0.75:
		return s.stepRx(g)
	case r < 0.90 && s.cfg.Hostile:
		return s.stepAttack(g)
	case r >= 0.90 && s.cfg.Faults:
		return s.stepFault(g)
	default:
		return s.stepTxBatch(g)
	}
}

// --- frame construction -------------------------------------------------

var batchSizes = []int{1, 4, 8, 16}

// txFrame builds a uniquely-numbered guest transmit frame. The source MAC
// carries the guest index in its last byte so wire frames attribute back
// to the staging guest without relying on global ordering.
func (s *Soak) txFrame(g *soakGuest, size int) []byte {
	s.seq++
	src := [6]byte{0x02, 0x43, 0x48, byte(s.seq >> 8), byte(s.seq), byte(g.idx)}
	payload := make([]byte, size)
	binary.BigEndian.PutUint32(payload, s.seq)
	for i := 4; i < len(payload); i++ {
		payload[i] = byte(s.seq + uint32(i))
	}
	return core.EthernetFrame([6]byte{0x00, 0x10, 0x20, 0x30, 0x40, 0x50}, src, 0x0800, payload)
}

// rxFrame builds a uniquely-numbered frame destined for a guest's
// registered MAC. The source MAC is fixed per guest, so each guest's
// receive traffic is a single flow: a multi-queue device's RSS steering
// keeps one flow on one queue, preserving the per-guest delivery order
// the expectation FIFO asserts. Uniqueness lives in the payload.
func (s *Soak) rxFrame(g *soakGuest) []byte {
	s.seq++
	src := [6]byte{0x02, 0x57, 0x41, 0, 0, byte(g.idx)}
	payload := make([]byte, 4+s.rng.Intn(1396))
	binary.BigEndian.PutUint32(payload, s.seq)
	for i := 4; i < len(payload); i++ {
		payload[i] = byte(s.seq ^ uint32(i))
	}
	return core.EthernetFrame(g.mac, src, 0x0800, payload)
}

// --- loss choke points (the teeth test tampers here) --------------------

func (s *Soak) loseTx(g *soakGuest, n int) {
	if s.tamper && !s.tampered && n > 0 {
		s.tampered = true
		n--
	}
	g.ledger.LostTx += n
	fmt.Fprintf(s.digest, "losttx %d %d\n", g.idx, n)
}

func (s *Soak) loseRx(g *soakGuest, n int) {
	if s.tamper && !s.tampered && n > 0 {
		s.tampered = true
		n--
	}
	g.ledger.LostRx += n
	fmt.Fprintf(s.digest, "lostrx %d %d\n", g.idx, n)
}

// --- transmit -----------------------------------------------------------

// stageBatch offers frames on a guest's configured transmit path — the
// staging-copy ring or the posted-descriptor ring — and records them
// offered. Frames the full ring refuses are never offered.
func (s *Soak) stageBatch(g *soakGuest, frames [][]byte) error {
	if g.txPosted {
		return s.postTxBatch(g, frames)
	}
	staged, err := s.tw.StageTransmitBatch(g.dom, frames)
	if err != nil {
		if errors.Is(err, core.ErrDriverDead) {
			return s.accountAbort()
		}
		return fmt.Errorf("%w: guest %d stage: %v", ErrInvariant, g.idx, err)
	}
	g.ledger.OfferedTx += staged
	g.stagedQ = append(g.stagedQ, frames[:staged]...)
	return nil
}

// postTxBatch writes frames into the guest's rotating transmit arena and
// posts their (addr, len) descriptors. The frames stay in guest memory —
// the service crossing resolves the descriptors through the guest TLB and
// hands the pages to the device. The arena cursor advances only for
// frames that will actually post, so a buffer a pending descriptor still
// names is never rewritten.
func (s *Soak) postTxBatch(g *soakGuest, frames [][]byte) error {
	free, err := s.tw.TxPostedFree(g.dom.ID)
	if err != nil {
		return fmt.Errorf("%w: guest %d posted free: %v", ErrInvariant, g.idx, err)
	}
	n := len(frames)
	if n > free {
		n = free
	}
	descs := make([]core.TxPost, n)
	for i, f := range frames[:n] {
		buf := g.txArena[g.txArenaCur]
		g.txArenaCur = (g.txArenaCur + 1) % len(g.txArena)
		if err := g.dom.AS.WriteBytes(buf, f); err != nil {
			return fmt.Errorf("%w: guest %d arena write: %v", ErrInvariant, g.idx, err)
		}
		descs[i] = core.TxPost{Addr: buf, Len: uint32(len(f))}
	}
	posted, err := s.tw.PostTxDescriptors(g.dom, descs)
	if err != nil {
		if errors.Is(err, core.ErrDriverDead) {
			return s.accountAbort()
		}
		return fmt.Errorf("%w: guest %d post: %v", ErrInvariant, g.idx, err)
	}
	if posted != n {
		return fmt.Errorf("%w: guest %d posted %d of %d descriptors into %d free slots",
			ErrInvariant, g.idx, posted, n, free)
	}
	g.ledger.OfferedTx += posted
	g.stagedQ = append(g.stagedQ, frames[:posted]...)
	return nil
}

func (s *Soak) stepTxBatch(g *soakGuest) error {
	n := batchSizes[s.rng.Intn(len(batchSizes))]
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = s.txFrame(g, 46+s.rng.Intn(1369))
	}
	if err := s.stageBatch(g, frames); err != nil {
		return err
	}
	if s.rng.Intn(2) == 0 {
		return s.serviceAll()
	}
	return nil
}

// stepTxSingle drives the synchronous hypercall transmit path: the frame
// is on the wire (or accounted lost) before the call returns.
func (s *Soak) stepTxSingle(g *soakGuest) error {
	frame := s.txFrame(g, 46+s.rng.Intn(1369))
	s.m.HV.Switch(g.dom)
	g.ledger.OfferedTx++
	before := len(s.wire)
	err := s.tw.GuestTransmit(s.d, frame)
	switch {
	case err == nil:
		if len(s.wire) != before+1 || !bytes.Equal(s.wire[before], frame) {
			return fmt.Errorf("%w: guest %d single transmit not byte-exact on the wire", ErrInvariant, g.idx)
		}
		s.wireCursor = len(s.wire)
		g.ledger.WireTx++
		s.digest.Write(frame)
	case errors.Is(err, core.ErrTxBusy):
		s.loseTx(g, 1) // transiently refused: the frame is gone, count it
	case errors.Is(err, core.ErrDriverDead):
		s.loseTx(g, 1) // the trigger frame died with the instance
		return s.accountAbort()
	default:
		return fmt.Errorf("%w: guest %d single transmit: %v", ErrInvariant, g.idx, err)
	}
	return nil
}

// serviceAll drains every guest's transmit ring through one service
// crossing and reconciles the wire against the staged ledgers: every wire
// frame must be some guest's oldest staged frame (byte-exact), and a ring
// the service reset (hostile header, oversize descriptor) must cost
// exactly its remaining staged frames.
func (s *Soak) serviceAll() error { return s.serviceBudget(0) }

// serviceBudget is serviceAll under a per-crossing descriptor budget
// (0 = drain): the reconcile and the ledger sync are budget-agnostic —
// whatever the crossing consumed is matched, whatever it left rides the
// rings into the next crossing.
func (s *Soak) serviceBudget(budget int) error {
	sent, err := s.tw.ServiceRings(s.d, budget)
	// Posted-TX losses before the wire reconcile: the sweep consumed the
	// refused descriptors in ring order, so the reconcile needs each
	// guest's loss budget on hand to skip them as it matches wire frames.
	for _, g := range s.guests {
		now := s.tw.PostedTxLost(g.dom.ID)
		g.pendingLost += int(now - g.postedLostSeen)
		g.postedLostSeen = now
	}
	if rerr := s.reconcileWire(sent); rerr != nil {
		return rerr
	}
	if s.tw.Dead {
		return s.accountAbort()
	}
	// Trailing losses: descriptors consumed-and-refused after the last
	// wire frame are still at the front of the expectation FIFO.
	for _, g := range s.guests {
		for g.pendingLost > 0 {
			if len(g.stagedQ) == 0 {
				return fmt.Errorf("%w: guest %d lost more posted frames than it offered", ErrInvariant, g.idx)
			}
			g.stagedQ = g.stagedQ[1:]
			s.loseTx(g, 1)
			g.pendingLost--
		}
	}
	if err != nil && !errors.Is(err, mem.ErrRingCorrupt) &&
		!errors.Is(err, core.ErrFrameOversize) && !errors.Is(err, core.ErrTxBusy) {
		return fmt.Errorf("%w: service: %v", ErrInvariant, err)
	}
	// Ring-by-ring ledger sync: a serviced ring holds exactly the frames
	// the wire did not take or lose; a reset ring (error return) holds
	// none, and its remainder is lost — counted here, exactly once.
	for _, g := range s.guests {
		n, serr := s.pendingTx(g)
		if serr != nil {
			return fmt.Errorf("%w: guest %d staged introspection: %v", ErrInvariant, g.idx, serr)
		}
		switch {
		case n == len(g.stagedQ):
		case n == 0 && err != nil:
			s.loseTx(g, len(g.stagedQ))
			g.stagedQ = nil
		default:
			return fmt.Errorf("%w: guest %d ring holds %d frames, ledger %d (service err %v)",
				ErrInvariant, g.idx, n, len(g.stagedQ), err)
		}
	}
	return nil
}

// pendingTx reports how many transmit frames a guest has offered and the
// sweep not yet consumed, across both rings (the staging-copy ring and
// the posted-descriptor ring — a guest's traffic lives on exactly one of
// them, per its tx mode).
func (s *Soak) pendingTx(g *soakGuest) (int, error) {
	n, err := s.tw.StagedTx(g.dom.ID)
	if err != nil {
		return 0, err
	}
	p, err := s.tw.PostedTxPending(g.dom.ID)
	if err != nil {
		return 0, err
	}
	return n + p, nil
}

// reconcileWire consumes unreconciled wire frames, attributing each to
// its staging guest (source-MAC tag) and matching it byte-exact against
// that guest's oldest staged frame. A mismatch is tolerated only against
// the guest's posted-loss budget: the sweep consumed those frames from
// the ring in order and refused them, so they drain from the FIFO as
// losses until the wire frame matches. sent, when non-nil, is
// cross-checked per guest.
func (s *Soak) reconcileWire(sent map[mem.Owner]int) error {
	matched := make(map[mem.Owner]int)
	for ; s.wireCursor < len(s.wire); s.wireCursor++ {
		frame := s.wire[s.wireCursor]
		if len(frame) < 12 {
			return fmt.Errorf("%w: runt frame on the wire (%d bytes)", ErrInvariant, len(frame))
		}
		idx := int(frame[11])
		if frame[6] != 0x02 || frame[7] != 0x43 || idx >= len(s.guests) {
			return fmt.Errorf("%w: phantom wire frame (unattributable source %x)", ErrInvariant, frame[6:12])
		}
		g := s.guests[idx]
		for g.pendingLost > 0 && len(g.stagedQ) > 0 && !bytes.Equal(g.stagedQ[0], frame) {
			g.stagedQ = g.stagedQ[1:]
			s.loseTx(g, 1)
			g.pendingLost--
		}
		if len(g.stagedQ) == 0 || !bytes.Equal(g.stagedQ[0], frame) {
			return fmt.Errorf("%w: wire frame is not guest %d's oldest staged frame", ErrInvariant, idx)
		}
		g.stagedQ = g.stagedQ[1:]
		g.ledger.WireTx++
		matched[g.dom.ID]++
		s.digest.Write(frame)
	}
	for dom, n := range sent {
		if matched[dom] != n {
			return fmt.Errorf("%w: service reported %d frames for domain %d, wire shows %d",
				ErrInvariant, n, dom, matched[dom])
		}
	}
	return nil
}

// --- receive ------------------------------------------------------------

// injectRx offers n frames to the device for one guest and services the
// interrupt. Frames the device refuses (no buffer space) are never
// offered.
func (s *Soak) injectRx(g *soakGuest, n int) error {
	for i := 0; i < n; i++ {
		frame := s.rxFrame(g)
		if !s.d.Dev.Inject(frame) {
			break
		}
		g.ledger.OfferedRx++
		g.expRx = append(g.expRx, frame)
		// Service every few frames so the device's receive ring never
		// overflows mid-burst.
		if i%8 == 7 {
			if err := s.handleIRQ(); err != nil || s.tw.Dead {
				return err
			}
		}
	}
	return s.handleIRQ()
}

func (s *Soak) handleIRQ() error {
	err := s.tw.HandleIRQ(s.d)
	if s.tw.Dead {
		return s.accountAbort()
	}
	if err != nil {
		return fmt.Errorf("%w: irq: %v", ErrInvariant, err)
	}
	return nil
}

func (s *Soak) stepRx(g *soakGuest) error {
	n := 1 + s.rng.Intn(8)
	if err := s.injectRx(g, n); err != nil {
		return err
	}
	if s.rng.Intn(4) != 0 { // usually deliver now; sometimes let it queue
		return s.deliverRx(g)
	}
	return nil
}

// deliverRx drains a guest's receive queue through its configured path,
// matching every delivered frame byte-exact against the expectation FIFO
// and counting every loss exactly once.
func (s *Soak) deliverRx(g *soakGuest) error {
	if g.posted {
		return s.deliverPosted(g)
	}
	return s.deliverCopy(g)
}

func (s *Soak) deliverCopy(g *soakGuest) error {
	for s.tw.PendingRx(g.dom.ID) > 0 {
		out, err := s.tw.DeliverPendingBatch(g.dom, 0)
		for _, pkt := range out {
			if len(g.expRx) == 0 || !bytes.Equal(pkt, g.expRx[0]) {
				return fmt.Errorf("%w: guest %d phantom copy delivery", ErrInvariant, g.idx)
			}
			g.expRx = g.expRx[1:]
			g.ledger.DeliveredRx++
			s.digest.Write(pkt)
		}
		if err != nil {
			var de *core.DeliveryError
			if !errors.As(err, &de) {
				return fmt.Errorf("%w: guest %d copy delivery: %v", ErrInvariant, g.idx, err)
			}
			if de.Dropped > len(g.expRx) {
				return fmt.Errorf("%w: guest %d dropped %d of %d expected", ErrInvariant, g.idx, de.Dropped, len(g.expRx))
			}
			g.expRx = g.expRx[de.Dropped:]
			s.loseRx(g, de.Dropped)
		}
	}
	return nil
}

func (s *Soak) deliverPosted(g *soakGuest) error {
	for round := 0; s.tw.PendingRx(g.dom.ID) > 0; round++ {
		if round >= 2*core.RxRingSlots {
			return fmt.Errorf("%w: guest %d posted delivery not converging", ErrInvariant, g.idx)
		}
		// Keep the ring stocked with honest buffers from the rotating
		// arena — enough for everything still queued.
		if free, err := s.tw.RxPostedFree(g.dom.ID); err == nil && free > 0 {
			want := s.tw.PendingRx(g.dom.ID)
			if want > free {
				want = free
			}
			posts := make([]core.RxPost, want)
			for i := range posts {
				posts[i] = core.RxPost{Addr: g.arena[g.arenaCur], Len: arenaBufBytes}
				g.arenaCur = (g.arenaCur + 1) % len(g.arena)
			}
			if _, err := s.tw.PostRxBuffers(g.dom, posts); err != nil && !errors.Is(err, mem.ErrRingCorrupt) {
				if errors.Is(err, core.ErrDriverDead) {
					return s.accountAbort()
				}
				return fmt.Errorf("%w: guest %d post: %v", ErrInvariant, g.idx, err)
			}
		}
		del, err := s.tw.DeliverPendingPosted(g.dom, 0)
		if err != nil && errors.Is(err, core.ErrDriverDead) {
			return s.accountAbort()
		}
		if aerr := s.accountPosted(g, del); aerr != nil {
			return aerr
		}
		if err != nil && !errors.Is(err, mem.ErrRingCorrupt) {
			return fmt.Errorf("%w: guest %d posted delivery: %v", ErrInvariant, g.idx, err)
		}
		// A corrupt-header round reset the ring; the next round re-posts
		// honest buffers and the remainder drains.
	}
	return nil
}

// accountPosted settles one posted delivery against the expectation FIFO.
// The delivery consumed len(Frames)+Lost queued frames in order; the
// delivered ones must appear as an in-order byte-exact subsequence of that
// window (unique payloads make the match unambiguous), and the gaps are
// the lost ones.
func (s *Soak) accountPosted(g *soakGuest, del *core.RxDelivery) error {
	if del == nil {
		return nil
	}
	consumed := len(del.Frames) + del.Lost
	if consumed > len(g.expRx) {
		return fmt.Errorf("%w: guest %d posted delivery consumed %d frames, only %d expected",
			ErrInvariant, g.idx, consumed, len(g.expRx))
	}
	window := g.expRx[:consumed]
	wi := 0
	for _, fr := range del.Frames {
		data, err := g.dom.AS.ReadBytes(fr.Addr, fr.Len)
		if err != nil {
			return fmt.Errorf("%w: guest %d delivered frame unreadable at %#x: %v", ErrInvariant, g.idx, fr.Addr, err)
		}
		found := false
		for wi < len(window) {
			match := bytes.Equal(window[wi], data)
			wi++
			if match {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%w: guest %d phantom posted delivery", ErrInvariant, g.idx)
		}
		g.ledger.DeliveredRx++
		s.digest.Write(data)
	}
	g.expRx = g.expRx[consumed:]
	s.loseRx(g, del.Lost)
	return nil
}

// --- attacks and faults -------------------------------------------------

func (s *Soak) stepAttack(g *soakGuest) error {
	eligible := attacksFor(g.mode(), g.txMode())
	if len(eligible) == 0 {
		return nil
	}
	a := eligible[s.rng.Intn(len(eligible))]
	s.attacks[a.Name]++
	fmt.Fprintf(s.digest, "attack %s %d\n", a.Name, g.idx)
	if err := a.Run(s, g); err != nil {
		return fmt.Errorf("attack %s on guest %d: %w", a.Name, g.idx, err)
	}
	return nil
}

// soakInjectors picks the fault repertoire: the wild write is
// backend-generic; the runaway loop and the corrupt function pointer
// scribble e1000 adapter layout and only run there.
func (s *Soak) soakInjectors() []recovery.Injector {
	all := recovery.Injectors()
	if s.cfg.Backend == "e1000" {
		return all
	}
	out := all[:0:0]
	for _, inj := range all {
		if inj.Name == "wild-write" {
			out = append(out, inj)
		}
	}
	return out
}

func (s *Soak) stepFault(g *soakGuest) error {
	injs := s.soakInjectors()
	inj := injs[s.rng.Intn(len(injs))]
	fmt.Fprintf(s.digest, "fault %s %d\n", inj.Name, g.idx)
	return s.trip(inj, g, true)
}

// trip injects one driver bug and drives the traffic that trips it. When
// account is true the resulting abort is settled and recovered from;
// attacks that first probe the dead instance pass false and settle
// themselves. An armed bug whose trigger was transiently refused (busy
// pool) is left armed — a later invocation faults and is settled wherever
// it lands.
func (s *Soak) trip(inj recovery.Injector, g *soakGuest, account bool) error {
	if err := inj.Inject(s.m, s.tw, s.d); err != nil {
		return fmt.Errorf("%w: inject %s: %v", ErrInvariant, inj.Name, err)
	}
	if inj.TriggerOnRx {
		frame := s.rxFrame(g)
		if s.d.Dev.Inject(frame) {
			g.ledger.OfferedRx++
			g.expRx = append(g.expRx, frame)
		}
		err := s.tw.HandleIRQ(s.d)
		if !s.tw.Dead && err != nil {
			return fmt.Errorf("%w: trigger irq: %v", ErrInvariant, err)
		}
	} else {
		s.m.HV.Switch(g.dom)
		g.ledger.OfferedTx++
		err := s.tw.GuestTransmit(s.d, s.txFrame(g, 200))
		if err == nil {
			// The scribble didn't reach this path; the wire frame is real.
			if rerr := s.reconcileSingle(g); rerr != nil {
				return rerr
			}
		} else if !s.tw.Dead && !errors.Is(err, core.ErrTxBusy) {
			return fmt.Errorf("%w: trigger transmit: %v", ErrInvariant, err)
		} else {
			s.loseTx(g, 1)
		}
	}
	if s.tw.Dead && account {
		return s.accountAbort()
	}
	return nil
}

// reconcileSingle consumes the wire frame a successful synchronous
// transmit just produced.
func (s *Soak) reconcileSingle(g *soakGuest) error {
	if s.wireCursor >= len(s.wire) {
		return fmt.Errorf("%w: guest %d transmit succeeded without a wire frame", ErrInvariant, g.idx)
	}
	s.wireCursor = len(s.wire)
	g.ledger.WireTx++
	s.digest.Write(s.wire[len(s.wire)-1])
	return nil
}

// accountAbort settles a containment abort: the wire is reconciled up to
// the fault, every staged and queued frame is counted lost exactly once,
// the teardown's hygiene is asserted (pool fully reclaimed, translation
// caches shot down, queues drained), the loss accounting is cross-checked
// against the twin's own AbortStats, and the supervisor recovers the
// instance.
func (s *Soak) accountAbort() error {
	s.aborts++
	st := s.tw.LastAbort
	if err := s.reconcileWire(nil); err != nil {
		return err
	}
	clearedTx, clearedRx := 0, 0
	for _, g := range s.guests {
		clearedTx += len(g.stagedQ)
		clearedRx += len(g.expRx)
		s.loseTx(g, len(g.stagedQ))
		g.stagedQ = nil
		s.loseRx(g, len(g.expRx))
		g.expRx = nil
		// Everything offered is now settled; re-baseline the posted-loss
		// reconciliation so the revived instance's counter deltas start
		// clean (the lifetime counter survives the replay).
		g.pendingLost = 0
		g.postedLostSeen = s.tw.PostedTxLost(g.dom.ID)
		if n := s.tw.PendingRx(g.dom.ID); n != 0 {
			return fmt.Errorf("%w: abort left %d frames queued for guest %d", ErrInvariant, n, g.idx)
		}
		if n := s.tw.GuestTLBCached(g.dom.ID); n != 0 {
			return fmt.Errorf("%w: abort left %d cached translations for guest %d", ErrInvariant, n, g.idx)
		}
	}
	if out := s.tw.PoolOutstanding(); out != 0 {
		return fmt.Errorf("%w: abort left %d pooled buffers outstanding", ErrInvariant, out)
	}
	if free := s.tw.PoolFree(); free != s.tw.PoolCapacity() {
		return fmt.Errorf("%w: pool holds %d of %d after abort sweep", ErrInvariant, free, s.tw.PoolCapacity())
	}
	if n := s.tw.PinnedTxPages(); n != 0 {
		return fmt.Errorf("%w: abort left %d guest pages pinned for posted TX", ErrInvariant, n)
	}
	// The twin's own transmit-loss accounting must not exceed the harness
	// ledger (an in-flight frame popped off a ring when the fault hit was
	// already lost, not discarded). The receive side has no such bound: a
	// runaway cleaner legitimately queues the same stale buffer many times
	// before the watchdog cuts it off, so RxPendingDropped can exceed any
	// honest offered count — the PendingRx==0 check above is the real
	// hygiene assertion there.
	if st.StagedTxDiscarded+st.TxPostedDiscarded > clearedTx {
		return fmt.Errorf("%w: abort discarded %d staged + %d posted frames, ledger had %d",
			ErrInvariant, st.StagedTxDiscarded, st.TxPostedDiscarded, clearedTx)
	}
	_ = clearedRx
	fmt.Fprintf(s.digest, "abort %d %d %d %d %d\n",
		st.StagedTxDiscarded, st.TxPostedDiscarded, st.RxPendingDropped, st.RxPostedDiscarded, st.SkbsReclaimed)

	ev, err := s.sup.Recover()
	if err != nil {
		return fmt.Errorf("%w: recovery: %v", ErrInvariant, err)
	}
	if ev == nil {
		return fmt.Errorf("%w: abort accounted but supervisor saw a live twin", ErrInvariant)
	}
	fmt.Fprintf(s.digest, "recover %s %d\n", ev.Entry, ev.Attempt)
	return nil
}

// --- settle / drain / report --------------------------------------------

// settle asserts the continuous invariants at a quiescent point: pool
// conservation, per-guest exactly-once equations, wire fully reconciled,
// and the harness's receive expectations in lockstep with the twin's
// queues.
func (s *Soak) settle() error {
	if s.wireCursor != len(s.wire) {
		return fmt.Errorf("%w: %d unreconciled wire frames", ErrInvariant, len(s.wire)-s.wireCursor)
	}
	free, out, cap := s.tw.PoolFree(), s.tw.PoolOutstanding(), s.tw.PoolCapacity()
	if free+out != cap {
		return fmt.Errorf("%w: pool conservation: free %d + outstanding %d != capacity %d", ErrInvariant, free, out, cap)
	}
	for _, g := range s.guests {
		l := g.ledger
		if l.OfferedTx != l.WireTx+l.LostTx+len(g.stagedQ) {
			return fmt.Errorf("%w: guest %d tx: offered %d != wire %d + lost %d + staged %d",
				ErrInvariant, g.idx, l.OfferedTx, l.WireTx, l.LostTx, len(g.stagedQ))
		}
		if l.OfferedRx != l.DeliveredRx+l.LostRx+len(g.expRx) {
			return fmt.Errorf("%w: guest %d rx: offered %d != delivered %d + lost %d + queued %d",
				ErrInvariant, g.idx, l.OfferedRx, l.DeliveredRx, l.LostRx, len(g.expRx))
		}
		if n := s.tw.PendingRx(g.dom.ID); n != len(g.expRx) {
			return fmt.Errorf("%w: guest %d has %d frames queued, harness expects %d",
				ErrInvariant, g.idx, n, len(g.expRx))
		}
	}
	return nil
}

// drain services every ring and delivers every queue, then settles.
func (s *Soak) drain() error {
	if err := s.serviceAll(); err != nil {
		return err
	}
	for _, g := range s.guests {
		if err := s.deliverRx(g); err != nil {
			return err
		}
	}
	return s.settle()
}

func (s *Soak) report() *Report {
	rep := &Report{
		Backend:    s.cfg.Backend,
		Seed:       s.cfg.Seed,
		Steps:      s.cfg.Steps,
		Faults:     int(s.tw.Faults),
		Recoveries: s.sup.Recoveries(),
		Aborts:     s.aborts,
	}
	for _, g := range s.guests {
		rep.Guests = append(rep.Guests, g.ledger)
	}
	for _, a := range Attacks() {
		if n := s.attacks[a.Name]; n > 0 {
			rep.Attacks = append(rep.Attacks, AttackCount{Name: a.Name, Runs: n})
		}
	}
	rep.Digest = hex.EncodeToString(s.digest.Sum(nil))
	if s.cfg.Trace != nil {
		rep.TraceDigest = s.cfg.Trace.Digest()
	}
	return rep
}
