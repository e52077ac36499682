// Package netpath wires the four measured system configurations of the
// paper's evaluation (§6) end to end:
//
//	Linux      — the driver runs natively; no hypervisor charges.
//	dom0       — the same, plus the residual paravirtualization cost of
//	             running the driver domain on Xen.
//	domU       — the unoptimized Xen guest path of Figure 1: netfront ring
//	             + grant operations in the guest, a domain switch, netback
//	             + bridge + the driver in dom0, and back.
//	domU-twin  — the TwinDrivers path of Figure 2: a hypercall from the
//	             guest straight into the derived hypervisor driver.
//
// Every configuration moves real packet bytes through the real simulated
// driver and NIC; the TCP/IP stack, netfront/netback plumbing and residual
// virtualization costs are priced from internal/cost. Per-packet cycles
// fall out of the cycle meter with the dom0/domU/Xen/e1000 attribution of
// Figures 7 and 8.
package netpath

import (
	"errors"
	"fmt"

	"twindrivers/internal/core"
	"twindrivers/internal/cost"
	"twindrivers/internal/cycles"
	"twindrivers/internal/drivermodel"
	"twindrivers/internal/kernel"
	"twindrivers/internal/mem"
	"twindrivers/internal/recovery"
	"twindrivers/internal/xen"
)

// Kind selects a configuration.
type Kind int

// The four configurations, in the order the paper's figures list them.
const (
	DomU Kind = iota
	Twin
	Dom0
	Linux
)

// Kinds lists all configurations in figure order.
func Kinds() []Kind { return []Kind{DomU, Twin, Dom0, Linux} }

// String names the configuration as in the figures.
func (k Kind) String() string {
	switch k {
	case Linux:
		return "Linux"
	case Dom0:
		return "dom0"
	case DomU:
		return "domU"
	case Twin:
		return "domU-twin"
	}
	return "?"
}

// Options are the data-path options of a configuration, declared here
// once: Path embeds them, and netbench.Params embeds them again, so a
// measurement's options and the path's are the same fields. Only the
// domU-twin path reads them (the other configurations' boundary is the
// netfront/netback ring or no boundary at all).
type Options struct {
	// BatchSize is the number of frames staged per boundary crossing
	// (SendBurst/ReceiveBurst). 0 or 1 is a batch of one: the paper's
	// per-packet hypercall.
	BatchSize int

	// PostedRX switches the receive path to posted guest buffers: ahead of
	// each delivery the guest posts the addresses of its own receive
	// buffers on its posted-RX ring, and the hypervisor copies each frame
	// exactly once, straight into the posted page, resolving the guest
	// address through the per-guest translation cache. False (the default)
	// is the paper's copy path, delivered through the shared region and
	// copied out again by the paravirtual driver.
	PostedRX bool

	// PostedTX switches the transmit path to posted scatter/gather
	// descriptors: the guest leaves each frame in its own memory and posts
	// only the (addr,len) descriptor on its posted-TX ring; the hypervisor
	// resolves the address through the guest translation cache, pins the
	// frames' pages and hands them to the device directly — no staging
	// copy. False (the default) is the copy path through the staging ring.
	PostedTX bool
}

// Path is one configuration brought up with n NICs.
type Path struct {
	Kind Kind
	M    *core.Machine
	T    *core.Twin // nil except for Twin

	// Guests is the guest-domain count (≥ 1). Only the domU-twin path
	// fans out to several guests (SendBurstMulti/ReceiveBurstMulti); the
	// other configurations always run one guest.
	Guests int

	Options

	// TxCount / RxCount tally packets that completed the full path.
	TxCount uint64
	RxCount uint64

	// Recovery, when non-nil, makes the domU-twin path recovery-aware:
	// SendBurst/ReceiveBurst (and their multi-guest variants) treat
	// ErrDriverDead as transient, ask the supervisor to revive the twin,
	// and retry the remainder of the burst — so guest traffic resumes
	// with bounded loss instead of failing forever. Nil (the default)
	// reproduces the paper's terminal containment exactly.
	Recovery *recovery.Supervisor

	// Recovered counts transparent recoveries performed under this path;
	// LostRx counts receive frames that were consumed by the NIC but died
	// with a faulted instance (transmit frames are never lost — staged
	// frames the dead instance discarded are re-staged, counted in
	// RetriedTx, because they never reached the wire).
	Recovered uint64
	LostRx    uint64
	RetriedTx uint64

	guestPage uint32    // domU-owned page used as the guest-side buffer
	guestMACs [][6]byte // per-guest station MACs for receive demux (Twin)
	rxSeq     byte
	tally     []tally // per-guest progress of the last twin burst, one per guest

	// frames holds the bytes of the frames one round builds, one buffer per
	// frame the round stages, cleared and refilled every round; txPosts and
	// rxPosts are the descriptor lists the posted rings take. Each is dead
	// once the round has copied it into guest memory, the device or a ring.
	frames  [core.TxRingSlots][]byte
	txPosts [core.TxRingSlots]core.TxPost
	rxPosts [core.RxRingSlots]core.RxPost

	// rxArena holds each guest's posted-receive buffers (PostedRX mode),
	// allocated lazily so the legacy path's heap layout — and therefore
	// its pinned cycle measurements — stays untouched when posting is off.
	rxArena map[mem.Owner]*postedArena

	// txArena holds each guest's postable transmit buffers (PostedTX
	// mode), lazily allocated for the same layout-preservation reason.
	txArena map[mem.Owner]*postedArena
}

// RxSlotBytes sizes one posted receive buffer (an MTU frame plus headroom,
// matching the transmit staging slots).
const RxSlotBytes = 2048

// postedArena is one guest's pool of postable receive buffers, recycled
// round-robin. The arena holds exactly core.RxRingSlots buffers and the
// ring caps outstanding descriptors at the same count, so a buffer is
// never re-posted while a prior descriptor naming it is still live.
type postedArena struct {
	slots []uint32
	next  int
}

// take fills bufs with the next len(bufs) buffer addresses, recycling
// round-robin, and returns it.
func (a *postedArena) take(bufs []core.RxPost) []core.RxPost {
	for i := range bufs {
		bufs[i] = core.RxPost{Addr: a.slots[a.next], Len: RxSlotBytes}
		a.next = (a.next + 1) % len(a.slots)
	}
	return bufs
}

// arena lazily builds one guest's pool of postable buffers in arenas: n
// buffers of size bytes, recycled round-robin. Receive arenas hold
// core.RxRingSlots buffers of RxSlotBytes, transmit arenas core.TxRingSlots
// of core.TxSlotBytes. The posted ring caps outstanding descriptors at the
// same count and every round services the ring to empty before the arena
// wraps, so a buffer is never rewritten while a descriptor naming it is
// still pending.
func (p *Path) arena(arenas map[mem.Owner]*postedArena, dom *xen.Domain, n int, size uint32) *postedArena {
	a := arenas[dom.ID]
	if a == nil {
		a = &postedArena{}
		for i := 0; i < n; i++ {
			a.slots = append(a.slots, p.M.HV.AllocHeap(dom, size))
		}
		arenas[dom.ID] = a
	}
	return a
}

// postBuffers posts n (at most core.RxRingSlots) receive buffers from the
// guest's arena, charging the guest-side posting work, and returns how many
// the ring accepted.
func (p *Path) postBuffers(dom *xen.Domain, n int) (int, error) {
	a := p.arena(p.rxArena, dom, core.RxRingSlots, RxSlotBytes)
	posted, err := p.T.PostRxBuffers(dom, a.take(p.rxPosts[:n]))
	if err != nil {
		return posted, err
	}
	// Un-take the slots the ring refused so the arena stays in step with
	// the descriptors actually outstanding.
	a.next = (a.next - (n - posted) + len(a.slots)) % len(a.slots)
	p.Meter().AddTo(cycles.CompDomU, uint64(posted)*cost.RxPostPerBuffer)
	return posted, nil
}

// New builds a single-guest configuration. TwinConfig applies only to Kind
// Twin; pass the zero value for defaults.
func New(kind Kind, nNICs int, tcfg core.TwinConfig) (*Path, error) {
	return NewMulti(kind, nNICs, 1, tcfg)
}

// NewMulti builds a configuration with guests guest domains sharing the
// NIC. Only the domU-twin path supports more than one guest; each guest
// gets its own transmit ring and a registered station MAC for receive
// demultiplexing.
func NewMulti(kind Kind, nNICs, guests int, tcfg core.TwinConfig) (*Path, error) {
	return NewMultiModel(kind, nNICs, guests, nil, tcfg)
}

// NewMultiModel is NewMulti with an explicit NIC backend (nil selects the
// e1000): every configuration — native, dom0, unoptimized guest, twin —
// runs the chosen model's driver and device, so the whole evaluation
// harness works per backend.
func NewMultiModel(kind Kind, nNICs, guests int, model *drivermodel.Model, tcfg core.TwinConfig) (*Path, error) {
	if guests < 1 {
		guests = 1
	}
	if guests > 1 && kind != Twin {
		return nil, fmt.Errorf("netpath: %v runs a single guest (multi-guest fan-out is the domU-twin path)", kind)
	}
	p := &Path{Kind: kind, Guests: guests, tally: make([]tally, guests),
		rxArena: make(map[mem.Owner]*postedArena), txArena: make(map[mem.Owner]*postedArena)}
	var err error
	switch kind {
	case Twin:
		p.M, p.T, err = core.NewTwinMachineModel(nNICs, guests, model, tcfg)
	default:
		p.M, err = core.NewMachineModel(nNICs, model)
	}
	if err != nil {
		return nil, err
	}
	// A guest page for the unoptimized path's grant copies.
	p.guestPage = p.M.HV.AllocHeap(p.M.DomU, 2*mem.PageSize)
	if p.T != nil {
		for g, dom := range p.M.Guests {
			mac := [6]byte{0x02, 0x54, 0x57, 0x49, 0x4E, byte(g)}
			p.T.RegisterGuestMAC(mac, dom.ID)
			p.guestMACs = append(p.guestMACs, mac)
		}
	}
	return p, nil
}

// Meter exposes the machine's cycle meter.
func (p *Path) Meter() *cycles.Meter { return p.M.CPU.Meter }

// ResetMeasurement clears cycle buckets and transition statistics but keeps
// all warm state (measurement epochs begin after warm-up).
func (p *Path) ResetMeasurement() {
	p.Meter().Reset()
	if p.T != nil {
		p.T.ResetQueueMeters()
	}
	p.M.HV.ResetStats()
	p.TxCount, p.RxCount = 0, 0
}

// buildFrame builds the next frame of the path's sequence into frame slot
// slot (< core.TxRingSlots): Ethernet header, the sparse payload pattern,
// zero padding to the 60-byte minimum. The slot's buffer is cleared and
// reused, so the frame is valid until the next build into the same slot;
// only a frame larger than any the slot held before allocates. local is the
// machine's end — the destination of a received frame, the source of a
// transmitted one; the other end is a synthetic peer numbered with the
// sequence byte. Sizes below the 14-byte Ethernet header are rejected
// rather than panicking in the payload arithmetic.
func (p *Path) buildFrame(slot int, local [6]byte, rx bool, size int) ([]byte, error) {
	if size < 14 {
		return nil, fmt.Errorf("netpath: frame size %d is below the 14-byte Ethernet header", size)
	}
	p.rxSeq++
	dst, src := [6]byte{0, 0x50, 0x56, 9, 9, p.rxSeq}, local
	if rx {
		dst, src = local, [6]byte{0, 0x50, 0x56, 1, 2, p.rxSeq}
	}
	n := max(size, 60)
	f := p.frames[slot]
	if cap(f) < n {
		f = make([]byte, n)
	} else {
		f = f[:n]
		clear(f)
	}
	p.frames[slot] = f
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	f[12], f[13] = 0x08, 0x00 // IPv4
	for i := 14; i < size; i += 97 {
		f[i] = p.rxSeq + byte(i-14)
	}
	return f, nil
}

// recoverDead reports whether err is a driver death this path may treat as
// transient: a supervisor is attached and it brought the twin back up. A
// refused recovery (escalation tripped, rebuild failed) leaves the error
// terminal, restoring the paper's containment behaviour.
func (p *Path) recoverDead(err error) bool {
	if p.Recovery == nil || !errors.Is(err, core.ErrDriverDead) {
		return false
	}
	if _, rerr := p.Recovery.Recover(); rerr != nil {
		return false
	}
	p.Recovered++
	return true
}

// SendBurst pushes n size-byte packets out through NIC index i, moving to
// the next NIC with every step. Linux, dom0 and domU step one frame at a
// time; the domU-twin path steps max(BatchSize, 1) frames, staged in the
// guest and carried across the guest→hypervisor boundary together (a batch
// of one is the paper's per-packet hypercall). It returns the number of
// packets that completed. With a recovery supervisor attached, a driver
// death mid-burst is healed and the burst resumes; a transmitted frame is
// never duplicated because a faulting invocation dies before the frame
// reaches the wire.
func (p *Path) SendBurst(i, size, n int) (int, error) {
	return p.burst(i, size, n, false)
}

// ReceiveBurst injects n size-byte packets into NIC index i and runs the
// receive path, stepping as SendBurst does: on the domU-twin path each
// step's frames are drained by one coalesced interrupt and delivered to the
// guest under a single notification. With a recovery supervisor attached,
// frames consumed by the NIC that die with a faulted instance are counted
// in LostRx and replacements are injected — bounded loss, not a dead path.
func (p *Path) ReceiveBurst(i, size, n int) (int, error) {
	return p.burst(i, size, n, true)
}

// burst is the one chunk loop of SendBurst and ReceiveBurst. A step
// completing zero packets without an error ends the burst early (e.g.
// interrupts deferred under a masked virtual IRQ flag) — retrying would
// only re-stage duplicate work.
func (p *Path) burst(i, size, n int, rx bool) (int, error) {
	count := &p.TxCount
	if rx {
		count = &p.RxCount
	}
	done := 0
	for done < n {
		d := p.M.Devs[(i+done)%len(p.M.Devs)]
		step := 1
		var err error
		switch {
		case p.Kind != Twin:
			if err = p.native(d, size, rx); err != nil {
				step = 0
			}
		case rx:
			// The stream takes its interrupts in guest context.
			p.M.HV.Switch(p.M.DomU)
			err = p.receive(d, size, min(max(p.BatchSize, 1), n-done), p.M.Guests[:1], nil)
			step = p.tally[0].moved
		default:
			err = p.send(d, size, min(max(p.BatchSize, 1), n-done), p.M.Guests[:1])
			step = p.tally[0].moved
		}
		done += step
		*count += uint64(step)
		if err != nil {
			return done, err
		}
		if step == 0 {
			break
		}
	}
	return done, nil
}

// native moves one size-byte frame through a configuration without a twin.
func (p *Path) native(d *core.NICDev, size int, rx bool) error {
	frame, err := p.buildFrame(0, d.Dev.HWAddr(), rx, size)
	if err != nil {
		return err
	}
	switch {
	case rx && p.Kind == DomU:
		return p.recvDomU(d, frame)
	case rx:
		return p.recvDom0(d, frame, p.Kind == Dom0)
	case p.Kind == DomU:
		return p.sendDomU(d, frame)
	}
	return p.sendDom0(d, frame, p.Kind == Dom0)
}

// --- Linux / dom0 -------------------------------------------------------

func (p *Path) sendDom0(d *core.NICDev, frame []byte, virt bool) error {
	m := p.M
	meter := p.Meter()
	m.HV.Switch(m.Dom0)
	// Socket write + TCP/IP + qdisc, including the user→skb copy.
	meter.AddTo(cycles.CompDom0, cost.TxKernelFixed+uint64(len(frame))*cost.TxKernelPerByte)
	skb, err := m.NewTxSkb(d, frame)
	if err != nil {
		return err
	}
	if virt {
		meter.AddTo(cycles.CompXen, cost.Dom0VirtPerPacketTx)
	}
	ret, err := m.DevQueueXmit(d, skb)
	if err != nil {
		return err
	}
	if ret != 0 {
		return fmt.Errorf("netpath: tx ring busy")
	}
	return nil
}

func (p *Path) recvDom0(d *core.NICDev, frame []byte, virt bool) error {
	m := p.M
	meter := p.Meter()
	if !d.Dev.Inject(frame) {
		return fmt.Errorf("netpath: rx overrun")
	}
	if virt {
		meter.AddTo(cycles.CompXen, cost.Dom0VirtPerPacketRx)
	}
	if err := m.HandleIRQ(d); err != nil {
		return err
	}
	// Protocol stack and socket delivery for everything the driver queued.
	for {
		skb, ok := m.K.PopBacklog()
		if !ok {
			break
		}
		ln, _ := m.Dom0.AS.Load(skb+kernel.SkbLen, 4)
		meter.AddTo(cycles.CompDom0, cost.RxKernelFixed+uint64(ln)*cost.RxKernelPerByte)
		m.K.FreeSkb(skb)
	}
	return nil
}

// --- Unoptimized Xen guest (netfront → netback → bridge → driver) --------

func (p *Path) sendDomU(d *core.NICDev, frame []byte) error {
	m := p.M
	hv := m.HV
	meter := p.Meter()

	// Guest kernel + netfront: build the packet in guest memory, issue a
	// grant, put a request on the I/O channel, kick the event channel.
	hv.Switch(m.DomU)
	meter.AddTo(cycles.CompDomU, cost.TxKernelFixed+uint64(len(frame))*cost.TxKernelPerByte)
	if err := m.DomU.AS.WriteBytes(p.guestPage, frame); err != nil {
		return err
	}
	meter.AddTo(cycles.CompDomU, cost.NetfrontPerPacket)
	gframe, _ := hv.FrameOf(m.DomU, p.guestPage)
	ref := hv.GrantCreate(m.DomU, gframe, m.Dom0)
	hv.SendEvent(m.Dom0)

	// Synchronous switch into the driver domain.
	hv.Switch(m.Dom0)
	hv.DeliverVirtIRQ(m.Dom0)

	// Netback: grant map/unmap bookkeeping, then the payload into a dom0
	// sk_buff, then bridge it to the physical device.
	meter.AddTo(cycles.CompDom0, cost.NetbackPerPacket+cost.TxNetbackOverhead)
	skb := m.K.AllocSkb(d.Netdev)
	data, _ := m.Dom0.AS.Load(skb+kernel.SkbData, 4)
	if err := hv.GrantCopy(ref, m.Dom0.AS, data, m.DomU.AS, p.guestPage, len(frame)); err != nil {
		return err
	}
	if err := m.Dom0.AS.Store(skb+kernel.SkbLen, 4, uint32(len(frame))); err != nil {
		return err
	}
	hv.GrantEnd(ref)
	meter.AddTo(cycles.CompDom0, cost.BridgePerPacket)

	ret, err := m.DevQueueXmit(d, skb)
	if err != nil {
		return err
	}
	if ret != 0 {
		return fmt.Errorf("netpath: tx ring busy")
	}

	// Completion: notify the guest and switch back.
	hv.SendEvent(m.DomU)
	hv.Switch(m.DomU)
	hv.DeliverVirtIRQ(m.DomU)
	meter.AddTo(cycles.CompDomU, cost.NetfrontPerPacket/2) // response processing
	return nil
}

func (p *Path) recvDomU(d *core.NICDev, frame []byte) error {
	m := p.M
	hv := m.HV
	meter := p.Meter()

	if !d.Dev.Inject(frame) {
		return fmt.Errorf("netpath: rx overrun")
	}
	// The physical interrupt lands in the hypervisor, which switches to
	// the driver domain.
	meter.AddTo(cycles.CompXen, cost.IrqOverhead)
	if err := m.HandleIRQ(d); err != nil { // switches to dom0 internally
		return err
	}
	// Netback: for each packet the driver delivered, issue a grant and
	// copy it into guest memory, then notify the guest.
	n := 0
	for {
		skb, ok := m.K.PopBacklog()
		if !ok {
			break
		}
		meter.AddTo(cycles.CompDom0, cost.NetbackPerPacket+cost.BridgePerPacket+cost.RxNetbackOverhead)
		meter.AddTo(cycles.CompXen, cost.RxFlipXen)
		data, _ := m.Dom0.AS.Load(skb+kernel.SkbData, 4)
		ln, _ := m.Dom0.AS.Load(skb+kernel.SkbLen, 4)
		gframe, _ := hv.FrameOf(m.DomU, p.guestPage)
		ref := hv.GrantCreate(m.Dom0, gframe, m.DomU)
		if err := hv.GrantCopy(ref, m.DomU.AS, p.guestPage, m.Dom0.AS, data, int(ln)); err != nil {
			return err
		}
		hv.GrantEnd(ref)
		m.K.FreeSkb(skb)
		n++
	}
	hv.SendEvent(m.DomU)
	hv.Switch(m.DomU)
	hv.DeliverVirtIRQ(m.DomU)
	// Netfront response processing + guest stack.
	for i := 0; i < n; i++ {
		meter.AddTo(cycles.CompDomU, cost.NetfrontPerPacket)
		meter.AddTo(cycles.CompDomU, cost.RxKernelFixed+uint64(len(frame))*cost.RxKernelPerByte)
	}
	return nil
}

// --- TwinDrivers ----------------------------------------------------------

// tally is one guest's progress through a twin body: frames completed,
// frames still owed in the current chunk, and (receive) frames injected for
// it in the current round.
type tally struct{ moved, need, round int }

// send is the one domU-twin transmit body: n size-byte frames for each of
// guests, sourced from the device MAC, out through d. Each round every
// guest with frames owed runs its kernel stack and stages (or, PostedTX,
// posts) them in its own transmit ring from its own context, at most a ring
// of them, then one ServiceRings crossing drains every guest's ring
// round-robin — the boundary cost amortizes across guests as well as
// frames. A single guest in copy mode stages and crosses in one
// GuestTransmitBatch instead, which returns no per-guest map. Per-guest
// completions land in p.tally. A driver death revives the twin and
// re-stages every frame the dead instance discarded, counted in RetriedTx
// (the abort reset the rings, so nothing is phantom-delivered or
// duplicated); a round that moves nothing ends the call short.
func (p *Path) send(d *core.NICDev, size, n int, guests []*xen.Domain) error {
	t := p.tally[:len(guests)]
	clear(t)
	var cross *core.NICDev
	if len(guests) == 1 && !p.PostedTX {
		cross = d
	}
	for remaining := n; remaining > 0; {
		chunk := min(remaining, core.TxRingSlots)
		for g := range t {
			t[g].need = chunk
		}
		for {
			staged, sent, err := p.sendRound(d, size, guests, cross)
			if err != nil {
				if p.recoverDead(err) {
					p.RetriedTx += uint64(staged - sent)
					continue
				}
				return err
			}
			pending := 0
			for g := range t {
				pending += t[g].need
			}
			if pending == 0 {
				break
			}
			if sent == 0 {
				return nil
			}
		}
		remaining -= chunk
	}
	return nil
}

// sendRound stages every guest's owed frames and crosses once (with cross
// set, the one guest's GuestTransmitBatch is both). It returns the frames
// staged and the frames sent.
func (p *Path) sendRound(d *core.NICDev, size int, guests []*xen.Domain, cross *core.NICDev) (staged, sent int, err error) {
	t := p.tally
	for g, dom := range guests {
		if t[g].need == 0 {
			continue
		}
		frames, err := p.txFrames(d.Dev.HWAddr(), size, t[g].need)
		if err != nil {
			return staged, 0, err
		}
		k, err := p.stageTx(dom, frames, p.PostedTX, cross)
		if cross != nil {
			t[g].moved += k
			t[g].need -= k
			return len(frames), k, err
		}
		staged += k
		if err != nil {
			return staged, 0, err
		}
		if k != len(frames) {
			return staged, 0, fmt.Errorf("netpath: guest %d staged %d of %d", dom.ID, k, len(frames))
		}
	}
	// One boundary crossing drains every guest's ring; it runs in
	// whichever guest context is current.
	got, err := p.T.ServiceRings(d, 0)
	for g, dom := range guests {
		t[g].moved += got[dom.ID]
		t[g].need -= got[dom.ID]
		sent += got[dom.ID]
	}
	return staged, sent, err
}

// rxRoom is the most frames one receive round may inject into the device:
// half the descriptor slots across its queues (128 on the e1000's 256-slot
// ring and on the mqnic's eight 32-slot rings), or, on a byte ring, the
// size-byte frames — each behind the 4-byte header, padded to a word — that
// fit in its length less the one byte that tells full from empty.
func (p *Path) rxRoom(size int) int {
	g := p.M.Model.Geometry
	if g.RxByteRing {
		return max((g.RxSlots-1)/((max(size, 60)+4+3)&^3), 1)
	}
	return g.RxSlots * max(p.M.Model.Queues, 1) / 2
}

// receive is the one domU-twin receive body: n size-byte frames for each of
// guests, addressed to macs[g] (or, with macs nil, to the device MAC),
// injected into d in rounds the device's ring holds (rxRoom; the posted
// path also stays within each guest's posted-RX ring), serviced with one
// coalesced interrupt per round and delivered to each guest in its own
// context under a single notification per guest. Past rxRoom guests even a
// one-frame-per-guest round would overrun the device, so a round's fan-in
// is processed in waves of at most rxRoom guests, one interrupt per wave.
// Per-guest deliveries land in p.tally. Frames that die with a faulted
// instance count in LostRx and the round repeats with replacements; a round
// that delivers nothing to any guest ends the call short.
func (p *Path) receive(d *core.NICDev, size, n int, guests []*xen.Domain, macs [][6]byte) error {
	t := p.tally[:len(guests)]
	clear(t)
	room := p.rxRoom(size)
	maxRound := max(room/len(guests), 1)
	if p.PostedRX {
		maxRound = min(maxRound, core.RxRingSlots)
	}
	wave := min(len(guests), room)
	for remaining := n; remaining > 0; {
		chunk := min(remaining, maxRound)
		for g := range t {
			t[g].need = chunk
		}
	rounds:
		for {
			delivered := 0
			for lo := 0; lo < len(guests); lo += wave {
				injected, got, err := p.receiveWave(d, size, guests, macs, lo, min(lo+wave, len(guests)))
				delivered += got
				if err != nil {
					if p.recoverDead(err) {
						// The device reset dropped every frame of the wave
						// not yet delivered.
						p.LostRx += uint64(injected - got)
						continue rounds
					}
					return err
				}
			}
			pending := 0
			for g := range t {
				pending += t[g].need
			}
			if pending == 0 {
				break
			}
			if delivered == 0 {
				return nil
			}
		}
		remaining -= chunk
	}
	return nil
}

// receiveWave runs one interrupt's fan-in for guests[lo:hi]: in posted mode
// every guest first posts its buffers from its own context (a ring holding
// leftovers may take fewer, and only what it took is injected); then each
// guest's owed frames are injected, one interrupt services them all, and
// each guest takes delivery in its own context. Lost or dropped frames are
// counted once inside deliverGuest; need stays up for them, so the round
// repeats and injects replacements. It returns the frames injected and
// delivered.
func (p *Path) receiveWave(d *core.NICDev, size int, guests []*xen.Domain, macs [][6]byte, lo, hi int) (injected, delivered int, err error) {
	t := p.tally
	for g := lo; g < hi; g++ {
		t[g].round = t[g].need
		if p.PostedRX && t[g].need > 0 {
			p.M.HV.Switch(guests[g])
			if t[g].round, err = p.postBuffers(guests[g], t[g].need); err != nil {
				return 0, 0, err
			}
		}
	}
	for g := lo; g < hi; g++ {
		mac := d.Dev.HWAddr()
		if macs != nil {
			mac = macs[g]
		}
		for k := 0; k < t[g].round; k++ {
			// Inject copies the frame into the device, so one slot serves
			// the whole wave.
			f, err := p.buildFrame(0, mac, true, size)
			if err != nil {
				return injected, 0, err
			}
			if !d.Dev.Inject(f) {
				return injected, 0, fmt.Errorf("netpath: rx overrun")
			}
			injected++
		}
	}
	// One interrupt for the wave's fan-in, in whatever context runs.
	if err := p.T.HandleIRQ(d); err != nil {
		return injected, 0, err
	}
	p.T.Coalescer.Begin()
	for g := lo; g < hi && err == nil; g++ {
		p.M.HV.Switch(guests[g])
		var got int
		got, err = p.deliverGuest(guests[g], t[g].round, p.PostedRX)
		t[g].moved += got
		t[g].need -= got
		delivered += got
	}
	p.T.Coalescer.End()
	return injected, delivered, err
}

// deliverGuest delivers at most max (0 means all) of dom's queued frames,
// in dom's context: a single copy straight into the guest's posted buffers
// (posted), or the paper's copy through the shared region, copied out again
// by the paravirtual driver. Each delivered frame is priced with the guest
// paravirtual driver and stack; frames lost to a bad posted descriptor or
// dropped behind a mid-batch delivery fault count in LostRx, exactly once
// (frames delivered before the fault still reached the guest). It returns
// the number delivered; an error means the batch is over for every guest.
func (p *Path) deliverGuest(dom *xen.Domain, max int, posted bool) (int, error) {
	meter := p.Meter()
	if posted {
		del, err := p.T.DeliverPendingPosted(dom, max)
		if err != nil {
			return 0, err
		}
		// Completion only: the frame already sits in the guest's own buffer.
		for _, fr := range del.Frames {
			meter.AddTo(cycles.CompDomU, cost.PvDriverRxPosted)
			meter.AddTo(cycles.CompDomU, cost.RxKernelFixed+uint64(fr.Len)*cost.RxKernelPerByte)
		}
		p.LostRx += uint64(del.Lost)
		return len(del.Frames), nil
	}
	pkts, err := p.T.DeliverPendingBatch(dom, max)
	for _, pkt := range pkts {
		meter.AddTo(cycles.CompDomU, cost.PvDriverRx)
		meter.AddTo(cycles.CompDomU, cost.RxKernelFixed+uint64(len(pkt))*cost.RxKernelPerByte)
	}
	if err != nil {
		var de *core.DeliveryError
		if errors.As(err, &de) {
			p.LostRx += uint64(de.Dropped)
			err = nil
		}
	}
	return len(pkts), err
}

// txFrames builds count (at most core.TxRingSlots) size-byte transmit
// frames sourced from src into the frame slots, in generation order, and
// returns them: valid until the next round builds frames.
func (p *Path) txFrames(src [6]byte, size, count int) ([][]byte, error) {
	for k := 0; k < count; k++ {
		if _, err := p.buildFrame(k, src, false, size); err != nil {
			return nil, err
		}
	}
	return p.frames[:count], nil
}

// stageTx is the guest-side transmit producer: it moves one guest's
// frames to the hypervisor boundary, in guest context, charging the guest
// kernel stack per frame — the staging-ring copy in copy mode, or (posted)
// a write into the guest's own transmit arena (in the real system the
// frame already sits in guest memory) plus an (addr,len) descriptor post,
// which replaces the staging copy's per-byte cost. It returns how many
// frames were staged or posted. In copy mode with cross set the guest also
// crosses: one GuestTransmitBatch stages the frames and drains them through
// cross in the same hypercall, and the count is of frames sent.
func (p *Path) stageTx(dom *xen.Domain, frames [][]byte, posted bool, cross *core.NICDev) (int, error) {
	meter := p.Meter()
	p.M.HV.Switch(dom)
	if !posted {
		for _, f := range frames {
			meter.AddTo(cycles.CompDomU, cost.TxKernelFixed+uint64(len(f))*cost.TxKernelPerByte)
		}
		if cross != nil {
			return p.T.GuestTransmitBatch(cross, frames)
		}
		return p.T.StageTransmitBatch(dom, frames)
	}
	a := p.arena(p.txArena, dom, core.TxRingSlots, core.TxSlotBytes)
	descs := p.txPosts[:0]
	for _, f := range frames {
		slot := a.slots[a.next]
		a.next = (a.next + 1) % len(a.slots)
		if err := dom.AS.WriteBytes(slot, f); err != nil {
			return 0, err
		}
		meter.AddTo(cycles.CompDomU, cost.TxKernelFixed+cost.TxPostPerDesc)
		descs = append(descs, core.TxPost{Addr: slot, Len: uint32(len(f))})
	}
	return p.T.PostTxDescriptors(dom, descs)
}

// --- Multi-guest fan-out (domU-twin only) ---------------------------------

// SendBurstMulti pushes n size-byte packets per guest out through NIC
// index i: every guest stages its frames in its own transmit ring from its
// own context, and one ServiceRings crossing per ring-sized round drains
// all guests' rings round-robin (see send). It returns the per-guest
// completion counts. With a recovery supervisor attached, a driver death
// mid-drain revives the twin and re-stages every frame the dead instance
// discarded.
func (p *Path) SendBurstMulti(i, size, n int) (map[mem.Owner]int, error) {
	if p.Kind != Twin {
		return nil, fmt.Errorf("netpath: multi-guest bursts need the domU-twin path")
	}
	err := p.send(p.M.Devs[i%len(p.M.Devs)], size, n, p.M.Guests)
	return p.perGuest(&p.TxCount, n, err)
}

// ReceiveBurstMulti injects n size-byte packets per guest (addressed to
// each guest's registered MAC), services them with one coalesced interrupt
// per round, and delivers each guest's batch in its own context under a
// single notification per guest per window (see receive). It returns the
// per-guest delivery counts.
func (p *Path) ReceiveBurstMulti(i, size, n int) (map[mem.Owner]int, error) {
	if p.Kind != Twin {
		return nil, fmt.Errorf("netpath: multi-guest bursts need the domU-twin path")
	}
	err := p.receive(p.M.Devs[i%len(p.M.Devs)], size, n, p.M.Guests, p.guestMACs)
	return p.perGuest(&p.RxCount, n, err)
}

// perGuest returns the last fan-out's per-guest counts keyed by domain (a
// guest that moved nothing is absent) and adds them to count. A fan-out
// moves all n frames of every guest or fails: a short one is an error.
func (p *Path) perGuest(count *uint64, n int, err error) (map[mem.Owner]int, error) {
	out := make(map[mem.Owner]int)
	for g, dom := range p.M.Guests {
		c := p.tally[g].moved
		if c > 0 {
			out[dom.ID] = c
			*count += uint64(c)
		}
		if c < n && err == nil {
			err = fmt.Errorf("netpath: guest %d moved %d of %d frames", dom.ID, c, n)
		}
	}
	return out, err
}

// --- Weighted-fair contention + inter-guest switch (domU-twin only) -------

// SendContended is the contended-transmit workload the weighted-fair
// scheduler measurements run: every guest's transmit ring is kept
// topped up from its own context, and each of the `crossings` budgeted
// ServiceRings crossings consumes at most `budget` descriptors — so
// demand always exceeds service and the per-guest completion counts
// reveal the scheduler's share decisions (proportional to
// TwinConfig.Weights; equal when they are nil). Every guest sources its
// frames from its own registered station MAC, so with the inter-guest
// switch on none is dropped as spoofed (SendBurst and SendBurstMulti keep
// the device MAC: the benchmark checks their wire frames byte for byte).
// It returns the cumulative per-guest transmit counts.
func (p *Path) SendContended(i, size, crossings, budget int) (map[mem.Owner]int, error) {
	if p.Kind != Twin {
		return nil, fmt.Errorf("netpath: contended bursts need the domU-twin path")
	}
	m := p.M
	d := m.Devs[i%len(m.Devs)]
	total := make(map[mem.Owner]int, len(m.Guests))
	for c := 0; c < crossings; c++ {
		for g, dom := range m.Guests {
			var pending int
			var err error
			if p.PostedTX {
				pending, err = p.T.PostedTxPending(dom.ID)
			} else {
				pending, err = p.T.StagedTx(dom.ID)
			}
			if err != nil {
				return total, err
			}
			want := core.TxRingSlots - 1 - pending
			if want <= 0 {
				continue
			}
			frames, err := p.txFrames(p.guestMACs[g], size, want)
			if err != nil {
				return total, err
			}
			staged, err := p.stageTx(dom, frames, p.PostedTX, nil)
			if err != nil {
				if p.recoverDead(err) {
					continue // re-stage this guest next crossing
				}
				return total, err
			}
			if staged < want {
				return total, fmt.Errorf("netpath: guest %d staged %d of %d", dom.ID, staged, want)
			}
		}
		sent, err := p.T.ServiceRings(d, budget)
		for id, n := range sent {
			total[id] += n
			p.TxCount += uint64(n)
		}
		if err != nil {
			if p.recoverDead(err) {
				continue
			}
			return total, err
		}
	}
	return total, nil
}

// SendLocal moves n size-byte frames from guest src to guest dst
// (both guest indices), addressed to dst's registered station MAC.
// With the inter-guest switch on (TwinConfig.Switch), the frames are
// classified at transmit and delivered dom0-side without touching the
// device; with it off they hairpin through the device — transmitted to
// the wire, re-injected as arriving traffic, and received back through
// the interrupt path and MAC demux. The two costs are what the vswitch
// benchmark compares. It returns the frames delivered to dst.
func (p *Path) SendLocal(i, size, n, src, dst int) (int, error) {
	if p.Kind != Twin {
		return 0, fmt.Errorf("netpath: inter-guest traffic needs the domU-twin path")
	}
	if src < 0 || src >= len(p.M.Guests) || dst < 0 || dst >= len(p.M.Guests) || src == dst {
		return 0, fmt.Errorf("netpath: bad guest pair %d->%d of %d guests", src, dst, len(p.M.Guests))
	}
	m := p.M
	d := m.Devs[i%len(m.Devs)]
	sdom, ddom := m.Guests[src], m.Guests[dst]
	switched := p.T.VSwitch() != nil
	done := 0
	for done < n {
		chunk := n - done
		if chunk > core.TxRingSlots-1 {
			chunk = core.TxRingSlots - 1
		}
		// Guest src: kernel stack + staging copy for each frame (always the
		// copy path, whatever PostedTX says), then one crossing drains the
		// batch.
		frames, err := p.txFrames(p.guestMACs[src], size, chunk)
		if err != nil {
			return done, err
		}
		for _, f := range frames {
			copy(f, p.guestMACs[dst][:]) // readdress from the external sink to guest dst
		}
		staged, err := p.stageTx(sdom, frames, false, nil)
		if err != nil {
			return done, err
		}
		if staged != chunk {
			return done, fmt.Errorf("netpath: staged %d of %d local frames", staged, chunk)
		}
		sent, err := p.T.ServiceRings(d, 0)
		if err != nil {
			return done, err
		}
		p.TxCount += uint64(sent[sdom.ID])
		p.T.Coalescer.Begin()
		if !switched {
			// No switch: the frames left on the wire; the external switch
			// hairpins them back to the shared link, and the receive path
			// runs in full — interrupt, driver RX, MAC demux.
			for k := range frames {
				if !d.Dev.Inject(frames[k]) {
					p.T.Coalescer.End()
					return done, fmt.Errorf("netpath: rx overrun")
				}
			}
			if err := p.T.HandleIRQ(d); err != nil {
				p.T.Coalescer.End()
				return done, err
			}
		}
		// Guest dst: paravirtual driver + stack per delivered frame.
		m.HV.Switch(ddom)
		got, err := p.deliverGuest(ddom, chunk, false)
		p.T.Coalescer.End()
		done += got
		if err != nil {
			return done, err
		}
		p.RxCount += uint64(got)
		if got == 0 {
			return done, fmt.Errorf("netpath: local delivery made no progress (%d of %d)", done, n)
		}
	}
	return done, nil
}
