// Package mqnic models a multi-queue Ethernet controller (an e810/virtio
// multi-queue class device): eight independent TX/RX descriptor-ring pairs
// behind per-queue register blocks, RSS flow steering of received frames,
// per-queue interrupt cause bits, and hardware statistics — plus the
// assembly driver that drives it. The descriptor format is the 16-byte
// e1000 legacy layout, so the driver shares the kernel's global descriptor
// equates; everything queue-related (register blocks at a fixed stride,
// per-queue cause bits, the RSS hash) is this device's own.
//
// The point of the backend is the framework contract: the unmodified
// rewrite pipeline derives its hypervisor twin, and the twin's per-queue
// service loops (core.TwinConfig.Queues) line up with real device queues —
// SKB_QUEUE selects a real ring, received flows steer to a stable queue.
package mqnic

import (
	"fmt"

	"twindrivers/internal/core"
	"twindrivers/internal/mem"
)

func errUnbacked(name string, f uint32) error {
	return fmt.Errorf("mqnic: %s: DMA access of unbacked frame %#x", name, f)
}

// NumQueues is the number of independent TX/RX queue pairs.
const NumQueues = 8

// Ring geometry: per-queue descriptor rings (16-byte legacy descriptors).
const (
	TxRing    = 32
	RxRing    = 32
	RingBytes = TxRing * DescSize
)

// Global register offsets (byte offsets into the MMIO block).
const (
	RegCTRL   = 0x0000
	RegSTATUS = 0x0008
	RegICR    = 0x00C0 // interrupt cause, read-to-clear
	RegIMS    = 0x00D0 // interrupt mask set
	RegIMC    = 0x00D8 // interrupt mask clear
	RegRCTL   = 0x0100
	RegTCTL   = 0x0400
	RegGPTC   = 0x4000 // good packets transmitted (all queues)
	RegGPRC   = 0x4008 // good packets received (all queues)
	RegMPC    = 0x4010 // missed packets (no RX descriptors)
	RegRAL    = 0x5400 // receive address low
	RegRAH    = 0x5404 // receive address high

	// MMIOPages is the size of the register block in pages.
	MMIOPages = 32
)

// Per-queue register blocks: RX queue q lives at RxQBase+q*QStride, TX
// queue q at TxQBase+q*QStride. The 64-byte stride keeps queue addressing
// a single shift in driver code.
const (
	RxQBase = 0x2000
	TxQBase = 0x3000
	QStride = 0x40

	QRegBAL  = 0x00 // ring base address
	QRegLEN  = 0x08 // ring length in bytes
	QRegHEAD = 0x10
	QRegTAIL = 0x18
)

// Interrupt cause bits: RX queue q raises bit q, TX queue q raises bit
// 8+q, link status change is bit 16.
const (
	IntRxAll = 0x00FF
	IntTxAll = 0xFF00
	IntLSC   = 1 << 16
)

// Control/status and descriptor constants. Same VALUES as the e1000-class
// device on purpose: the kernel's global equates (DESC_SIZE, TXD_CMD_*,
// DESC_DD, RXD_ST_EOP, RCTL_EN, TCTL_EN, STATUS_LU, CTRL_RST) stay valid
// in this driver's assembly unit.
const (
	CtrlRST  = 1 << 26
	StatusLU = 1 << 1
	RctlEN   = 1 << 1
	TctlEN   = 1 << 1

	DescSize = 16
	TxCmdEOP = 1 << 0
	TxCmdRS  = 1 << 3
	DescDD   = 1 << 0
	RxStEOP  = 1 << 1
)

// rssSeed is the device's RSS hash key (the Toeplitz key register of real
// hardware, reduced to a seed). Fixed: steering must be deterministic.
const rssSeed = 0x6A09E667F3BCC908

// queueRegs is one descriptor ring's register block.
type queueRegs struct {
	bal, qlen, head, tail uint32
}

func (r *queueRegs) read(reg uint32) uint32 {
	switch reg {
	case QRegBAL:
		return r.bal
	case QRegLEN:
		return r.qlen
	case QRegHEAD:
		return r.head
	case QRegTAIL:
		return r.tail
	}
	return 0
}

func (r *queueRegs) write(reg, val uint32) {
	switch reg {
	case QRegBAL:
		r.bal = val
	case QRegLEN:
		r.qlen = val
	case QRegHEAD:
		r.head = val
	case QRegTAIL:
		r.tail = val
	}
}

// MQNIC is one simulated multi-queue controller.
type MQNIC struct {
	Name string
	Phys *mem.Physical
	MAC  [6]byte

	// IRQ is invoked when the interrupt line asserts (cause & mask != 0).
	IRQ func()

	// OnTransmit receives every transmitted packet (the wire). pkt is the
	// device's gather buffer: it is valid only for the duration of the
	// call, so a consumer that keeps the frame must copy it.
	OnTransmit func(pkt []byte)

	ctrl, status uint32
	icr, ims     uint32
	rctl, tctl   uint32
	ral, rah     uint32

	tx [NumQueues]queueRegs
	rx [NumQueues]queueRegs

	// Statistics: global counters plus per-TX-queue good-packet counts
	// (the QueueCounters surface steering tests observe).
	gptc, gprc, mpc uint32
	qtx             [NumQueues]uint64

	txbuf []byte // the frame processTx is gathering; reused across frames
}

// New creates an MQNIC over physical memory with the given MAC address.
func New(name string, phys *mem.Physical, macLast byte) *MQNIC {
	n := &MQNIC{Name: name, Phys: phys, status: StatusLU}
	n.MAC = [6]byte{0x00, 0x1B, 0x21, 0x00, 0x00, macLast}
	return n
}

// MMIORead implements mem.MMIO.
func (n *MQNIC) MMIORead(off uint32, size uint32) uint32 {
	switch {
	case off >= RxQBase && off < RxQBase+NumQueues*QStride:
		return n.rx[(off-RxQBase)/QStride].read((off - RxQBase) % QStride)
	case off >= TxQBase && off < TxQBase+NumQueues*QStride:
		return n.tx[(off-TxQBase)/QStride].read((off - TxQBase) % QStride)
	}
	switch off {
	case RegCTRL:
		return n.ctrl
	case RegSTATUS:
		return n.status
	case RegICR:
		v := n.icr
		n.icr = 0 // read-to-clear
		return v
	case RegIMS:
		return n.ims
	case RegRCTL:
		return n.rctl
	case RegTCTL:
		return n.tctl
	case RegGPTC:
		return n.gptc
	case RegGPRC:
		return n.gprc
	case RegMPC:
		return n.mpc
	case RegRAL:
		return n.ral
	case RegRAH:
		return n.rah
	}
	return 0
}

// MMIOWrite implements mem.MMIO.
func (n *MQNIC) MMIOWrite(off uint32, size uint32, val uint32) {
	switch {
	case off >= RxQBase && off < RxQBase+NumQueues*QStride:
		n.rx[(off-RxQBase)/QStride].write((off-RxQBase)%QStride, val)
		return
	case off >= TxQBase && off < TxQBase+NumQueues*QStride:
		q := (off - TxQBase) / QStride
		reg := (off - TxQBase) % QStride
		n.tx[q].write(reg, val)
		if reg == QRegTAIL {
			n.processTx(int(q))
		}
		return
	}
	switch off {
	case RegCTRL:
		if val&CtrlRST != 0 {
			n.reset()
			return
		}
		n.ctrl = val
	case RegICR:
		n.icr &^= val
	case RegIMS:
		n.ims |= val
		n.maybeInterrupt()
	case RegIMC:
		n.ims &^= val
	case RegRCTL:
		n.rctl = val
	case RegTCTL:
		n.tctl = val
	case RegRAL:
		n.ral = val
		n.MAC[0], n.MAC[1], n.MAC[2], n.MAC[3] = byte(val), byte(val>>8), byte(val>>16), byte(val>>24)
	case RegRAH:
		n.rah = val
		n.MAC[4], n.MAC[5] = byte(val), byte(val>>8)
	}
}

func (n *MQNIC) reset() {
	*n = MQNIC{Name: n.Name, Phys: n.Phys, MAC: n.MAC, IRQ: n.IRQ,
		OnTransmit: n.OnTransmit, status: StatusLU, txbuf: n.txbuf}
}

func (n *MQNIC) maybeInterrupt() {
	if n.icr&n.ims != 0 && n.IRQ != nil {
		n.IRQ()
	}
}

// raise sets cause bits and asserts the line if unmasked.
func (n *MQNIC) raise(cause uint32) {
	n.icr |= cause
	n.maybeInterrupt()
}

// dmaRead fills out from physical memory (buffers may cross frames).
func (n *MQNIC) dmaRead(pa uint32, out []byte) error {
	for i := 0; i < len(out); {
		f := (pa + uint32(i)) / mem.PageSize
		off := (pa + uint32(i)) & mem.PageMask
		fd := n.Phys.FrameData(f)
		if fd == nil {
			return errUnbacked(n.Name, f)
		}
		c := copy(out[i:], fd[off:])
		i += c
	}
	return nil
}

func (n *MQNIC) dmaWrite(pa uint32, data []byte) error {
	for i := 0; i < len(data); {
		f := (pa + uint32(i)) / mem.PageSize
		off := (pa + uint32(i)) & mem.PageMask
		fd := n.Phys.FrameData(f)
		if fd == nil {
			return errUnbacked(n.Name, f)
		}
		c := copy(fd[off:], data[i:])
		i += c
	}
	return nil
}

func (n *MQNIC) readDesc(base, idx uint32, d []byte) error {
	return n.dmaRead(base+idx*DescSize, d)
}

func (n *MQNIC) writeDesc(base, idx uint32, d []byte) error {
	return n.dmaWrite(base+idx*DescSize, d)
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func le16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }
func put16(b []byte, v uint16) {
	b[0], b[1] = byte(v), byte(v>>8)
}

// processTx consumes descriptors from queue q's head up to its tail.
// Multi-descriptor packets (frag chains) accumulate until EOP.
func (n *MQNIC) processTx(q int) {
	tq := &n.tx[q]
	if n.tctl&TctlEN == 0 || tq.qlen == 0 {
		return
	}
	count := tq.qlen / DescSize
	n.txbuf = n.txbuf[:0]
	raised := false
	for tq.head != tq.tail {
		var desc [DescSize]byte
		d := desc[:]
		if err := n.readDesc(tq.bal, tq.head, d); err != nil {
			return // DMA of unbacked memory: packet lost, ring stalls
		}
		bufAddr := le32(d[0:4])
		ln := int(le16(d[8:10]))
		cmd := d[11]
		have := len(n.txbuf)
		n.txbuf = append(n.txbuf, make([]byte, ln)...)
		if err := n.dmaRead(bufAddr, n.txbuf[have:]); err != nil {
			return
		}
		if cmd&TxCmdEOP != 0 {
			n.gptc++
			n.qtx[q]++
			if n.OnTransmit != nil {
				n.OnTransmit(n.txbuf)
			}
			n.txbuf = n.txbuf[:0]
		}
		// Write back DD.
		d[12] |= DescDD
		if err := n.writeDesc(tq.bal, tq.head, d); err != nil {
			return
		}
		if cmd&TxCmdRS != 0 {
			raised = true
		}
		tq.head = (tq.head + 1) % count
	}
	if raised {
		n.raise(1 << (8 + uint(q)))
	}
}

// SteerRx returns the RX queue a frame's addresses steer to: the device's
// RSS function over (src, dst). A flow — a fixed address pair — maps to
// exactly one queue, so in-flow ordering is preserved per construction.
func SteerRx(pkt []byte) int {
	if len(pkt) < 12 {
		return 0
	}
	var dst, src [6]byte
	copy(dst[:], pkt[0:6])
	copy(src[:], pkt[6:12])
	return core.SteerQueue(core.RSSHash(src, dst, 0, rssSeed), NumQueues)
}

// Inject delivers a received packet into the RX queue its flow steers to.
// It returns false (and counts a missed packet) when that queue has no
// free descriptor.
func (n *MQNIC) Inject(pkt []byte) bool {
	if n.rctl&RctlEN == 0 {
		n.mpc++
		return false
	}
	q := SteerRx(pkt)
	rq := &n.rx[q]
	if rq.qlen == 0 {
		n.mpc++
		return false
	}
	count := rq.qlen / DescSize
	if rq.head == rq.tail {
		// Ring empty: no buffers.
		n.mpc++
		return false
	}
	var desc [DescSize]byte
	d := desc[:]
	if err := n.readDesc(rq.bal, rq.head, d); err != nil {
		n.mpc++
		return false
	}
	bufAddr := le32(d[0:4])
	if err := n.dmaWrite(bufAddr, pkt); err != nil {
		n.mpc++
		return false
	}
	put16(d[8:10], uint16(len(pkt)))
	d[12] |= DescDD | RxStEOP
	if err := n.writeDesc(rq.bal, rq.head, d); err != nil {
		n.mpc++
		return false
	}
	rq.head = (rq.head + 1) % count
	n.gprc++
	n.raise(1 << uint(q))
	return true
}

// Counters exposes the statistics the driver's watchdog reads.
func (n *MQNIC) Counters() (tx, rx, missed uint32) { return n.gptc, n.gprc, n.mpc }

// QueueTxCounts returns good packets transmitted per TX queue
// (drivermodel.QueueCounters).
func (n *MQNIC) QueueTxCounts() []uint64 {
	out := make([]uint64, NumQueues)
	copy(out, n.qtx[:])
	return out
}

// SetOnTransmit installs the wire callback (drivermodel.Device).
func (n *MQNIC) SetOnTransmit(fn func(pkt []byte)) { n.OnTransmit = fn }

// HWAddr returns the current station address (drivermodel.Device).
func (n *MQNIC) HWAddr() [6]byte { return n.MAC }

// LinkUp reports link state.
func (n *MQNIC) LinkUp() bool { return n.status&StatusLU != 0 }

// PendingInterrupt reports whether an unmasked cause is latched.
func (n *MQNIC) PendingInterrupt() bool { return n.icr&n.ims != 0 }
