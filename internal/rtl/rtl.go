// Package rtl models a Realtek RTL8139-class Fast Ethernet controller —
// the second NIC backend, chosen because its data-path geometry is
// genuinely different from the e1000's descriptor rings:
//
//   - receive lands in a single contiguous byte ring (RBSTART/RBLEN): the
//     device writes a 4-byte header (status, length) followed by the
//     packet, 4-byte aligned, wrapping byte-granular at the ring end; the
//     driver chases the device's write pointer (CBR) with its read pointer
//     (CAPR) and copies packets out;
//   - transmit uses four fixed slots (TSD0-3/TSAD0-3), each a contiguous
//     pre-mapped staging buffer: no scatter/gather, the driver copies the
//     whole frame in before firing the slot — which is why the hypervisor
//     transmit path for this model carries frames linear (TxHeaderSplit 0)
//     instead of chaining guest pages;
//   - the interrupt status register is write-1-to-clear (the e1000's ICR
//     is read-to-clear), and the media-status link bit is low-active.
//
// Register offsets are 4-byte aligned (the simulated machine's MMIO ops
// are word-sized); values and bit meanings follow the 8139 datasheet.
package rtl

import (
	"fmt"

	"twindrivers/internal/mem"
)

// Register offsets (byte offsets into the MMIO block).
const (
	RegIDR0    = 0x00 // station address bytes 0-3
	RegIDR4    = 0x04 // station address bytes 4-5
	RegTSD0    = 0x10 // transmit status/command, slot 0 (+4 per slot)
	RegTSAD0   = 0x20 // transmit start address, slot 0 (+4 per slot)
	RegRBSTART = 0x30 // RX byte-ring base (physical)
	RegCMD     = 0x34 // command: RST/RE/TE, BUFE read-only
	RegCAPR    = 0x38 // driver read pointer into the RX ring
	RegCBR     = 0x3C // device write pointer (read-only)
	RegIMR     = 0x40 // interrupt mask
	RegISR     = 0x44 // interrupt status, write-1-to-clear
	RegMPC     = 0x48 // missed packet counter (read-only)
	RegMSR     = 0x4C // media status: LINKB is LOW-active
	RegRBLEN   = 0x50 // RX ring length in bytes (multiple of 4)
	RegTXCNT   = 0x54 // good packets transmitted (read-only)
	RegRXCNT   = 0x58 // good packets received (read-only)

	// MMIOPages sizes the register BAR (the real part is 256 bytes).
	MMIOPages = 1
)

// Command register bits.
const (
	CmdBufE = 1 << 0 // RX ring empty (read-only)
	CmdTE   = 1 << 2 // transmitter enable
	CmdRE   = 1 << 3 // receiver enable
	CmdRST  = 1 << 4 // soft reset
)

// Interrupt bits (ISR/IMR).
const (
	IntROK   = 1 << 0 // receive OK
	IntTOK   = 1 << 2 // transmit OK
	IntRxOvw = 1 << 4 // RX ring overflow (packet missed)
)

// Transmit status bits (TSD). The driver writes the byte count (low 13
// bits) with OWN/TOK clear to fire a slot; the device sets them back.
const (
	TsdSizeMask = 0x1FFF
	TsdOwn      = 1 << 13 // DMA completed
	TsdTok      = 1 << 15 // transmit OK
)

// Media status bits.
const (
	MsrLinkB = 1 << 0 // inverse link: 0 = link up
)

// Receive header layout: u16 status, u16 length (packet + 4-byte CRC),
// then the packet, advanced 4-byte aligned.
const (
	RxHdrBytes = 4
	RxStROK    = 1 << 0
)

// TxSlots is the transmit slot count; TxBufBytes each slot's staging
// buffer size (one MTU frame plus headroom).
const (
	TxSlots    = 4
	TxBufBytes = 2048
)

// RTL8139 is one simulated controller.
type RTL8139 struct {
	Name string
	Phys *mem.Physical
	MAC  [6]byte

	// IRQ is invoked when the interrupt line asserts (isr & imr != 0).
	IRQ func()

	// OnTransmit receives every transmitted packet (the wire). pkt is the
	// device's staging buffer: it is valid only for the duration of the
	// call, so a consumer that keeps the frame must copy it.
	OnTransmit func(pkt []byte)

	cmd      uint32
	isr, imr uint32

	rbstart, rblen uint32
	capr, cbr      uint32

	tsd  [TxSlots]uint32
	tsad [TxSlots]uint32

	idr0, idr4 uint32

	// Statistics registers.
	txcnt, rxcnt, mpc uint32
	linkDown          bool

	txbuf []byte // the frame fireTx is sending; reused across frames
	rxbuf []byte // the header, frame and padding Inject writes; reused across frames
}

// New creates a controller over physical memory with the given MAC.
func New(name string, phys *mem.Physical, macLast byte) *RTL8139 {
	r := &RTL8139{Name: name, Phys: phys}
	r.MAC = [6]byte{0x00, 0xE0, 0x4C, 0x00, 0x00, macLast}
	return r
}

// MMIORead implements mem.MMIO.
func (r *RTL8139) MMIORead(off uint32, size uint32) uint32 {
	switch {
	case off == RegIDR0:
		return r.idr0
	case off == RegIDR4:
		return r.idr4
	case off >= RegTSD0 && off < RegTSD0+4*TxSlots:
		return r.tsd[(off-RegTSD0)/4]
	case off >= RegTSAD0 && off < RegTSAD0+4*TxSlots:
		return r.tsad[(off-RegTSAD0)/4]
	case off == RegRBSTART:
		return r.rbstart
	case off == RegCMD:
		v := r.cmd
		if r.cbr == r.capr {
			v |= CmdBufE
		}
		return v
	case off == RegCAPR:
		return r.capr
	case off == RegCBR:
		return r.cbr
	case off == RegIMR:
		return r.imr
	case off == RegISR:
		return r.isr // NOT read-to-clear: cleared by writing 1s back
	case off == RegMPC:
		return r.mpc
	case off == RegMSR:
		if r.linkDown {
			return MsrLinkB
		}
		return 0
	case off == RegRBLEN:
		return r.rblen
	case off == RegTXCNT:
		return r.txcnt
	case off == RegRXCNT:
		return r.rxcnt
	}
	return 0
}

// MMIOWrite implements mem.MMIO.
func (r *RTL8139) MMIOWrite(off uint32, size uint32, val uint32) {
	switch {
	case off == RegIDR0:
		r.idr0 = val
		r.MAC[0], r.MAC[1], r.MAC[2], r.MAC[3] = byte(val), byte(val>>8), byte(val>>16), byte(val>>24)
	case off == RegIDR4:
		r.idr4 = val & 0xFFFF
		r.MAC[4], r.MAC[5] = byte(val), byte(val>>8)
	case off >= RegTSD0 && off < RegTSD0+4*TxSlots:
		slot := (off - RegTSD0) / 4
		r.tsd[slot] = val & TsdSizeMask
		r.fireTx(slot)
	case off >= RegTSAD0 && off < RegTSAD0+4*TxSlots:
		r.tsad[(off-RegTSAD0)/4] = val
	case off == RegRBSTART:
		r.rbstart = val
	case off == RegCMD:
		if val&CmdRST != 0 {
			r.reset()
			return
		}
		r.cmd = val &^ uint32(CmdBufE)
	case off == RegCAPR:
		r.capr = val
	case off == RegIMR:
		r.imr = val
		r.maybeInterrupt()
	case off == RegISR:
		r.isr &^= val // write-1-to-clear
	case off == RegRBLEN:
		r.rblen = val &^ 3
	}
}

func (r *RTL8139) reset() {
	*r = RTL8139{Name: r.Name, Phys: r.Phys, MAC: r.MAC, IRQ: r.IRQ,
		OnTransmit: r.OnTransmit, linkDown: r.linkDown, txbuf: r.txbuf, rxbuf: r.rxbuf}
}

func (r *RTL8139) maybeInterrupt() {
	if r.isr&r.imr != 0 && r.IRQ != nil {
		r.IRQ()
	}
}

func (r *RTL8139) raise(cause uint32) {
	r.isr |= cause
	r.maybeInterrupt()
}

// dmaRead fills out from physical memory.
func (r *RTL8139) dmaRead(pa uint32, out []byte) error {
	for i := 0; i < len(out); {
		f := (pa + uint32(i)) / mem.PageSize
		off := (pa + uint32(i)) & mem.PageMask
		fd := r.Phys.FrameData(f)
		if fd == nil {
			return fmt.Errorf("rtl: %s: DMA read of unbacked frame %#x", r.Name, f)
		}
		c := copy(out[i:], fd[off:])
		i += c
	}
	return nil
}

func (r *RTL8139) dmaWrite(pa uint32, data []byte) error {
	for i := 0; i < len(data); {
		f := (pa + uint32(i)) / mem.PageSize
		off := (pa + uint32(i)) & mem.PageMask
		fd := r.Phys.FrameData(f)
		if fd == nil {
			return fmt.Errorf("rtl: %s: DMA write of unbacked frame %#x", r.Name, f)
		}
		c := copy(fd[off:], data[i:])
		i += c
	}
	return nil
}

// ringWrite writes data into the RX byte ring starting at ring offset off,
// wrapping at RBLEN (the header itself never wraps: offsets and advances
// are 4-byte aligned, so a header always has 4 contiguous bytes before the
// end; the payload wraps byte-granular).
func (r *RTL8139) ringWrite(off uint32, data []byte) error {
	first := int(r.rblen - off)
	if first > len(data) {
		first = len(data)
	}
	if err := r.dmaWrite(r.rbstart+off, data[:first]); err != nil {
		return err
	}
	if first < len(data) {
		return r.dmaWrite(r.rbstart, data[first:])
	}
	return nil
}

// fireTx transmits one slot: DMA the staged frame out of TSAD[slot] and
// complete the slot (OWN+TOK), raising the TOK cause.
func (r *RTL8139) fireTx(slot uint32) {
	if r.cmd&CmdTE == 0 {
		return
	}
	ln := int(r.tsd[slot] & TsdSizeMask)
	r.txbuf = append(r.txbuf[:0], make([]byte, ln)...)
	if err := r.dmaRead(r.tsad[slot], r.txbuf); err != nil {
		return // DMA blocked: the slot never completes
	}
	if r.OnTransmit != nil {
		r.OnTransmit(r.txbuf)
	}
	r.txcnt++
	r.tsd[slot] |= TsdOwn | TsdTok
	r.raise(IntTOK)
}

// Inject delivers a received packet into the RX byte ring. It returns
// false (and counts a missed packet) when the receiver is down or the ring
// lacks space.
func (r *RTL8139) Inject(pkt []byte) bool {
	if r.cmd&CmdRE == 0 || r.rblen == 0 || r.rbstart == 0 {
		r.mpc++
		return false
	}
	needed := (RxHdrBytes + uint32(len(pkt)) + 3) &^ 3
	free := r.rblen - 1
	if r.cbr != r.capr {
		free = (r.capr - r.cbr - 1 + r.rblen) % r.rblen
	}
	if needed > free {
		r.mpc++
		r.raise(IntRxOvw)
		return false
	}
	r.rxbuf = append(r.rxbuf[:0], make([]byte, needed)...) // zeroed: the padding is part of the record
	buf := r.rxbuf
	status := uint16(RxStROK)
	buf[0], buf[1] = byte(status), byte(status>>8)
	wireLen := uint16(len(pkt)) + 4 // the hardware includes the CRC
	buf[2], buf[3] = byte(wireLen), byte(wireLen>>8)
	copy(buf[RxHdrBytes:], pkt)
	if err := r.ringWrite(r.cbr, buf); err != nil {
		r.mpc++
		return false
	}
	r.cbr = (r.cbr + needed) % r.rblen
	r.rxcnt++
	r.raise(IntROK)
	return true
}

// SetLink drives the (low-active) LINKB bit of the media status register.
func (r *RTL8139) SetLink(up bool) { r.linkDown = !up }

// SetOnTransmit installs the wire callback (drivermodel.Device).
func (r *RTL8139) SetOnTransmit(fn func(pkt []byte)) { r.OnTransmit = fn }

// HWAddr returns the current station address (drivermodel.Device).
func (r *RTL8139) HWAddr() [6]byte { return r.MAC }

// Counters exposes the statistics the driver's watchdog reads.
func (r *RTL8139) Counters() (tx, rx, missed uint32) { return r.txcnt, r.rxcnt, r.mpc }

// LinkUp reports link state.
func (r *RTL8139) LinkUp() bool { return !r.linkDown }

// PendingInterrupt reports whether an unmasked cause is latched.
func (r *RTL8139) PendingInterrupt() bool { return r.isr&r.imr != 0 }
