// Package nic models an Intel e1000-class Gigabit Ethernet controller: a
// memory-mapped register block, legacy 16-byte transmit/receive descriptor
// rings, a DMA engine operating on physical memory, an interrupt line with
// a cause/mask register pair, and hardware statistics counters.
//
// The device is driven exactly the way the real one is: the driver writes
// ring base/size registers at initialisation, fills descriptors in memory,
// and moves the tail registers; the device consumes descriptors, DMAs
// payloads, writes back status bits (DD) and asserts its interrupt line.
// An optional IOMMU restricts which frames DMA may touch — the mitigation
// §4.5 of the paper points to for the DMA attack surface that TwinDrivers
// (like Xen's driver domains) otherwise leaves open.
package nic

import (
	"fmt"

	"twindrivers/internal/mem"
)

// Register offsets (byte offsets into the MMIO block), following the
// e1000 layout.
const (
	RegCTRL    = 0x0000
	RegSTATUS  = 0x0008
	RegICR     = 0x00C0 // interrupt cause, read-to-clear
	RegIMS     = 0x00D0 // interrupt mask set
	RegIMC     = 0x00D8 // interrupt mask clear
	RegRCTL    = 0x0100
	RegTCTL    = 0x0400
	RegRDBAL   = 0x2800
	RegRDLEN   = 0x2808
	RegRDH     = 0x2810
	RegRDT     = 0x2818
	RegTDBAL   = 0x3800
	RegTDLEN   = 0x3808
	RegTDH     = 0x3810
	RegTDT     = 0x3818
	RegCRCERRS = 0x4000 // CRC error count
	RegMPC     = 0x4010 // missed packets (no RX descriptors)
	RegGPRC    = 0x4074 // good packets received
	RegGPTC    = 0x4080 // good packets transmitted
	RegGORCL   = 0x4088 // good octets received
	RegGOTCL   = 0x4090 // good octets transmitted
	RegRAL     = 0x5400 // receive address low
	RegRAH     = 0x5404 // receive address high

	// MMIOPages is the size of the register block in pages.
	MMIOPages = 32 // 128 KiB BAR, as on the real device
)

// Interrupt cause bits.
const (
	IntTXDW = 1 << 0 // transmit descriptor written back
	IntLSC  = 1 << 2 // link status change
	IntRXT0 = 1 << 7 // receiver timer (packet received)
)

// Control/status bits.
const (
	CtrlRST  = 1 << 26
	StatusLU = 1 << 1 // link up
	RctlEN   = 1 << 1
	TctlEN   = 1 << 1
)

// Descriptor layout (legacy, 16 bytes).
const (
	DescSize = 16

	TxCmdEOP = 1 << 0
	TxCmdRS  = 1 << 3
	DescDD   = 1 << 0 // status: descriptor done
	RxStEOP  = 1 << 1
)

// IOMMU restricts DMA to frames owned by an allowed owner.
type IOMMU struct {
	Allowed    map[mem.Owner]bool
	Violations uint64
}

// Check reports whether DMA touching frame f is permitted.
func (io *IOMMU) Check(phys *mem.Physical, f uint32) bool {
	if io.Allowed[phys.FrameOwner(f)] {
		return true
	}
	io.Violations++
	return false
}

// NIC is one simulated controller.
type NIC struct {
	Name string
	Phys *mem.Physical
	MAC  [6]byte

	// IRQ is invoked when the interrupt line asserts (cause & mask != 0).
	IRQ func()

	// OnTransmit receives every transmitted packet (the wire). pkt is the
	// device's gather buffer: it is valid only for the duration of the
	// call, so a consumer that keeps the frame must copy it.
	OnTransmit func(pkt []byte)

	// IOMMU, when non-nil, vets every DMA access.
	IOMMU *IOMMU

	ctrl, status uint32
	icr, ims     uint32
	rctl, tctl   uint32

	rdbal, rdlen, rdh, rdt uint32
	tdbal, tdlen, tdh, tdt uint32

	ral, rah uint32

	// Statistics registers.
	gprc, gptc, mpc, crcerrs uint32
	gorc, gotc               uint64

	// DMAViolation records the first blocked DMA for diagnostics.
	DMAViolation string

	txbuf []byte // the frame processTx is gathering; reused across frames
}

// New creates a NIC over physical memory with the given MAC address.
func New(name string, phys *mem.Physical, macLast byte) *NIC {
	n := &NIC{Name: name, Phys: phys, status: StatusLU}
	n.MAC = [6]byte{0x00, 0x16, 0x3E, 0x00, 0x00, macLast}
	return n
}

// MMIORead implements mem.MMIO.
func (n *NIC) MMIORead(off uint32, size uint32) uint32 {
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
	case RegRDBAL:
		return n.rdbal
	case RegRDLEN:
		return n.rdlen
	case RegRDH:
		return n.rdh
	case RegRDT:
		return n.rdt
	case RegTDBAL:
		return n.tdbal
	case RegTDLEN:
		return n.tdlen
	case RegTDH:
		return n.tdh
	case RegTDT:
		return n.tdt
	case RegGPRC:
		return n.gprc
	case RegGPTC:
		return n.gptc
	case RegMPC:
		return n.mpc
	case RegCRCERRS:
		return n.crcerrs
	case RegGORCL:
		return uint32(n.gorc)
	case RegGOTCL:
		return uint32(n.gotc)
	case RegRAL:
		return n.ral
	case RegRAH:
		return n.rah
	}
	return 0
}

// MMIOWrite implements mem.MMIO.
func (n *NIC) MMIOWrite(off uint32, size uint32, val uint32) {
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
	case RegRDBAL:
		n.rdbal = val
	case RegRDLEN:
		n.rdlen = val
	case RegRDH:
		n.rdh = val
	case RegRDT:
		n.rdt = val
	case RegTDBAL:
		n.tdbal = val
	case RegTDLEN:
		n.tdlen = val
	case RegTDH:
		n.tdh = val
	case RegTDT:
		n.tdt = val
		n.processTx()
	case RegRAL:
		n.ral = val
		n.MAC[0], n.MAC[1], n.MAC[2], n.MAC[3] = byte(val), byte(val>>8), byte(val>>16), byte(val>>24)
	case RegRAH:
		n.rah = val
		n.MAC[4], n.MAC[5] = byte(val), byte(val>>8)
	}
}

func (n *NIC) reset() {
	*n = NIC{Name: n.Name, Phys: n.Phys, MAC: n.MAC, IRQ: n.IRQ,
		OnTransmit: n.OnTransmit, IOMMU: n.IOMMU, status: StatusLU, txbuf: n.txbuf}
}

func (n *NIC) maybeInterrupt() {
	if n.icr&n.ims != 0 && n.IRQ != nil {
		n.IRQ()
	}
}

// raise sets cause bits and asserts the line if unmasked.
func (n *NIC) raise(cause uint32) {
	n.icr |= cause
	n.maybeInterrupt()
}

// dmaRead fills out from physical memory (descriptor buffers may cross
// frame boundaries).
func (n *NIC) dmaRead(pa uint32, out []byte) error {
	for i := 0; i < len(out); {
		f := (pa + uint32(i)) / mem.PageSize
		off := (pa + uint32(i)) & mem.PageMask
		if n.IOMMU != nil && !n.IOMMU.Check(n.Phys, f) {
			n.DMAViolation = fmt.Sprintf("%s: blocked DMA read of frame %#x (owner %d)", n.Name, f, n.Phys.FrameOwner(f))
			return fmt.Errorf("nic: %s", n.DMAViolation)
		}
		fd := n.Phys.FrameData(f)
		if fd == nil {
			return fmt.Errorf("nic: %s: DMA read of unbacked frame %#x", n.Name, f)
		}
		c := copy(out[i:], fd[off:])
		i += c
	}
	return nil
}

func (n *NIC) dmaWrite(pa uint32, data []byte) error {
	for i := 0; i < len(data); {
		f := (pa + uint32(i)) / mem.PageSize
		off := (pa + uint32(i)) & mem.PageMask
		if n.IOMMU != nil && !n.IOMMU.Check(n.Phys, f) {
			n.DMAViolation = fmt.Sprintf("%s: blocked DMA write of frame %#x (owner %d)", n.Name, f, n.Phys.FrameOwner(f))
			return fmt.Errorf("nic: %s", n.DMAViolation)
		}
		fd := n.Phys.FrameData(f)
		if fd == nil {
			return fmt.Errorf("nic: %s: DMA write of unbacked frame %#x", n.Name, f)
		}
		c := copy(fd[off:], data[i:])
		i += c
	}
	return nil
}

func (n *NIC) readDesc(base uint32, idx uint32, d []byte) error {
	return n.dmaRead(base+idx*DescSize, d)
}

func (n *NIC) writeDesc(base uint32, idx uint32, d []byte) error {
	return n.dmaWrite(base+idx*DescSize, d)
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func le16(b []byte) uint16 { return uint16(b[0]) | uint16(b[1])<<8 }
func put16(b []byte, v uint16) {
	b[0], b[1] = byte(v), byte(v>>8)
}

// processTx consumes descriptors from TDH up to TDT. Multi-descriptor
// packets (frag chains) accumulate until a descriptor with EOP.
func (n *NIC) processTx() {
	if n.tctl&TctlEN == 0 || n.tdlen == 0 {
		return
	}
	count := n.tdlen / DescSize
	n.txbuf = n.txbuf[:0]
	raised := false
	for n.tdh != n.tdt {
		var desc [DescSize]byte
		d := desc[:]
		if err := n.readDesc(n.tdbal, n.tdh, d); err != nil {
			return // DMA blocked: packet lost, ring stalls
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
			n.gotc += uint64(len(n.txbuf))
			if n.OnTransmit != nil {
				n.OnTransmit(n.txbuf)
			}
			n.txbuf = n.txbuf[:0]
		}
		// Write back DD.
		d[12] |= DescDD
		if err := n.writeDesc(n.tdbal, n.tdh, d); err != nil {
			return
		}
		if cmd&TxCmdRS != 0 {
			raised = true
		}
		n.tdh = (n.tdh + 1) % count
	}
	if raised {
		n.raise(IntTXDW)
	}
}

// Inject delivers a received packet into the RX ring. It returns false
// (and counts a missed packet) when the driver has provided no free
// descriptor.
func (n *NIC) Inject(pkt []byte) bool {
	if n.rctl&RctlEN == 0 || n.rdlen == 0 {
		n.mpc++
		return false
	}
	count := n.rdlen / DescSize
	next := (n.rdh + 1) % count
	if n.rdh == n.rdt {
		// Ring empty: no buffers.
		n.mpc++
		return false
	}
	_ = next
	var desc [DescSize]byte
	d := desc[:]
	if err := n.readDesc(n.rdbal, n.rdh, d); err != nil {
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
	if err := n.writeDesc(n.rdbal, n.rdh, d); err != nil {
		n.mpc++
		return false
	}
	n.rdh = (n.rdh + 1) % count
	n.gprc++
	n.gorc += uint64(len(pkt))
	n.raise(IntRXT0)
	return true
}

// Counters exposes the statistics the driver's watchdog reads.
func (n *NIC) Counters() (tx, rx, missed uint32) { return n.gptc, n.gprc, n.mpc }

// SetOnTransmit installs the wire callback (drivermodel.Device).
func (n *NIC) SetOnTransmit(fn func(pkt []byte)) { n.OnTransmit = fn }

// HWAddr returns the current station address (drivermodel.Device).
func (n *NIC) HWAddr() [6]byte { return n.MAC }

// LinkUp reports link state.
func (n *NIC) LinkUp() bool { return n.status&StatusLU != 0 }

// PendingInterrupt reports whether an unmasked cause is latched.
func (n *NIC) PendingInterrupt() bool { return n.icr&n.ims != 0 }
