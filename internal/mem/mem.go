// Package mem models the physical and virtual memory of the simulated
// machine: a physical frame pool with per-frame ownership, per-domain page
// tables (address spaces), and memory-mapped I/O regions.
//
// Frame ownership is what TwinDrivers' SVM slow path checks when the
// hypervisor driver touches a page for the first time: "if the access is
// permitted (i.e., the memory page belongs to dom0 address space)" (§4.1).
// Address spaces support a shared global region — the hypervisor mapping
// present in every guest context — which is what lets the hypervisor driver
// run without an address-space switch.
package mem

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the size of a page/frame in bytes.
const PageSize = 4096

// PageMask masks the offset within a page.
const PageMask = PageSize - 1

// Owner identifies the owner of a physical frame. By convention the
// hypervisor is OwnerHypervisor, dom0 is 0, and guests are positive.
type Owner int

// Reserved owners.
const (
	OwnerNone       Owner = -2
	OwnerHypervisor Owner = -1
	OwnerDom0       Owner = 0
)

// MMIO is implemented by devices that claim physical frames. Accesses to
// such frames bypass RAM and are routed to the device. Offsets are relative
// to the start of the claimed region.
type MMIO interface {
	MMIORead(off uint32, size uint32) uint32
	MMIOWrite(off uint32, size uint32, val uint32)
}

// Physical is the machine's physical memory: a frame pool plus MMIO
// routing.
type Physical struct {
	// frames is indexed by frame number. Frames are handed out by a bump
	// counter and never freed, so the table is dense and its length is the
	// next frame number. Entry 0 is a placeholder that is never allocated,
	// so a zero PTE is never valid.
	frames []frameEntry
}

// frameEntry is everything known about one physical frame. A RAM frame has
// data, a device frame has dev (and base, the first frame of the device's
// region); the placeholder at index 0 has neither.
type frameEntry struct {
	data  *[PageSize]byte
	dev   MMIO
	base  uint32
	owner Owner
}

// NewPhysical returns an empty physical memory.
func NewPhysical() *Physical {
	return &Physical{frames: []frameEntry{{owner: OwnerNone}}}
}

// AllocFrame allocates a fresh zeroed frame owned by owner.
func (p *Physical) AllocFrame(owner Owner) uint32 {
	p.frames = append(p.frames, frameEntry{data: new([PageSize]byte), owner: owner})
	return uint32(len(p.frames) - 1)
}

// AllocFrames allocates n physically contiguous frames.
func (p *Physical) AllocFrames(owner Owner, n int) uint32 {
	first := uint32(len(p.frames))
	for i := 0; i < n; i++ {
		p.AllocFrame(owner)
	}
	return first
}

// ClaimMMIO reserves n contiguous frames for a device and routes accesses
// to it. Returns the first frame number.
func (p *Physical) ClaimMMIO(owner Owner, n int, dev MMIO) uint32 {
	first := uint32(len(p.frames))
	for i := 0; i < n; i++ {
		p.frames = append(p.frames, frameEntry{dev: dev, base: first, owner: owner})
	}
	return first
}

// entry returns the table entry of frame f. A frame that was never
// allocated reads as the placeholder at index 0: no owner, no RAM, no
// device.
func (p *Physical) entry(f uint32) *frameEntry {
	if f < uint32(len(p.frames)) {
		return &p.frames[f]
	}
	return &p.frames[0]
}

// FrameOwner returns the owner of a frame, or OwnerNone if unallocated.
func (p *Physical) FrameOwner(f uint32) Owner { return p.entry(f).owner }

// SetFrameOwner transfers frame ownership (grant-table style page transfer).
func (p *Physical) SetFrameOwner(f uint32, o Owner) {
	if e := p.entry(f); e != &p.frames[0] {
		e.owner = o
	}
}

// IsMMIO reports whether a frame is device-mapped.
func (p *Physical) IsMMIO(f uint32) bool { return p.entry(f).dev != nil }

// FrameData returns the RAM storage of a frame (nil for MMIO/unallocated).
func (p *Physical) FrameData(f uint32) *[PageSize]byte { return p.entry(f).data }

// readPhys reads size (1/2/4) bytes at physical address pa. The access must
// not cross a frame boundary.
func (p *Physical) readPhys(pa uint32, size uint32) (uint32, error) {
	f, off := pa/PageSize, pa&PageMask
	e := p.entry(f)
	if e.dev != nil {
		return e.dev.MMIORead((f-e.base)*PageSize+off, size), nil
	}
	fr := e.data
	if fr == nil {
		return 0, fmt.Errorf("mem: physical read of unallocated frame %#x", f)
	}
	// One little-endian access for the sizes the ISA has; any other size
	// keeps the byte loop.
	switch size {
	case 4:
		return binary.LittleEndian.Uint32(fr[off : off+4]), nil
	case 2:
		return uint32(binary.LittleEndian.Uint16(fr[off : off+2])), nil
	case 1:
		return uint32(fr[off]), nil
	}
	var v uint32
	for i := uint32(0); i < size; i++ {
		v |= uint32(fr[off+i]) << (8 * i)
	}
	return v, nil
}

func (p *Physical) writePhys(pa uint32, size uint32, val uint32) error {
	f, off := pa/PageSize, pa&PageMask
	e := p.entry(f)
	if e.dev != nil {
		e.dev.MMIOWrite((f-e.base)*PageSize+off, size, val)
		return nil
	}
	fr := e.data
	if fr == nil {
		return fmt.Errorf("mem: physical write of unallocated frame %#x", f)
	}
	switch size {
	case 4:
		binary.LittleEndian.PutUint32(fr[off:off+4], val)
	case 2:
		binary.LittleEndian.PutUint16(fr[off:off+2], uint16(val))
	case 1:
		fr[off] = byte(val)
	default:
		for i := uint32(0); i < size; i++ {
			fr[off+i] = byte(val >> (8 * i))
		}
	}
	return nil
}

// PageFault reports a failed virtual memory access.
type PageFault struct {
	Space string
	Addr  uint32
	Write bool
}

func (e *PageFault) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	return fmt.Sprintf("mem: page fault: %s of %#08x in %s", kind, e.Addr, e.Space)
}

// AddressSpace is a virtual address space: a page table over Physical, with
// an optional shared global space consulted for pages the local table does
// not map (the hypervisor region present in every guest context).
type AddressSpace struct {
	Name   string
	Phys   *Physical
	Global *AddressSpace // nil for the hypervisor space itself

	// dir is a two-level page table: the top ptBits of a virtual page
	// number pick a leaf, the low ptBits a frame in it, and 0 means
	// unmapped (frame 0 is never allocated). It grows to the highest leaf
	// mapped so far, so a guest whose heap sits low in the address space
	// does not carry a full directory.
	dir    []*pageTable
	mapped int // non-zero entries over all leaves
}

const (
	ptBits = 10
	ptFan  = 1 << ptBits
	ptMask = ptFan - 1
)

type pageTable [ptFan]uint32

// NewAddressSpace returns an empty address space over phys.
func NewAddressSpace(name string, phys *Physical, global *AddressSpace) *AddressSpace {
	return &AddressSpace{Name: name, Phys: phys, Global: global}
}

// leaf returns the second-level table covering vpage, nil if none exists.
func (as *AddressSpace) leaf(vpage uint32) *pageTable {
	if hi := vpage >> ptBits; hi < uint32(len(as.dir)) {
		return as.dir[hi]
	}
	return nil
}

// Map installs vpage -> frame. Frame 0 is the invalid frame, so mapping it
// removes the mapping. A vpage beyond the 32-bit address space is ignored:
// no access can reach it.
func (as *AddressSpace) Map(vpage, frame uint32) {
	t := as.leaf(vpage)
	if t == nil {
		hi := vpage >> ptBits
		if frame == 0 || hi >= ptFan {
			return
		}
		if n := int(hi) + 1 - len(as.dir); n > 0 {
			as.dir = append(as.dir, make([]*pageTable, n)...)
		}
		t = new(pageTable)
		as.dir[hi] = t
	}
	slot := &t[vpage&ptMask]
	switch {
	case *slot == 0 && frame != 0:
		as.mapped++
	case *slot != 0 && frame == 0:
		as.mapped--
	}
	*slot = frame
}

// MapRange maps n consecutive pages starting at vaddr to consecutive frames
// starting at frame.
func (as *AddressSpace) MapRange(vaddr, frame uint32, n int) {
	vp := vaddr / PageSize
	for i := uint32(0); i < uint32(n); i++ {
		as.Map(vp+i, frame+i)
	}
}

// Unmap removes a mapping.
func (as *AddressSpace) Unmap(vpage uint32) { as.Map(vpage, 0) }

// Lookup translates a virtual page to a frame, consulting the global space.
func (as *AddressSpace) Lookup(vpage uint32) (uint32, bool) {
	if f, ok := as.LookupLocal(vpage); ok {
		return f, true
	}
	if as.Global != nil {
		return as.Global.Lookup(vpage)
	}
	return 0, false
}

// LookupLocal translates only through the local table (no global chaining).
func (as *AddressSpace) LookupLocal(vpage uint32) (uint32, bool) {
	if t := as.leaf(vpage); t != nil {
		f := t[vpage&ptMask]
		return f, f != 0
	}
	return 0, false
}

// Translate converts a virtual address to a physical address.
func (as *AddressSpace) Translate(vaddr uint32) (uint32, bool) {
	f, ok := as.Lookup(vaddr / PageSize)
	if !ok {
		return 0, false
	}
	return f*PageSize + vaddr&PageMask, true
}

// Load reads size (1/2/4) bytes at vaddr, handling page-straddling accesses
// (the ISA permits unaligned access, which is why SVM maps two consecutive
// pages per stlb miss).
func (as *AddressSpace) Load(vaddr uint32, size uint32) (uint32, error) {
	if (vaddr&PageMask)+size <= PageSize {
		pa, ok := as.Translate(vaddr)
		if !ok {
			return 0, &PageFault{Space: as.Name, Addr: vaddr}
		}
		return as.Phys.readPhys(pa, size)
	}
	var v uint32
	for i := uint32(0); i < size; i++ {
		b, err := as.Load(vaddr+i, 1)
		if err != nil {
			return 0, err
		}
		v |= b << (8 * i)
	}
	return v, nil
}

// Store writes size (1/2/4) bytes at vaddr.
func (as *AddressSpace) Store(vaddr uint32, size uint32, val uint32) error {
	if (vaddr&PageMask)+size <= PageSize {
		pa, ok := as.Translate(vaddr)
		if !ok {
			return &PageFault{Space: as.Name, Addr: vaddr, Write: true}
		}
		return as.Phys.writePhys(pa, size, val)
	}
	for i := uint32(0); i < size; i++ {
		if err := as.Store(vaddr+i, 1, val>>(8*i)); err != nil {
			return err
		}
	}
	return nil
}

// ReadBytes copies n bytes starting at vaddr into a fresh slice.
func (as *AddressSpace) ReadBytes(vaddr uint32, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := as.ReadInto(vaddr, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto fills dst with the len(dst) bytes starting at vaddr.
func (as *AddressSpace) ReadInto(vaddr uint32, dst []byte) error {
	for len(dst) > 0 {
		off := vaddr & PageMask
		chunk := min(PageSize-int(off), len(dst))
		f, ok := as.Lookup(vaddr / PageSize)
		if !ok {
			return &PageFault{Space: as.Name, Addr: vaddr}
		}
		if fd := as.Phys.FrameData(f); fd != nil {
			copy(dst[:chunk], fd[off:])
		} else {
			// MMIO or unallocated: one access per byte.
			for i := range dst[:chunk] {
				b, err := as.Load(vaddr+uint32(i), 1)
				if err != nil {
					return err
				}
				dst[i] = byte(b)
			}
		}
		vaddr += uint32(chunk)
		dst = dst[chunk:]
	}
	return nil
}

// WriteBytes copies b into memory at vaddr. A write that runs off the
// mapped pages has written every byte before the first unmapped page.
func (as *AddressSpace) WriteBytes(vaddr uint32, b []byte) error {
	for len(b) > 0 {
		off := vaddr & PageMask
		chunk := min(PageSize-int(off), len(b))
		f, ok := as.Lookup(vaddr / PageSize)
		if !ok {
			return &PageFault{Space: as.Name, Addr: vaddr, Write: true}
		}
		if fd := as.Phys.FrameData(f); fd != nil {
			copy(fd[off:], b[:chunk])
		} else {
			// MMIO or unallocated: one access per byte.
			for i, x := range b[:chunk] {
				if err := as.Store(vaddr+uint32(i), 1, uint32(x)); err != nil {
					return err
				}
			}
		}
		vaddr += uint32(chunk)
		b = b[chunk:]
	}
	return nil
}

// Copy moves n bytes from (srcAS, src) to (dstAS, dst). The hypervisor uses
// this shape when moving packet payloads between guest buffers and dom0
// sk_buffs.
func Copy(dstAS *AddressSpace, dst uint32, srcAS *AddressSpace, src uint32, n int) error {
	for n > 0 {
		soff, doff := src&PageMask, dst&PageMask
		chunk := min(PageSize-int(soff), PageSize-int(doff), n)
		sfn, ok := srcAS.Lookup(src / PageSize)
		if !ok {
			return &PageFault{Space: srcAS.Name, Addr: src}
		}
		dfn, ok := dstAS.Lookup(dst / PageSize)
		if !ok {
			return &PageFault{Space: dstAS.Name, Addr: dst, Write: true}
		}
		sf, df := srcAS.Phys.FrameData(sfn), dstAS.Phys.FrameData(dfn)
		if sf == nil || df == nil {
			// MMIO or unallocated: one access per byte.
			for i := 0; i < chunk; i++ {
				v, err := srcAS.Load(src+uint32(i), 1)
				if err != nil {
					return err
				}
				if err := dstAS.Store(dst+uint32(i), 1, v); err != nil {
					return err
				}
			}
		} else {
			copy(df[doff:], sf[soff:soff+uint32(chunk)])
		}
		src += uint32(chunk)
		dst += uint32(chunk)
		n -= chunk
	}
	return nil
}

// MappedPages returns the number of locally mapped pages.
func (as *AddressSpace) MappedPages() int { return as.mapped }
