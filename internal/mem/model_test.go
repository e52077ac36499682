package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The frame table, the two-level page table and the page-chunked byte moves
// are host-clock structures only: each must behave exactly as the simplest
// model of it. These tests hold them against that model — a per-byte
// Store/Load loop for the byte moves, a map[uint32]uint32 for the page
// table.

// mmioAccess is one device access as the fake device saw it.
type mmioAccess struct {
	write          bool
	off, size, val uint32
}

// logDev records every access and reads back a value derived from the
// offset, so a reordered or resized access shows in the log or the data.
type logDev struct{ log []mmioAccess }

func (d *logDev) MMIORead(off, size uint32) uint32 {
	d.log = append(d.log, mmioAccess{off: off, size: size})
	return off*7 + 3
}

func (d *logDev) MMIOWrite(off, size, val uint32) {
	d.log = append(d.log, mmioAccess{write: true, off: off, size: size, val: val})
}

// World layout, by virtual page: two RAM pages (a straddle), an MMIO page in
// the middle, one more RAM page, then an unmapped successor.
const (
	worldBase  = 0x10000
	worldPages = 5 // the last one is unmapped
	worldMMIO  = 2
)

type world struct {
	as  *AddressSpace
	dev *logDev
}

func newWorld() *world {
	w := &world{dev: &logDev{}}
	p := NewPhysical()
	w.as = NewAddressSpace("w", p, nil)
	for vp := uint32(0); vp < worldPages-1; vp++ {
		if vp == worldMMIO {
			w.as.Map(worldBase/PageSize+vp, p.ClaimMMIO(OwnerDom0, 1, w.dev))
			continue
		}
		f := p.AllocFrame(OwnerDom0)
		fd := p.FrameData(f)
		for i := range fd {
			fd[i] = byte(int(vp)*31 + i)
		}
		w.as.Map(worldBase/PageSize+vp, f)
	}
	return w
}

// ram returns the contents of every RAM page, in page order.
func (w *world) ram() []byte {
	var out []byte
	for vp := uint32(0); vp < worldPages-1; vp++ {
		f, _ := w.as.Lookup(worldBase/PageSize + vp)
		if fd := w.as.Phys.FrameData(f); fd != nil {
			out = append(out, fd[:]...)
		}
	}
	return out
}

// writeByByte is the reference WriteBytes: one Store per byte.
func writeByByte(as *AddressSpace, vaddr uint32, b []byte) error {
	for i, x := range b {
		if err := as.Store(vaddr+uint32(i), 1, uint32(x)); err != nil {
			return err
		}
	}
	return nil
}

// readByByte is the reference ReadBytes: one Load per byte, nil on a fault.
func readByByte(as *AddressSpace, vaddr uint32, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := range out {
		b, err := as.Load(vaddr+uint32(i), 1)
		if err != nil {
			return nil, err
		}
		out[i] = byte(b)
	}
	return out, nil
}

// span maps two random words onto an (addr, len) that starts anywhere in
// the world and may run well past its unmapped page.
func span(a, n uint16) (uint32, int) {
	return worldBase + uint32(a)%(worldPages*PageSize), int(n) % (3 * PageSize)
}

func TestWriteBytesMatchesByteLoop(t *testing.T) {
	f := func(a, n uint16, seed int64) bool {
		addr, ln := span(a, n)
		data := make([]byte, ln)
		rand.New(rand.NewSource(seed)).Read(data)

		ref, got := newWorld(), newWorld()
		refErr := writeByByte(ref.as, addr, data)
		gotErr := got.as.WriteBytes(addr, data)
		if !reflect.DeepEqual(refErr, gotErr) {
			t.Logf("WriteBytes(%#x, %d): error %v, byte loop %v", addr, ln, gotErr, refErr)
			return false
		}
		if !bytes.Equal(ref.ram(), got.ram()) {
			t.Logf("WriteBytes(%#x, %d): memory differs from the byte loop", addr, ln)
			return false
		}
		if !reflect.DeepEqual(ref.dev.log, got.dev.log) {
			t.Logf("WriteBytes(%#x, %d): device saw %d accesses, byte loop %d", addr, ln, len(got.dev.log), len(ref.dev.log))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReadBytesMatchesByteLoop(t *testing.T) {
	f := func(a, n uint16) bool {
		addr, ln := span(a, n)
		ref, got, into := newWorld(), newWorld(), newWorld()
		want, refErr := readByByte(ref.as, addr, ln)
		data, gotErr := got.as.ReadBytes(addr, ln)
		if !reflect.DeepEqual(refErr, gotErr) || !bytes.Equal(want, data) || (want == nil) != (data == nil) {
			t.Logf("ReadBytes(%#x, %d) = %d bytes, %v; byte loop %d bytes, %v", addr, ln, len(data), gotErr, len(want), refErr)
			return false
		}
		dst := make([]byte, ln)
		intoErr := into.as.ReadInto(addr, dst)
		if !reflect.DeepEqual(refErr, intoErr) {
			t.Logf("ReadInto(%#x, %d): error %v, byte loop %v", addr, ln, intoErr, refErr)
			return false
		}
		if refErr == nil && !bytes.Equal(want, dst) {
			t.Logf("ReadInto(%#x, %d): data differs from the byte loop", addr, ln)
			return false
		}
		if pf, ok := refErr.(*PageFault); ok {
			// Everything before the faulting page was read.
			prefix, err := readByByte(newWorld().as, addr, int(pf.Addr-addr))
			if err != nil || !bytes.Equal(prefix, dst[:len(prefix)]) {
				t.Logf("ReadInto(%#x, %d): prefix before the fault at %#x not filled", addr, ln, pf.Addr)
				return false
			}
		}
		for _, w := range []*world{got, into} {
			if !reflect.DeepEqual(ref.dev.log, w.dev.log) {
				t.Logf("read of (%#x, %d): device saw %d accesses, byte loop %d", addr, ln, len(w.dev.log), len(ref.dev.log))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestByteMovesFaultAtPageBoundary pins the fault contract by example: a
// write running off the last mapped page has written everything up to the
// boundary and reports the first unmapped address.
func TestByteMovesFaultAtPageBoundary(t *testing.T) {
	w := newWorld()
	last := uint32(worldBase + (worldPages-1)*PageSize) // first unmapped address
	data := bytes.Repeat([]byte{0xEE}, 100)
	err := w.as.WriteBytes(last-40, data)
	want := &PageFault{Space: "w", Addr: last, Write: true}
	if !reflect.DeepEqual(err, want) {
		t.Fatalf("WriteBytes across the end = %v, want %v", err, want)
	}
	got, err := w.as.ReadBytes(last-40, 40)
	if err != nil || !bytes.Equal(got, data[:40]) {
		t.Errorf("the 40 bytes before the boundary were not written (%v)", err)
	}
	if _, err := w.as.ReadBytes(last-40, 41); !reflect.DeepEqual(err, &PageFault{Space: "w", Addr: last}) {
		t.Errorf("ReadBytes across the end = %v", err)
	}
}

func TestPageTableMatchesMap(t *testing.T) {
	// Pages on both sides of a leaf boundary, in distant leaves, and at the
	// very top of the address space, so every directory path is taken.
	pages := []uint32{0, 1, ptFan - 1, ptFan, ptFan + 1, 0x40000, 0x40001, 0xC0000, 0xFFFFF}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewPhysical()
		global := NewAddressSpace("g", p, nil)
		local := NewAddressSpace("l", p, global)
		spaces := []*AddressSpace{global, local}
		refs := []map[uint32]uint32{{}, {}}
		for step := 0; step < 200; step++ {
			vp := pages[rng.Intn(len(pages))]
			if rng.Intn(4) == 0 {
				vp = uint32(rng.Intn(1 << 20))
			}
			which := rng.Intn(2)
			as, ref := spaces[which], refs[which]
			switch frame := uint32(rng.Intn(6)); {
			case rng.Intn(3) == 0:
				as.Unmap(vp)
				delete(ref, vp)
			case frame == 0:
				as.Map(vp, 0) // the invalid frame: same as Unmap
				delete(ref, vp)
			default:
				as.Map(vp, frame)
				ref[vp] = frame
			}
			for _, q := range append(pages, vp, vp+1) {
				lf, lok := refs[1][q]
				gf, gok := refs[0][q]
				if f, ok := local.LookupLocal(q); f != lf || ok != lok {
					t.Logf("LookupLocal(%#x) = %d,%v want %d,%v", q, f, ok, lf, lok)
					return false
				}
				wf, wok := lf, lok
				if !lok {
					wf, wok = gf, gok
				}
				if f, ok := local.Lookup(q); f != wf || ok != wok {
					t.Logf("Lookup(%#x) through the global space = %d,%v want %d,%v", q, f, ok, wf, wok)
					return false
				}
				if f, ok := global.Lookup(q); f != gf || ok != gok {
					t.Logf("global Lookup(%#x) = %d,%v want %d,%v", q, f, ok, gf, gok)
					return false
				}
			}
			if local.MappedPages() != len(refs[1]) || global.MappedPages() != len(refs[0]) {
				t.Logf("MappedPages = %d/%d, want %d/%d", local.MappedPages(), global.MappedPages(), len(refs[1]), len(refs[0]))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPageBeyondAddressSpaceIsNotMapped(t *testing.T) {
	as := NewAddressSpace("t", NewPhysical(), nil)
	as.Map(1<<20, 7)
	if _, ok := as.Lookup(1 << 20); ok || as.MappedPages() != 0 {
		t.Error("a page no 32-bit address reaches was recorded")
	}
}

func TestFrameTableEdges(t *testing.T) {
	p := NewPhysical()
	ram := p.AllocFrame(OwnerDom0)
	dev := &logDev{}
	mmio := p.ClaimMMIO(Owner(2), 2, dev)
	unallocated := mmio + 2

	for _, c := range []struct {
		name   string
		frame  uint32
		owner  Owner
		isMMIO bool
		data   bool
	}{
		{"frame 0", 0, OwnerNone, false, false},
		{"ram", ram, OwnerDom0, false, true},
		{"mmio", mmio + 1, Owner(2), true, false},
		{"unallocated", unallocated, OwnerNone, false, false},
		{"far", 1 << 30, OwnerNone, false, false},
	} {
		if o := p.FrameOwner(c.frame); o != c.owner {
			t.Errorf("%s: FrameOwner = %d, want %d", c.name, o, c.owner)
		}
		if p.IsMMIO(c.frame) != c.isMMIO {
			t.Errorf("%s: IsMMIO = %v", c.name, !c.isMMIO)
		}
		if (p.FrameData(c.frame) != nil) != c.data {
			t.Errorf("%s: FrameData presence = %v", c.name, !c.data)
		}
	}

	// Ownership moves only on frames that exist; frame 0 never does.
	for _, f := range []uint32{0, unallocated, 1 << 30} {
		p.SetFrameOwner(f, Owner(9))
		if o := p.FrameOwner(f); o != OwnerNone {
			t.Errorf("SetFrameOwner invented frame %#x (owner %d)", f, o)
		}
	}
	p.SetFrameOwner(mmio, Owner(9))
	if p.FrameOwner(mmio) != Owner(9) || p.FrameOwner(mmio+1) != Owner(2) {
		t.Error("SetFrameOwner on an MMIO frame")
	}

	// The second MMIO frame routes with an offset relative to the region.
	as := NewAddressSpace("t", p, nil)
	as.MapRange(0x20000, mmio, 2)
	if _, err := as.Load(0x20000+PageSize+8, 4); err != nil {
		t.Fatal(err)
	}
	if want := []mmioAccess{{off: PageSize + 8, size: 4}}; !reflect.DeepEqual(dev.log, want) {
		t.Errorf("device saw %+v, want %+v", dev.log, want)
	}

	// A page mapped to a frame that was never allocated is not a page
	// fault: the access reaches physical memory and fails there.
	as.Map(0x30, unallocated)
	if _, err := as.Load(0x30000, 4); err == nil {
		t.Error("load through an unallocated frame succeeded")
	} else if _, isPF := err.(*PageFault); isPF {
		t.Errorf("unallocated frame reported as a page fault: %v", err)
	}
	if err := as.WriteBytes(0x30000, []byte{1}); err == nil {
		t.Error("WriteBytes through an unallocated frame succeeded")
	}
}

// refReadPhys and refWritePhys are the physical accessors as they stood
// before the word-sized moves: MMIO first, then the unallocated-frame
// test, then one byte at a time.
func refReadPhys(p *Physical, pa, size uint32) (uint32, error) {
	f, off := pa/PageSize, pa&PageMask
	e := p.entry(f)
	if e.dev != nil {
		return e.dev.MMIORead((f-e.base)*PageSize+off, size), nil
	}
	fr := e.data
	if fr == nil {
		return 0, fmt.Errorf("mem: physical read of unallocated frame %#x", f)
	}
	var v uint32
	for i := uint32(0); i < size; i++ {
		v |= uint32(fr[off+i]) << (8 * i)
	}
	return v, nil
}

func refWritePhys(p *Physical, pa, size, val uint32) error {
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
	for i := uint32(0); i < size; i++ {
		fr[off+i] = byte(val >> (8 * i))
	}
	return nil
}

// refLoad and refStore are Load and Store over the reference accessors.
func refLoad(as *AddressSpace, vaddr, size uint32) (uint32, error) {
	if (vaddr&PageMask)+size <= PageSize {
		pa, ok := as.Translate(vaddr)
		if !ok {
			return 0, &PageFault{Space: as.Name, Addr: vaddr}
		}
		return refReadPhys(as.Phys, pa, size)
	}
	var v uint32
	for i := uint32(0); i < size; i++ {
		b, err := refLoad(as, vaddr+i, 1)
		if err != nil {
			return 0, err
		}
		v |= b << (8 * i)
	}
	return v, nil
}

func refStore(as *AddressSpace, vaddr, size, val uint32) error {
	if (vaddr&PageMask)+size <= PageSize {
		pa, ok := as.Translate(vaddr)
		if !ok {
			return &PageFault{Space: as.Name, Addr: vaddr, Write: true}
		}
		return refWritePhys(as.Phys, pa, size, val)
	}
	for i := uint32(0); i < size; i++ {
		if err := refStore(as, vaddr+i, 1, val>>(8*i)); err != nil {
			return err
		}
	}
	return nil
}

// TestLoadStoreMatchByteLoop holds Load and Store against the byte-loop
// reference at every kind of place an access can land: inside a RAM page
// (aligned and not), on its last bytes, across each kind of page boundary,
// inside the device page, on a page mapped to a frame nobody allocated and
// on an unmapped page. Value, error, RAM contents and the device's log
// (offset, size, value and number of calls) must all agree.
func TestLoadStoreMatchByteLoop(t *testing.T) {
	// The world plus one page whose frame was never allocated.
	const orphanPage = worldPages
	build := func() *world {
		w := newWorld()
		w.as.Map(worldBase/PageSize+orphanPage, 0x7777)
		return w
	}
	page := func(vp uint32) uint32 { return worldBase + vp*PageSize }
	var addrs []uint32
	for _, off := range []uint32{0, 4, 1, 2, 3, 0x7FD, PageSize - 4, PageSize - 3, PageSize - 2, PageSize - 1} {
		for vp := uint32(0); vp <= orphanPage; vp++ {
			addrs = append(addrs, page(vp)+off)
		}
	}
	sameErr := func(a, b error) bool {
		if a == nil || b == nil {
			return a == b
		}
		pa, okA := a.(*PageFault)
		pb, okB := b.(*PageFault)
		if okA || okB {
			return okA && okB && *pa == *pb
		}
		return a.Error() == b.Error()
	}
	for _, size := range []uint32{1, 2, 4, 3} { // 3: no instruction has it, the byte loop still serves it
		for _, a := range addrs {
			got, want := build(), build()
			v, err := got.as.Load(a, size)
			rv, rerr := refLoad(want.as, a, size)
			if v != rv || !sameErr(err, rerr) {
				t.Errorf("Load(%#x, %d) = %#x, %v; byte loop %#x, %v", a, size, v, err, rv, rerr)
			}
			if !reflect.DeepEqual(got.dev.log, want.dev.log) {
				t.Errorf("Load(%#x, %d): device saw %+v, byte loop %+v", a, size, got.dev.log, want.dev.log)
			}

			got, want = build(), build()
			const val = 0xA1B2C3D4
			err, rerr = got.as.Store(a, size, val), refStore(want.as, a, size, val)
			if !sameErr(err, rerr) {
				t.Errorf("Store(%#x, %d) = %v; byte loop %v", a, size, err, rerr)
			}
			if !bytes.Equal(got.ram(), want.ram()) {
				t.Errorf("Store(%#x, %d): RAM differs from the byte loop's", a, size)
			}
			if !reflect.DeepEqual(got.dev.log, want.dev.log) {
				t.Errorf("Store(%#x, %d): device saw %+v, byte loop %+v", a, size, got.dev.log, want.dev.log)
			}
		}
	}

	// The fault names the first byte that missed, and whether it was a
	// write: a straddle off the last RAM page faults on the unmapped page's
	// first byte, after the bytes before it were stored.
	w := build()
	last := page(worldPages-1) - 2
	err := w.as.Store(last, 4, 0x11223344)
	if pf, ok := err.(*PageFault); !ok || pf.Addr != page(worldPages-1) || !pf.Write {
		t.Errorf("straddling store: err = %v, want a write fault at %#x", err, page(worldPages-1))
	}
	if v, _ := w.as.Load(last, 2); v != 0x3344 {
		t.Errorf("straddling store left %#x before the fault, want 0x3344", v)
	}
	_, err = w.as.Load(last, 4)
	if pf, ok := err.(*PageFault); !ok || pf.Addr != page(worldPages-1) || pf.Write {
		t.Errorf("straddling load: err = %v, want a read fault at %#x", err, page(worldPages-1))
	}
}
