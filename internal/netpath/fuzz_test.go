package netpath

import (
	"testing"
)

// FuzzFrame fuzzes the path's frame construction — the size validation
// that guards the payload arithmetic (a size below the 14-byte Ethernet
// header must error, not panic in make()), the Ethernet-minimum padding,
// and the address placement — in both traffic directions. The Path's
// frame builder only touches its sequence counter and frame slots, so a
// zero-value Path exercises the real code.
func FuzzFrame(f *testing.F) {
	f.Add(-1, byte(0))
	f.Add(0, byte(1))
	f.Add(13, byte(2)) // one below the header: the old make() panic
	f.Add(14, byte(3))
	f.Add(59, byte(4)) // below the Ethernet minimum: padded
	f.Add(60, byte(5))
	f.Add(1514, byte(6))
	f.Add(1<<20, byte(7))

	f.Fuzz(func(t *testing.T, size int, seq byte) {
		if size > 1<<20 {
			size %= 1 << 20 // keep allocations sane; giant sizes add nothing
		}
		p := &Path{rxSeq: seq}
		mac := [6]byte{0x02, 0xFA, 0xCE, 0, 0, 1}
		for _, rx := range []bool{true, false} {
			frame, err := p.buildFrame(0, mac, rx, size)
			if size < 14 {
				if err == nil {
					t.Fatalf("size %d below the Ethernet header accepted", size)
				}
				continue
			}
			if err != nil {
				t.Fatalf("size %d rejected: %v", size, err)
			}
			want := size
			if want < 60 {
				want = 60 // padded to the Ethernet minimum
			}
			if len(frame) != want {
				t.Fatalf("size %d built %d-byte frame, want %d", size, len(frame), want)
			}
			// Address placement matches the direction.
			got := frame[0:6]
			if !rx {
				got = frame[6:12]
			}
			for i := range mac {
				if got[i] != mac[i] {
					t.Fatalf("size %d rx=%v: MAC byte %d = %#x, want %#x", size, rx, i, got[i], mac[i])
				}
			}
			if frame[12] != 0x08 || frame[13] != 0x00 {
				t.Fatalf("ethertype = %x%x", frame[12], frame[13])
			}
		}
	})
}
