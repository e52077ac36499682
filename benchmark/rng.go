package main

import "encoding/binary"

// rng is splitmix64: tiny, seedable and frozen here, so a seed names the
// same inputs on every Go release (math/rand's stream is not promised).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for the
// small n used here.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle is Fisher–Yates over n elements.
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// deck deals a fixed multiset in an order the seed decides, reshuffling when
// it runs out. Drawing from a deck instead of drawing freely keeps the mix
// of every run exactly the distribution's — the seed decides the order and
// the pairing, never the totals — so a number measured over a run does not
// wander with how many large frames or long bursts a seed happened to draw.
type deck struct {
	r     *rng
	cards []int
	next  int
}

func newDeck(r *rng, cards []int) *deck {
	return &deck{r: r, cards: append([]int(nil), cards...), next: len(cards)}
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.r.shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// Harness frames look like IPv4/UDP to the driver: the e1000 transmit path
// reads the IHL nibble and the protocol byte for its checksum-offload
// decision, and a random protocol byte would now and then take the TCP
// branch that netpath's own frames (protocol 0) never take.
const (
	ipHeaderBytes = 20
	stampOffset   = 14 + ipHeaderBytes // the 8-byte stamp follows the IP header
	minStamped    = stampOffset + 8
)

// fillPayload writes the deterministic payload of frame seq into b (the
// bytes after the Ethernet header): a fixed IPv4-shaped header, the 8-byte
// sequence stamp, then a keyed stream, so any byte the path drops,
// duplicates or shifts shows up in a byte-for-byte compare.
func fillPayload(b []byte, seq uint64) {
	clear(b[:ipHeaderBytes])
	b[0] = 0x45 // version 4, IHL 5
	b[9] = 17   // UDP
	b = b[ipHeaderBytes:]
	binary.LittleEndian.PutUint64(b, seq)
	x := seq
	i := 8
	for ; i+8 <= len(b); i += 8 {
		x += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(b[i:], mix64(x))
	}
	for ; i < len(b); i++ {
		b[i] = byte(seq) + byte(i)
	}
}
