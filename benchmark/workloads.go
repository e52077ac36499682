package main

import (
	"math"

	"twindrivers/internal/core"
	"twindrivers/internal/cost"
	"twindrivers/internal/recovery"
)

// config is one workload: the machine it brings up and how its load is
// shaped. rate is frames per second of -seconds, measured on the seed
// commit on the 2-core reference box and then frozen: it only sizes the
// fixed frame counts and is never re-derived from a measured speed, so
// the simulated numbers of a (seed, seconds) pair repeat exactly.
type config struct {
	name, why string
	backend   string
	guests    int
	twin      core.TwinConfig
	batch     int
	postedTX  bool
	postedRX  bool
	rate      int
	// ladder: the traced pass drives core directly, reproducing the call
	// sequence and guest-stack charges netpath issues; otherwise netpath's
	// entry points are the span granularity.
	ladder     bool
	supervised bool // a recovery.Supervisor is attached and faults are injected
	faultFree  bool // no loss of any kind is expected
}

const (
	mtu        = cost.MTU // the paper's netperf frame size, as netbench uses it
	smallFrame = 64

	// lapFrames is the unit host time is taken in: every round is a whole
	// number of laps, and every lap of a workload is the same work (the same
	// multiset of steps; only their order and pairing are the seed's). 512
	// frames wrap the deepest ring on the path (the e1000's 256 transmit
	// descriptors) twice. The workloads whose unit of identical work is
	// larger (tenants: a turn; open_loop: two blocks; fault_storm: a deck)
	// lap on that unit instead.
	lapFrames = 512

	// tenants: one turn deals every deck it touches to the end, so every turn
	// moves the same frames: 1008 contended posts (84 IMIX decks), 12 local
	// streams (one IMIX deck), one receive fan-in of each IMIX size.
	ringBacklog = 8  // descriptors each guest keeps posted under contention
	queueBudget = 2  // descriptors one queue may consume per budgeted crossing
	crossings   = 32 // budgeted crossings per turn
	localPairs  = 12 // guest→guest streams per turn
	localFrames = 4  // frames per guest→guest stream

	openCap     = core.TxRingSlots - 1 // open_loop: most frames one kick may carry
	lapBlocks   = 2                    // open_loop: stratified blocks per lap
	meanArrival = 13500                // open_loop: long-run mean inter-arrival, cycles (a constant)
	trainGap    = 2000                 // open_loop: spacing inside an ON train, cycles
	trainMean   = 16                   // open_loop: mean ON train length, frames
	trainStrata = 16                   // open_loop: trains (and gaps) per stratified block

	// fault_storm: the recoveries one machine is allowed. Every rebuilt
	// instance maps its working set into the hypervisor's 64 MB SVM window
	// afresh and the xen model never reclaims it: "SVM mapping window
	// exhausted" on about the 20th (measured on the seed). One fault is
	// injected per measured round, so this is also the most -rounds allowed.
	stormRecoveries = 16
)

var (
	imix      = []int{64, 64, 64, 64, 64, 64, 64, 576, 576, 576, 576, 1500} // 7:4:1
	imixSizes = []int{64, 576, 1500}
)

var configs = []*config{
	{
		name: "tx_paper", backend: "e1000", guests: 1, batch: 1, rate: 5400, ladder: true, faultFree: true,
		why: "Figure 7: 1 guest, MTU, staged-copy TX, one crossing per packet; crossing cost and staging copies dominate",
	},
	{
		name: "rx_paper", backend: "e1000", guests: 1, batch: 1, rate: 6900, ladder: true, faultFree: true,
		why: "Figure 8: 1 guest, MTU, copy RX, batch 1; interrupt, demux, copy-out and notification, the TX layers used the other way",
	},
	{
		name: "small_posted", backend: "e1000", guests: 1, batch: 32, postedTX: true, postedRX: true,
		rate: 12000, ladder: true, faultFree: true,
		why: "64-byte frames, posted TX and RX alternating at batch 32: copies and crossings vanish, interpreter and meter cost is exposed",
	},
	{
		name: "tenants", backend: "mqnic", guests: 64, postedTX: true, postedRX: true, rate: 7000,
		twin: core.TwinConfig{Weights: []int{4, 2, 1}, Switch: true},
		why:  "64 guests, 8 queues, DRR 4:2:1, switch on, IMIX: scheduler, steering, vswitch and per-guest state dominate",
	},
	{
		name: "open_loop", backend: "e1000", guests: 1, batch: 8, rate: 5800, ladder: true, faultFree: true,
		why: "seeded on/off arrivals on the simulated clock at ~0.7 utilisation: queueing makes a per-packet saving show at p99",
	},
	{
		name: "fault_storm", backend: "e1000", guests: 4, rate: 9500, supervised: true,
		why: "4 guests, mixed TX/RX bursts, one injected driver fault per round: rewrite, assembly and config-log replay are on the hot path",
	},
}

func configByName(name string) *config {
	for _, c := range configs {
		if c.name == name {
			return c
		}
	}
	return nil
}

type stepKind uint8

const (
	kTx       stepKind = iota // single-guest transmit burst of n frames
	kRx                       // single-guest receive burst of n frames
	kContend                  // tenants: top every posted ring up, then one budgeted crossing
	kDrain                    // tenants: unbudgeted crossings until every ring is empty
	kLocal                    // netpath.SendLocal: n frames guest src → guest dst
	kRxMulti                  // netpath.ReceiveBurstMulti: n frames per guest
	kTxMulti                  // netpath.SendBurstMulti: n frames per guest
	kArrivals                 // open_loop: a schedule of due times served as they fall due
)

// step is one generated input. The program under test sees only these.
type step struct {
	kind     stepKind
	lapEnd   bool // a lap of identical work ends with this step
	n        int
	size     int
	src, dst int
	seed     uint64   // kContend: non-zero on a turn's first step, seeds the turn's frame-size deck
	inject   int      // fault_storm: 1+index of the injector fired before this step
	due      []uint64 // kArrivals: due times in cycles from the round's start
}

// roundFrames is the nominal frame count of one measured round: a tenth of
// what -seconds selects, whatever -rounds says (more rounds measure more).
func (c *config) roundFrames(seconds int) int { return max(1, c.rate*seconds/10) }

// tenantsTurnFrames is what one tenants turn completes: the initial
// backlog, what the budgeted crossings replace, the local streams and the
// receive fan-in.
func tenantsTurnFrames(c *config) int {
	queues := 8
	return c.guests*ringBacklog + (crossings-1)*queueBudget*queues + localPairs*localFrames + c.guests*len(imixSizes)
}

// plan generates the steps of one round (round -1 is the warm-up) from the
// seed. frames is the nominal count; the generated round may complete a
// few more or fewer (whole turns, whole trains) but always the same
// number for the same (workload, frames).
func (c *config) plan(seed uint64, round, frames int) []step {
	r := &rng{s: mix64(seed) ^ mix64(uint64(round+2)*0x51ed27)}
	switch c.name {
	case "tx_paper":
		return laps(repeat(step{kind: kTx, n: 1, size: mtu}, wholeLaps(frames, 1)), lapFrames)
	case "rx_paper":
		return laps(repeat(step{kind: kRx, n: 1, size: mtu}, wholeLaps(frames, 1)), lapFrames)
	case "small_posted":
		turns := wholeLaps(frames, 2*c.batch)
		out := make([]step, 0, 2*turns)
		for i := 0; i < turns; i++ {
			out = append(out, step{kind: kTx, n: c.batch, size: smallFrame}, step{kind: kRx, n: c.batch, size: smallFrame})
		}
		return laps(out, 2*lapFrames/(2*c.batch))
	case "tenants":
		turns, cross, pairs := max(1, frames/tenantsTurnFrames(c)), crossings, localPairs
		if frames < tenantsTurnFrames(c) {
			cross, pairs = 1, 1 // a smoke run touches every guest's every path once
		}
		local, fanIn := newDeck(r, imix), newDeck(r, imixSizes)
		var out []step
		for i := 0; i < turns; i++ {
			out = append(out, step{kind: kContend, seed: r.next() | 1})
			for k := 1; k < cross; k++ {
				out = append(out, step{kind: kContend})
			}
			out = append(out, step{kind: kDrain})
			for k := 0; k < pairs; k++ {
				src := r.intn(c.guests)
				dst := (src + 1 + r.intn(c.guests-1)) % c.guests
				out = append(out, step{kind: kLocal, n: localFrames, size: local.draw(), src: src, dst: dst})
			}
			for range imixSizes {
				out = append(out, step{kind: kRxMulti, n: 1, size: fanIn.draw()})
			}
			out[len(out)-1].lapEnd = true
		}
		if round < 0 {
			// The warm-up also cycles every receive descriptor once (8 guests
			// share a queue's 32): until the receive rings hold their steady
			// population of buffers a transmit crossing retires up to a third
			// fewer instructions.
			for range imixSizes {
				out = append(out, step{kind: kRxMulti, n: 1, size: fanIn.draw()})
			}
		}
		return out
	case "open_loop":
		if frames < lapBlocks*blockFrames() {
			// The warm-up (and a smoke run): one block.
			return []step{{kind: kArrivals, size: mtu, due: arrivals(r, 1), lapEnd: true}}
		}
		var out []step
		for i := frames / (lapBlocks * blockFrames()); i > 0; i-- {
			out = append(out, step{kind: kArrivals, size: mtu, due: arrivals(r, lapBlocks), lapEnd: true})
		}
		return out
	case "fault_storm":
		return c.stormPlan(r, round, frames)
	}
	panic("benchmark: no plan for " + c.name)
}

func repeat(s step, n int) []step {
	out := make([]step, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// wholeLaps is how many units of unitFrames frames make up the whole laps
// that fit in frames (a smoke run shorter than one lap stays as it is).
func wholeLaps(frames, unitFrames int) int {
	if frames >= lapFrames {
		frames -= frames % lapFrames
	}
	return max(1, frames/unitFrames)
}

// laps marks every per-th step as the end of a lap; a run of steps shorter
// than one lap is one lap.
func laps(steps []step, per int) []step {
	for i := per - 1; i < len(steps); i += per {
		steps[i].lapEnd = true
	}
	steps[len(steps)-1].lapEnd = true
	return steps
}

// arrivals builds one round of the on/off process: ON trains of geometric
// length (mean trainMean) with frames trainGap cycles apart, separated by
// exponential OFF gaps sized so the long-run mean inter-arrival is
// meanArrival.
//
// A p99 over ~60 000 frames drawn freely would be set by the handful of
// longest trains a seed happens to draw (measured: ±23 % across seeds). So
// the draw is stratified: the schedule is built in blocks of trainStrata
// trains, each block holding exactly one train length and one gap from each
// of the distribution's trainStrata quantile strata, in an order the seed
// shuffles. Every block of every seed offers the same frames over the same
// time; what the seed decides is which train meets which gap — the
// queueing interaction — so the offered load is a constant and the tail is
// made of hundreds of comparable events instead of a few extreme ones.
func arrivals(r *rng, blocks int) []uint64 {
	lens, gaps, frames := strata()
	due := make([]uint64, 0, blocks*frames)
	var t uint64
	for b := 0; b < blocks; b++ {
		l, g := lens, gaps
		r.shuffle(trainStrata, func(i, j int) { l[i], l[j] = l[j], l[i] })
		r.shuffle(trainStrata, func(i, j int) { g[i], g[j] = g[j], g[i] })
		for i, n := range l {
			t += g[i]
			for k := 0; k < n; k++ {
				due = append(due, t)
				t += trainGap
			}
		}
	}
	return due
}

// strata is one block's train lengths and OFF gaps, one from each quantile
// stratum of its distribution, and the frames the block offers. The gaps are
// scaled so the block lasts exactly frames × meanArrival cycles.
func strata() (lens [trainStrata]int, gaps [trainStrata]uint64, frames int) {
	var raw [trainStrata]float64
	p := 1.0 / trainMean
	inTrain, rawSum := 0, 0.0
	for i := range lens {
		u := (float64(i) + 0.5) / trainStrata
		lens[i] = int(math.Ceil(math.Log(1-u) / math.Log(1-p)))
		raw[i] = -math.Log(1 - u)
		frames += lens[i]
		inTrain += (lens[i] - 1) * trainGap
		rawSum += raw[i]
	}
	scale := float64(frames*meanArrival-inTrain) / rawSum
	for i := range gaps {
		gaps[i] = uint64(raw[i] * scale)
	}
	return lens, gaps, frames
}

// blockFrames is the frames one stratified block offers.
func blockFrames() int {
	_, _, frames := strata()
	return frames
}

// stormPlan deals transmit and receive bursts of 2, 4 or 8 frames per guest
// from a deck holding every (direction, burst length, IMIX size) combination
// once — a lap is one deck — and marks, once per round at its middle, the
// step before which the next injector (round-robin over recovery.Injectors)
// fires; that step takes the direction that trips the injected bug. The
// warm-up round injects nothing.
//
// One fault per round is set by the machine, not by taste: it survives
// stormRecoveries of them, and ten per phase leaves margin.
func (c *config) stormPlan(r *rng, round, frames int) []step {
	var cards []int
	for kind := 0; kind < 2; kind++ {
		for n := 2; n <= 8; n *= 2 {
			for size := range imix {
				cards = append(cards, kind<<16|n<<8|size)
			}
		}
	}
	bursts := newDeck(r, cards)
	deckFrames := c.guests * (2 + 4 + 8) * len(imix) * 2
	total := (frames + deckFrames/2) / deckFrames * deckFrames // whole decks …
	if total == 0 {
		total = frames // … except in a smoke run
	}
	injectors := recovery.Injectors()
	var out []step
	injected := false
	for done := 0; done < total; {
		card := bursts.draw()
		s := step{kind: kTxMulti, n: card >> 8 & 0xff, size: imix[card&0xff]}
		if card>>16 == 1 {
			s.kind = kRxMulti
		}
		if round >= 0 && !injected && done >= total/2 {
			inj := round % len(injectors)
			s.inject = inj + 1
			s.kind = kTxMulti
			if injectors[inj].TriggerOnRx {
				s.kind = kRxMulti
			}
			injected = true
		}
		done += s.n * c.guests
		s.lapEnd = done%deckFrames == 0 || done >= total
		out = append(out, s)
	}
	return out
}
