package main

import (
	"encoding/json"
	"io"
	"time"
)

// spanName indexes the fixed set of ladder spans. Each wraps exactly one
// public call of the named package (or, for bench.* and netpath.frame, a
// piece of harness work that must be subtracted from the system's time).
type spanName uint8

const (
	spFrame spanName = iota
	spVerify
	spGuestTransmit
	spGuestTransmitBatch
	spPostTx
	spServiceRings
	spOnTransmit
	spInject
	spHandleIRQ
	spPostRx
	spDeliverCopy
	spDeliverPosted
	spSendMulti
	spSendLocal
	spReceiveMulti
	spRecover
	numSpans
)

var spanNames = [numSpans]string{
	spFrame:              "netpath.frame",
	spVerify:             "bench.verify",
	spGuestTransmit:      "core.guest_transmit",
	spGuestTransmitBatch: "core.guest_transmit_batch",
	spPostTx:             "core.post_tx",
	spServiceRings:       "core.service_rings",
	spOnTransmit:         "nic.on_transmit",
	spInject:             "nic.inject",
	spHandleIRQ:          "core.handle_irq",
	spPostRx:             "core.post_rx",
	spDeliverCopy:        "core.deliver_copy",
	spDeliverPosted:      "core.deliver_posted",
	spSendMulti:          "netpath.send_multi",
	spSendLocal:          "netpath.send_local",
	spReceiveMulti:       "netpath.receive_multi",
	spRecover:            "recovery.recover",
}

// harnessSpan marks the spans whose self time is the benchmark's own work
// (frame generation, output checking) rather than the system's.
var harnessSpan = [numSpans]bool{spFrame: true, spVerify: true, spOnTransmit: true}

// span is one recorded interval on both clocks. Parent is an index into
// the tracer's span list (-1 at the top); every span of one burst shares
// its burst id.
type span struct {
	name   spanName
	parent int32
	burst  int32
	h0, h1 int64  // host ns since the tracer started
	s0, s1 uint64 // simulated cycles
	kidsH  int64  // host ns covered by direct children
	kidsS  uint64 // simulated cycles covered by direct children
}

// tracer keeps spans in memory; nothing is written until the workload ends. A
// nil tracer is the untraced configuration: begin/end return at once.
type tracer struct {
	spans []span
	open  []int32
	burst int32
	t0    time.Time
	sim   func() uint64
}

func newTracer(sim func() uint64, capacity int) *tracer {
	return &tracer{spans: make([]span, 0, capacity), open: make([]int32, 0, 8), t0: time.Now(), sim: sim}
}

func (t *tracer) nextBurst() {
	if t != nil {
		t.burst++
	}
}

func (t *tracer) begin(n spanName) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{name: n, parent: parent, burst: t.burst,
		s0: t.sim(), h0: int64(time.Since(t.t0))})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	h1 := int64(time.Since(t.t0))
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	sp := &t.spans[i]
	sp.h1, sp.s1 = h1, t.sim()
	if sp.parent >= 0 {
		p := &t.spans[sp.parent]
		p.kidsH += sp.h1 - sp.h0
		p.kidsS += sp.s1 - sp.s0
	}
}

// selfTotals sums self time (span minus the part its children cover) per
// span name, on both clocks.
func (t *tracer) selfTotals() (hostNs [numSpans]int64, simCyc [numSpans]uint64) {
	for i := range t.spans {
		sp := &t.spans[i]
		hostNs[sp.name] += sp.h1 - sp.h0 - sp.kidsH
		simCyc[sp.name] += sp.s1 - sp.s0 - sp.kidsS
	}
	return
}

// maxTraceSpans bounds the spans written to a trace file (the metrics use
// every span; the file keeps the head of the run so it stays loadable).
const maxTraceSpans = 40000

// writeChrome emits the spans as Chrome trace-event JSON with two
// processes: pid 2 lays the spans out on the simulated clock (the same
// 3 GHz microsecond timeline cmd/twintrace uses, so both files load side
// by side), pid 3 on the host clock.
func (t *tracer) writeChrome(w io.Writer, workload string) error {
	const cyclesPerMicro = 3000.0
	evs := []map[string]any{
		{"name": "process_name", "ph": "M", "pid": 2, "tid": 0,
			"args": map[string]any{"name": "benchmark " + workload + " (simulated clock)"}},
		{"name": "process_name", "ph": "M", "pid": 3, "tid": 0,
			"args": map[string]any{"name": "benchmark " + workload + " (host clock)"}},
	}
	n := len(t.spans)
	if n > maxTraceSpans {
		n = maxTraceSpans
	}
	var s0 uint64
	if n > 0 {
		s0 = t.spans[0].s0
	}
	for i := 0; i < n; i++ {
		sp := &t.spans[i]
		args := map[string]any{"id": i, "parent": sp.parent, "burst": sp.burst,
			"host_ns": sp.h1 - sp.h0, "sim_cyc": sp.s1 - sp.s0}
		evs = append(evs,
			map[string]any{"name": spanNames[sp.name], "ph": "X", "pid": 2, "tid": 1,
				"ts": float64(sp.s0-s0) / cyclesPerMicro, "dur": float64(sp.s1-sp.s0) / cyclesPerMicro, "args": args},
			map[string]any{"name": spanNames[sp.name], "ph": "X", "pid": 3, "tid": 1,
				"ts": float64(sp.h0) / 1e3, "dur": float64(sp.h1-sp.h0) / 1e3, "args": args})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents": evs, "displayTimeUnit": "ns",
		"otherData": map[string]any{"workload": workload, "spans_recorded": len(t.spans), "spans_written": n},
	})
}
