package netbench

import (
	"fmt"
	"strconv"
	"strings"
)

// schedSuffix renders scheduler parameters into a key fragment:
// "/w=4:2:1" for weights, "/r=3:0" for rates, empty when unset — so
// every pre-scheduler key is byte-identical to what it always was.
func schedSuffix(weights, rates []int) string {
	render := func(tag string, vals []int) string {
		if len(vals) == 0 {
			return ""
		}
		parts := make([]string, len(vals))
		for i, v := range vals {
			parts[i] = strconv.Itoa(v)
		}
		return "/" + tag + "=" + strings.Join(parts, ":")
	}
	return render("w", weights) + render("r", rates)
}

// BenchKey is the stable configuration key a Result files under in the
// BENCH_<area>.json measurement sets, derived from the parameters it ran:
// backend, direction and batch size; the posted-RX / posted-TX markers;
// the queue count past one; on the fan-out runners the guest count and the
// scheduler parameters ("e1000/tx/batch=16/guests=64/w=4:2:1"); and for a
// local stream whether the switch or the device carried it
// ("mqnic/local/batch=16/switch"). Keys survive refactors — the bench gate
// diffs them against committed baselines.
func (r *Result) BenchKey() string {
	key := fmt.Sprintf("%s/%s/batch=%d", r.Backend, [...]string{"tx", "rx", "local"}[r.Direction], r.BatchSize)
	if r.Direction == Local {
		if r.Twin.Switch {
			return key + "/switch"
		}
		return key + "/device"
	}
	if r.PostedRX {
		key += "/posted"
	}
	if r.PostedTX {
		key += "/postedtx"
	}
	if r.Queues > 1 {
		key += fmt.Sprintf("/q%d", r.Queues)
	}
	if r.Guests > 0 {
		key += fmt.Sprintf("/guests=%d", r.Guests) + schedSuffix(r.Twin.Weights, r.Twin.Rates)
	}
	return key
}

// SchedSpec renders the scheduler configuration for reports: "equal" for
// unit weights and no caps, otherwise the weight/rate vectors as they
// appear in the bench key, e.g. "w=4:2:1 r=2:0".
func (r *Result) SchedSpec() string {
	s := strings.TrimPrefix(schedSuffix(r.Twin.Weights, r.Twin.Rates), "/")
	if s == "" {
		return "equal"
	}
	return strings.ReplaceAll(s, "/", " ")
}
