// Command benchmark is the repository's claim gate: it runs six seeded
// workloads through netpath, core and recovery at fixed frame counts,
// checks every output, and prints every metric as
//
//	workload metric value unit
//
// followed, per workload, by one JSON line the benchmark driver reads. Two
// clocks are reported side by side: sim_* metrics are simulated cycles
// (deterministic — the same seed and count repeat to the last digit) and
// host_* metrics are the wall clock of the simulator itself (the fastest
// lap of identical work). See README.md for the metric tables and the predicted
// interactions later changes are judged against.
//
//	go run ./benchmark -seed 7 -out results      # all six workloads, traced
//	go run ./benchmark -workload tx_paper -trace=false
//	go run ./benchmark -compare a/result.json b/result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"

	// Link every NIC backend so a config's backend resolves by name.
	_ "twindrivers/internal/e1000"
	_ "twindrivers/internal/mqnic"
)

// workloadDeadline is the longest one workload may take (a traced run
// takes about 20 s on the seed commit).
const workloadDeadline = 150 * time.Second

// header identifies what a result file measured, so two files can be
// refused as incomparable instead of silently diffed.
type header struct {
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Rounds     int    `json:"rounds"`
	Traced     bool   `json:"traced"`
}

type resultFile struct {
	Header    header     `json:"header"`
	Workloads []*outcome `json:"workloads"`
}

// boolish accepts 0/1 as well as true/false, with or without "=".
type boolish bool

func (b *boolish) String() string { return strconv.FormatBool(bool(*b)) }
func (b *boolish) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = boolish(v)
	return err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (default: all six)")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", runSeconds, "sizes the fixed frame counts: about this long per measured phase on the seed commit")
	rounds := fs.Int("rounds", 10, "measured rounds, each a whole number of laps")
	trace := boolish(true)
	fs.Var(&trace, "trace", "also run the traced ladder pass and the isolated kernels (0/1)")
	out := fs.String("out", "", "directory for result.json and trace_<workload>.json (default: write nothing)")
	compare := fs.Bool("compare", false, "compare two result files: benchmark -compare A.json B.json")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json as the catalogue defines it and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		if err := manifest(stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || *rounds < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds and -rounds must be at least 1")
		return 2
	}
	selected := configs
	if *workload != "" {
		c := configByName(*workload)
		if c == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		selected = []*config{c}
	}
	for _, c := range selected {
		if c.supervised && *rounds > stormRecoveries {
			fmt.Fprintf(stderr, "benchmark: %s injects one fault per round and a machine survives %d recoveries: -rounds must be at most %d\n",
				c.name, stormRecoveries, stormRecoveries)
			return 2
		}
	}
	opt := &options{seed: *seed, seconds: *seconds, rounds: *rounds, trace: bool(trace)}
	return measure(selected, opt, *out, stdout, stderr)
}

// measure runs the selected workloads and prints (and, with out set,
// writes) their results.
func measure(selected []*config, opt *options, out string, stdout, stderr io.Writer) int {
	// One driver goroutine; never more threads than the reference box has.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	res := resultFile{Header: header{
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit(), Seed: opt.seed, Seconds: opt.seconds, Rounds: opt.rounds, Traced: opt.trace,
	}}

	var kernels metrics
	if opt.trace {
		size := fullKernels
		if opt.frames > 0 {
			size = smokeKernels
		}
		var err error
		if kernels, err = runKernels(size); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	failed := false
	for _, c := range selected {
		// The driver allows a run 180 s. A hang — in the harness or in the
		// code under test — must end as a failure, not as a stuck process.
		deadline := time.AfterFunc(workloadDeadline, func() {
			fmt.Fprintf(stderr, "benchmark: %s: no result after %v, giving up\n", c.name, workloadDeadline)
			os.Exit(3)
		})
		o, err := runWorkload(c, opt)
		deadline.Stop()
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		if opt.trace {
			for name, m := range kernels {
				o.PerLayer[name] = m
			}
			reference(o.PerLayer, c, o.EndToEnd["sim_cyc_per_pkt"].Value)
		}
		res.Workloads = append(res.Workloads, o)
		printOutcome(stdout, o, opt.trace)
		// The spans go to disk now and are dropped: a later workload's heap
		// must not carry this one's trace.
		if tr := o.trace; tr != nil && out != "" {
			if err := writeFile(out, "trace_"+c.name+".json", func(w io.Writer) error { return tr.writeChrome(w, c.name) }); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
		}
		o.trace = nil
		if !o.Correct {
			failed = true
			fmt.Fprintf(stderr, "benchmark: %s: %d checks failed, first: %s\n", c.name, o.Failed, o.Failure)
		}
	}
	if out != "" {
		err := writeFile(out, "result.json", func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(&res)
		})
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// printOutcome writes the human lines (every metric, name and unit) and
// then the driver's line: the gated end-to-end metrics untraced, every
// per-layer metric traced.
func printOutcome(w io.Writer, o *outcome, traced bool) {
	line := func(ms metrics) {
		names := make([]string, 0, len(ms))
		for n := range ms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%s %s %s %s\n", o.Workload, n, strconv.FormatFloat(ms[n].Value, 'g', -1, 64), ms[n].Unit)
		}
	}
	line(o.EndToEnd)
	line(o.PerLayer)
	fmt.Fprintf(w, "%s ops %d count\n%s failed %d count\n", o.Workload, o.Attempted, o.Workload, o.Failed)

	// The driver gates only the metrics defined and non-zero on every
	// workload; the other end-to-end claims travel with the per-layer set.
	driver := metrics{}
	for n, m := range o.EndToEnd {
		if defByName(n).gated != traced {
			driver[n] = m
		}
	}
	for n, m := range o.PerLayer {
		driver[n] = m
	}
	js, _ := json.Marshal(map[string]any{
		"correct": o.Correct, "attempted": o.Attempted, "failed": o.Failed, "metrics": driver,
	})
	fmt.Fprintf(w, "%s\n", js)
}

// writeFile creates dir/name from emit, reporting the first error of
// create, emit and close.
func writeFile(dir, name string, emit func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", name, err)
	}
	return f.Close()
}

// buildCommit is set by run.sh (-ldflags -X), which builds with VCS
// stamping off because the driver's checkout is not a repository.
var buildCommit string

// commit is the revision the binary was built from, when the build
// recorded one.
func commit() string {
	if buildCommit != "" {
		return buildCommit
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
