// Command bench is the repository's one end-to-end benchmark: it generates
// its own data from a seed, runs four named workloads against the public pdb
// and server APIs, verifies every answer, and reports what one operation
// costs the caller and, from a separate traced pass, where that cost goes
// layer by layer. See README.md beside this file.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// spec is BENCHMARK.json: the metric names, units, directions and regression
// bounds live there and nowhere else.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json in the working directory or above it and
// returns it with the directory it was found in: the repository root.
func loadSpec() (*spec, string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var s spec
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &s, dir, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, "", err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, "", errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Samples is the number of latencies behind p50_ms and p90_ms: on a
	// gated workload the operations measured with a quiet core.
	Samples int `json:"samples"`
	// QuietShare is the share of the window's operations that were.
	QuietShare float64           `json:"quiet_share"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	// AllOps holds the three timing metrics over every operation of the
	// window, quiet core or not: what the host made of the run.
	AllOps   map[string]float64 `json:"all_ops"`
	PerLayer map[string]metric  `json:"per_layer,omitempty"`
	Failures []string           `json:"failures,omitempty"`
}

// report is what a run writes: the host and build it ran on, then the results.
type report struct {
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPU        string   `json:"cpu"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Results    []result `json:"results"`
}

func newReport(seed int64, seconds float64) *report {
	return &report{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: benchProcs, GoVersion: runtime.Version(),
		Commit: vcsRevision(), Seed: seed, Seconds: seconds,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// vcsRevision is the commit the toolchain stamped into the binary, marked
// when the tree had uncommitted changes; "unknown" when the binary was not
// built inside a git checkout.
func vcsRevision() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// rssPeakMB reads the process's peak resident set (VmHWM), 0 where /proc
// does not say.
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// A run builds and times the set-up at least setupRuns times, and again until
// setupFloor has been spent on it; setup_s is the median. Three samples of a
// 0.15 s set-up on a shared machine gave medians 28% apart from run to run;
// the floor buys the library workloads some ten samples for about a second,
// and served-zipf, whose set-up takes seconds, stays at three.
const (
	setupRuns  = 3
	setupFloor = 1500 * time.Millisecond
)

// benchProcs is the GOMAXPROCS a workload is set up and measured with.
const benchProcs = 1

// runWorkload sets the workload up several times, measures one untraced
// window, then, with cfg.trace, one traced pass, and runs every check.
func runWorkload(ctx context.Context, sp *spec, name string, cfg config) (*result, error) {
	var wl workload
	gated := false
	for _, w := range workloads {
		if w.name == name {
			wl, gated = w.new(), w.gated
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("no workload named %q", name)
	}

	// One processor: the machine's virtual processors are hardware threads
	// that share cores, with each other and with the host's other tenants, so
	// a second busy thread (the collector's worker, an idle processor spinning
	// for work) halves the speed of the first whenever the two land on one
	// core. On one processor the operation, the collector and the probes that
	// tell whether a neighbour is on the core (quiet.go) all run on the same
	// thread, one after the other. The checks at the end use every processor.
	procs := runtime.GOMAXPROCS(benchProcs)
	defer runtime.GOMAXPROCS(procs)

	var setups []float64
	floor := time.Duration(float64(setupFloor) * cfg.scale)
	for begin := time.Now(); len(setups) < setupRuns || time.Since(begin) < floor; {
		wl.close()
		runtime.GC() // the previous set-up's garbage is not this one's cost
		t0 := time.Now()
		if err := wl.setup(ctx, cfg); err != nil {
			wl.close()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer wl.close()

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	mem := newAllocReader()
	_, _, gc0 := mem.read()
	w := &window{seconds: seconds}
	wl.run(ctx, w)

	// On a gated workload the timings are taken over the operations measured
	// with a quiet core; the allocation counts, which no neighbour moves,
	// over all of them.
	timed, quietShare := w.quietOps()
	if !gated {
		timed = w.lat
	}
	res := &result{Workload: name, Seed: cfg.seed, Samples: len(timed), QuietShare: quietShare,
		EndToEnd: map[string]metric{}, AllOps: timings(w.lat)}
	ops := float64(max(len(w.lat), 1))
	e2e := timings(timed)
	e2e["setup_s"] = quantile(setups, 0.5)
	e2e["allocs_per_op"] = float64(w.objects) / ops
	e2e["alloc_kb_per_op"] = float64(w.bytes) / 1024 / ops
	for _, m := range sp.EndToEnd {
		v, ok := e2e[m.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json lists end-to-end metric %q, which the harness does not measure", m.Name)
		}
		res.EndToEnd[m.Name] = metric{v, m.Unit}
	}

	tw := &window{}
	if cfg.trace {
		tw.seconds = seconds
		tr := newTracer(time.Now(), true)
		acc := samples{}
		if err := wl.traced(ctx, tw, tr, acc, w.attempted); err != nil {
			tw.fail("traced pass: %v", err)
		}
		if err := tr.write(filepath.Join(cfg.outDir, "trace-"+name+".json"), name, cfg.seed); err != nil {
			return nil, err
		}
		_, _, gc1 := mem.read()
		acc.add("proc.gc_cycles", float64(gc1-gc0))
		acc.add("proc.rss_peak_mb", rssPeakMB())
		acc.add("proc.quiet_share", quietShare)
		// Traced against untraced, both over every operation.
		if p50 := res.AllOps["p50_ms"]; p50 > 0 && len(acc["trace.op_ms"]) > 0 {
			acc.add("trace.overhead_share", acc.median("trace.op_ms")/p50-1)
		}
		// Only what this workload sampled: a metric of a layer it does not
		// run, or cannot time from outside, is left out, not reported as 0.
		res.PerLayer = map[string]metric{}
		for _, m := range sp.PerLayer {
			if len(acc[m.Name]) > 0 {
				res.PerLayer[m.Name] = metric{acc.median(m.Name), m.Unit}
			}
		}
	}
	runtime.GOMAXPROCS(procs)
	wl.finish(ctx, w)

	res.Attempted = w.attempted + tw.attempted
	res.Failed = w.failed + tw.failed
	res.Failures = append(w.failures, tw.failures...)
	res.Correct = res.Failed == 0 && len(w.lat) > 0
	return res, nil
}

// timings returns the three timing metrics of a set of operation latencies.
// The workloads are closed loops of one caller, so operations per second is
// one over the mean time of an operation.
func timings(ops []time.Duration) map[string]float64 {
	lat := durationsMS(ops)
	var busy, rate float64
	for _, l := range lat {
		busy += l
	}
	if busy > 0 {
		rate = 1e3 * float64(len(lat)) / busy
	}
	return map[string]float64{"ops_per_s": rate, "p50_ms": quantile(lat, 0.5), "p90_ms": quantile(lat, 0.9)}
}

// print writes the result as a table a person reads.
func (r *result) print(sp *spec) {
	fmt.Printf("\n%s  seed=%d  attempted=%d failed=%d failed_share=%g  samples=%d (the core was quiet for %.0f%% of the operations)\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Samples, 100*r.QuietShare)
	for _, m := range sp.EndToEnd {
		fmt.Printf("  %-28s %14.4f %s", m.Name, r.EndToEnd[m.Name].Value, m.Unit)
		if all, ok := r.AllOps[m.Name]; ok && all != r.EndToEnd[m.Name].Value {
			fmt.Printf("   (%.4f over all operations)", all)
		}
		fmt.Println()
	}
	if r.PerLayer != nil {
		fmt.Println("  -- per layer (traced pass; only the metrics this workload samples)")
		for _, m := range sp.PerLayer {
			if v, ok := r.PerLayer[m.Name]; ok {
				fmt.Printf("  %-28s %14.4f %s\n", m.Name, v.Value, m.Unit)
			}
		}
	}
	for _, f := range r.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// driverLine is the one JSON object the benchmark driver reads from the last
// line of standard output: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one. The driver wants every per-layer metric
// from every workload, so here, and only here, one the workload did not
// sample reads 0; the report and the printed table leave it out.
func driverLine(sp *spec, results []*result, trace bool) string {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		names, src, prefix := sp.EndToEnd, r.EndToEnd, ""
		if trace {
			names, src = sp.PerLayer, r.PerLayer
		}
		if len(results) > 1 {
			prefix = r.Workload + "/"
		}
		for _, m := range names {
			out.Metrics[prefix+m.Name] = metric{src[m.Name].Value, m.Unit}
		}
	}
	line, _ := json.Marshal(out) // a struct of maps, numbers and strings cannot fail to encode
	return string(line)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSet runs the named workloads in order and returns their results.
func runSet(ctx context.Context, sp *spec, names []string, cfg config) ([]*result, error) {
	var out []*result
	for _, name := range names {
		r, err := runWorkload(ctx, sp, name, cfg)
		if err != nil {
			return nil, err
		}
		r.print(sp)
		out = append(out, r)
	}
	return out, nil
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 0, "length of the measured window per workload (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 1, "1: spend the second half of the window on the traced pass and report per-layer metrics; 0: end-to-end metrics only")
		out     = flag.String("out", "", "report file (default bench/out/report.json under the repository root)")
		repeat  = flag.Int("repeat", 0, "run the set this many times, alternating workload order, and fail if an end-to-end metric moves between runs by more than its bound")
		compare = flag.Bool("compare", false, "compare two sets of reports: bench -compare 'base*.json' 'new*.json'")
	)
	flag.Parse()
	err := func() error {
		sp, root, err := loadSpec()
		if err != nil {
			return err
		}
		if *compare {
			if flag.NArg() != 2 {
				return errors.New("-compare takes two arguments: the base reports and the new reports (file names or quoted globs)")
			}
			return compareReports(sp, flag.Arg(0), flag.Arg(1))
		}
		if *seconds <= 0 {
			*seconds = float64(sp.RunSeconds)
		}
		outDir := filepath.Join(root, "bench", "out")
		if *out == "" {
			*out = filepath.Join(outDir, "report.json")
		}
		cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1, outDir: outDir}
		var names []string
		for _, w := range sp.Workloads {
			if *name == "all" || *name == w.Name {
				names = append(names, w.Name)
			}
		}
		if len(names) == 0 {
			return fmt.Errorf("no workload named %q in BENCHMARK.json", *name)
		}
		ctx := context.Background()
		if *repeat > 0 {
			return repeatRuns(ctx, sp, names, cfg, *repeat, filepath.Join(outDir, "repeat.json"))
		}
		return runOnce(ctx, sp, names, cfg, *out)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOnce runs the named workloads, writes the report and prints the line the
// benchmark driver reads.
func runOnce(ctx context.Context, sp *spec, names []string, cfg config, out string) error {
	results, err := runSet(ctx, sp, names, cfg)
	if err != nil {
		return err
	}
	rep := newReport(cfg.seed, cfg.seconds)
	correct := true
	for _, r := range results {
		rep.Results = append(rep.Results, *r)
		correct = correct && r.Correct
	}
	if err := writeJSON(out, rep); err != nil {
		return err
	}
	fmt.Printf("\nreport: %s\n%s\n", out, driverLine(sp, results, cfg.trace))
	if !correct {
		return errors.New("a correctness check failed; see FAILED lines above")
	}
	return nil
}
