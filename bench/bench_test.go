package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at 1/50 size with the traced pass and checks
// what does not depend on the machine: every end-to-end metric BENCHMARK.json
// names, and every per-layer metric of the layers the workload runs, is
// reported, finite and in its unit; no other is; nothing failed; and the
// replay agreed with the engine (a disagreement is a failed operation). It
// asserts no time.
func TestSmoke(t *testing.T) {
	sp, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}
	cfg := config{seed: 7, seconds: 0.4, trace: true, scale: 0.02, outDir: t.TempDir()}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("workload %d is %q in BENCHMARK.json and %q in the harness", i, w.Name, workloads[i].name)
		}
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), sp, w.Name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			for _, m := range sp.EndToEnd {
				got, ok := res.EndToEnd[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value <= 0 {
					t.Errorf("end-to-end %s = %+v (reported %v), want a positive finite number in %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range sp.PerLayer {
				got, ok := res.PerLayer[m.Name]
				if want := reports(w.Name, m.Name); ok != want {
					t.Errorf("per-layer %s: reported %v, want %v", m.Name, ok, want)
				} else if ok && (got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0)) {
					t.Errorf("per-layer %s = %+v, want a finite number in %s", m.Name, got, m.Unit)
				}
			}
			if len(res.EndToEnd) != len(sp.EndToEnd) {
				t.Errorf("reported %d end-to-end metrics, BENCHMARK.json names %d", len(res.EndToEnd), len(sp.EndToEnd))
			}

			data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct{ Spans []span }
			if err := json.Unmarshal(data, &trace); err != nil {
				t.Fatal(err)
			}
			if len(trace.Spans) == 0 {
				t.Fatal("the traced pass recorded no span")
			}
			for _, s := range trace.Spans {
				if s.End < s.Start || s.Parent >= s.ID {
					t.Fatalf("malformed span %+v", s)
				}
			}
		})
	}
}

// sampled lists, per workload, the per-layer metrics it reports, as names or
// as prefixes (ending in "." or "_"): the layers it runs and can time from outside.
// Every other metric of BENCHMARK.json must be absent from its report.
var sampled = func() map[string][]string {
	// A replay under partial fills every row from query to pdb but those only
	// grounding (the dnf strategy) has.
	partial := []string{"query.", "planner.", "pl.", "aonet.", "inference.",
		"lineage.solve_ms", "lineage.compiles", "lineage.hits", "lineage.evals",
		"engine.eval_ms", "engine.self_ms", "engine.plan_exec_ms", "engine.infer_ms",
		"pdb.eval_ms", "pdb.self_ms", "proc.", "trace."}
	return map[string][]string{
		"fig5-partial": partial,
		"fig6-cold":    append([]string{"lineage.", "engine."}, partial...),
		"served-zipf":  append([]string{"server."}, partial...),
		// No replay: the four public calls of a round and the read's Stats.
		"write-churn": {"planner.", "pl.offending", "aonet.", "lineage.compiles", "lineage.hits", "lineage.evals",
			"engine.plan_exec_ms", "engine.infer_ms", "pdb.eval_ms", "pdb.write_", "pdb.refresh_", "pdb.read_ms",
			"pdb.materialize_ms", "pdb.bg_reads_per_s", "proc.", "trace."},
	}
}()

func reports(workload, metric string) bool {
	for _, p := range sampled[workload] {
		prefix := strings.HasSuffix(p, ".") || strings.HasSuffix(p, "_")
		if metric == p || prefix && strings.HasPrefix(metric, p) {
			return true
		}
	}
	return false
}

// TestDisturbance feeds a gate probes of a known kind: quiet ones at two clock
// speeds, ones a neighbour slowed, and ones whose chain ran slow.
func TestDisturbance(t *testing.T) {
	g := &gate{}
	for i := 0; i < 40; i++ {
		g.probes = append(g.probes, probeTimes{chain: 21000, wide: 21900}) // quiet
	}
	g.probes = append(g.probes,
		probeTimes{chain: 19300, wide: 20150}, // quiet on a faster clock
		probeTimes{chain: 21000, wide: 31000}, // a neighbour for part of the probe
		probeTimes{chain: 21100, wide: 47000}, // a neighbour throughout
		probeTimes{chain: 22600, wide: 20200}, // the clock stepped between the kernels
		probeTimes{chain: 45000, wide: 22000}, // a lost time slice in the chain
	)
	d := g.disturbance()
	for i, want := range []bool{true, false, false, false, false} {
		if got := d[40+i] <= quietSlack; got != want {
			t.Errorf("probe %+v: disturbance %.3f, quiet %v, want %v", g.probes[40+i], d[40+i], got, want)
		}
	}
	if d[0] != 1 {
		t.Errorf("a quiet probe has disturbance %v, want 1", d[0])
	}
}

// TestQuietOps checks which operations the timings are taken from: the quiet
// ones, and the quietest fifth when fewer than that are quiet.
func TestQuietOps(t *testing.T) {
	w := &window{}
	for i := 0; i < 10; i++ {
		w.lat = append(w.lat, time.Duration(i+1)*time.Millisecond)
		w.disturbed = append(w.disturbed, 2)
	}
	w.disturbed[2], w.disturbed[5], w.disturbed[7] = 1.01, 1.1, 1
	got, share := w.quietOps()
	if want := []time.Duration{8 * time.Millisecond, 3 * time.Millisecond, 6 * time.Millisecond}; !slices.Equal(got, want) || share != 0.3 {
		t.Errorf("three quiet operations in ten: got %v, share %v; want %v, share 0.3", got, share, want)
	}
	w.disturbed[2], w.disturbed[5] = 1.5, math.Inf(1)
	got, share = w.quietOps()
	if want := []time.Duration{8 * time.Millisecond, 3 * time.Millisecond}; !slices.Equal(got, want) || share != 0.1 {
		t.Errorf("one quiet operation in ten: got %v, share %v; want the quietest two %v, share 0.1", got, share, want)
	}
}

// TestQuartilesMatchPython pins the spread arithmetic to the values Python's
// statistics.quantiles(values, n=4) gives, which the benchmark driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7}, [3]float64{1, 7, 10}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(c.vs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		m         metricSpec
		base, new []float64
		want      string
	}{
		{lower, steady, scale(1.2), "regressed"},
		{lower, steady, scale(0.8), "improved"},
		{lower, steady, scale(1.05), "unchanged"},
		{higher, steady, scale(0.8), "regressed"},
		{higher, steady, scale(1.2), "improved"},
		{lower, steady, []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, "unresolved"},
	} {
		if got := verdict(c.m, c.base, c.new); got != c.want {
			t.Errorf("verdict(%s, better %s, new median %v) = %s, want %s", c.m.Name, c.m.Better, c.new[0], got, c.want)
		}
	}
}

func TestBoundFor(t *testing.T) {
	allocs := metricSpec{Name: "allocs_per_op", Better: "lower", Bound: 0.08}
	p50 := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.25}
	for _, c := range []struct {
		m        metricSpec
		workload string
		sameSeed bool
		want     float64
	}{
		{allocs, "fig5-partial", true, sameSeedAllocBound},
		{allocs, "fig5-partial", false, 0.08}, // ten databases
		{allocs, "fig6-cold", true, 0.08},     // the operations in the window differ
		{allocs, "write-churn", true, 0.08},   // the reader's share depends on timing
		{p50, "fig5-partial", true, 0.25},
		{metricSpec{Name: "alloc_kb_per_op", Bound: 0.08}, "fig5-partial", true, 0.08},
	} {
		if got := boundFor(c.m, c.workload, c.sameSeed); got != c.want {
			t.Errorf("boundFor(%s, %s, same seed %v) = %g, want %g", c.m.Name, c.workload, c.sameSeed, got, c.want)
		}
	}
}
