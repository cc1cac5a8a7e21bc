package experiments

// The benchmarks behind the BENCH_*.json artifacts, re-run at the small scale
// and held to what they assert in counts: hits, compiles, offending tuples,
// nodes, samples, spilled partitions. Counts do not depend on what else the
// machine is doing, so these tests belong to `go test ./...`. The wall-clock
// ratios of the same benchmarks are gated by the Test*PerfSmoke tests, built
// with -tags perfsmoke and run one at a time by the CI perf-smoke job.

import (
	"encoding/json"
	"os"
	"testing"
)

// loadCommitted reads a committed benchmark artifact from the repository
// root into v. It skips the test under -short (the benchmarks take seconds)
// and when the artifact is absent (a checkout pruned of benchmark outputs).
func loadCommitted(t *testing.T, name string, v any) {
	t.Helper()
	if testing.Short() {
		t.Skip("re-running a benchmark is not a -short test")
	}
	data, err := os.ReadFile("../../" + name)
	if os.IsNotExist(err) {
		t.Skipf("%s not committed", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("parsing committed %s: %v", name, err)
	}
}

// compileFloors are the compile benchmark's acceptance floors per workload;
// committed points below them are not gated.
var compileFloors = map[string]float64{"refresh": 2, "shared-core": 1.5}

// TestCacheCounts: the cross-answer memo engages on every workload the
// committed artifact shows it paying off on, and hash-consing keeps at least
// half of the committed node reduction (node counts are deterministic; only a
// consing-table change can move them).
func TestCacheCounts(t *testing.T) {
	var committed CacheReport
	loadCommitted(t, "BENCH_cache.json", &committed)
	got, err := CacheBench(Small(), CacheOptions{Memo: true, Cache: true})
	if err != nil {
		t.Fatal(err)
	}
	memoBy := map[string]MemoPoint{}
	for _, pt := range got.Memo {
		memoBy[pt.Query] = pt
	}
	for _, want := range committed.Memo {
		if want.Err != "" || want.Speedup < 1.5 {
			continue
		}
		pt, ok := memoBy[want.Query]
		if !ok || pt.Err != "" {
			t.Errorf("memo %s: missing or failed in rerun (%+v)", want.Query, pt)
			continue
		}
		if pt.MemoHits == 0 {
			t.Errorf("memo %s: no shared-memo hits; the cross-answer table is not engaging", want.Query)
		}
	}
	consBy := map[string]ConsPoint{}
	for _, pt := range got.Cons {
		consBy[pt.Query] = pt
	}
	for _, want := range committed.Cons {
		if want.Err != "" || want.Reduction < 1.1 {
			continue
		}
		pt, ok := consBy[want.Query]
		if !ok || pt.Err != "" {
			t.Errorf("consing %s: missing or failed in rerun (%+v)", want.Query, pt)
			continue
		}
		if floor := 1 + (want.Reduction-1)/2; pt.Reduction < floor {
			t.Errorf("consing %s: node reduction %.3fx regressed below %.3fx (committed %.3fx)",
				want.Query, pt.Reduction, floor, want.Reduction)
		}
	}
}

// TestCompileCounts: compiled circuit structure is reused on every workload
// the committed artifact gates.
func TestCompileCounts(t *testing.T) {
	var committed CompileReport
	loadCommitted(t, "BENCH_compile.json", &committed)
	got, err := CompileBench(Small())
	if err != nil {
		t.Fatal(err)
	}
	gotBy := map[string]CompilePoint{}
	for _, pt := range got.Points {
		gotBy[pt.Workload] = pt
	}
	for _, want := range committed.Points {
		if want.Err != "" || want.Speedup < compileFloors[want.Workload] {
			continue
		}
		pt, ok := gotBy[want.Workload]
		if !ok || pt.Err != "" {
			t.Errorf("%s: missing or failed in rerun (%+v)", want.Workload, pt)
			continue
		}
		if pt.Hits == 0 {
			t.Errorf("%s: no circuit-cache hits; compiled structure is not being reused", want.Workload)
		}
	}
}

// TestPlannerCounts: offending counts are deterministic properties of the
// chosen plans, and the adaptive plan must never condition more tuples than
// the fixed safe-else-body-order plan.
func TestPlannerCounts(t *testing.T) {
	var committed PlannerReport
	loadCommitted(t, "BENCH_planner.json", &committed)
	got, err := PlannerBench(Small())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PlannerPoint{}
	for _, pt := range got.Workloads {
		byName[pt.Query] = pt
	}
	for _, want := range committed.Workloads {
		if want.Err != "" {
			continue
		}
		pt, ok := byName[want.Query]
		if !ok || pt.Err != "" {
			t.Errorf("planner %s: missing or failed in rerun (%+v)", want.Query, pt)
			continue
		}
		if pt.AdaptiveOffending > pt.FixedOffending {
			t.Errorf("planner %s: adaptive plan conditions %d tuples, the fixed plan %d — the planner made the query worse",
				want.Query, pt.AdaptiveOffending, pt.FixedOffending)
		}
	}
}

// TestIncrementalCounts: the warm-hit retention of the versioned result
// cache, counted over a fixed request sequence. A workload mutating relation
// A must retain warm hits for queries reading only B (within half of the
// committed ratio), and strictly more of them than the full-purge baseline
// that self-churn reproduces.
func TestIncrementalCounts(t *testing.T) {
	var committed IncrementalReport
	loadCommitted(t, "BENCH_incremental.json", &committed)
	got, err := IncrementalBench(Small())
	if err != nil {
		t.Fatal(err)
	}
	retBy := map[string]RetentionPoint{}
	for _, pt := range got.Retention {
		retBy[pt.Workload] = pt
	}
	for _, want := range committed.Retention {
		if want.Err != "" || want.Workload != "unrelated-churn" || want.HitRatio < 0.5 {
			continue
		}
		pt, ok := retBy[want.Workload]
		if !ok || pt.Err != "" {
			t.Errorf("retention %s: missing or failed in rerun (%+v)", want.Workload, pt)
			continue
		}
		if floor := want.HitRatio / 2; pt.HitRatio < floor {
			t.Errorf("retention %s: hit ratio %.2f regressed below %.2f (committed %.2f)",
				want.Workload, pt.HitRatio, floor, want.HitRatio)
		}
	}
	if a, b := retBy["unrelated-churn"], retBy["self-churn"]; a.Err == "" && b.Err == "" {
		if a.HitRatio <= b.HitRatio {
			t.Errorf("unrelated-churn hit ratio %.2f does not beat full-purge baseline %.2f",
				a.HitRatio, b.HitRatio)
		}
	}
}

// TestSpillCounts: the budgeted runs actually spill — a spill benchmark that
// stays resident is not measuring anything.
func TestSpillCounts(t *testing.T) {
	var committed SpillReport
	loadCommitted(t, "BENCH_spill.json", &committed)
	got, err := SpillBench(Small())
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]SpillPoint{}
	for _, pt := range got.Points {
		by[pt.Workload] = pt
	}
	for _, want := range committed.Points {
		if want.Err != "" {
			continue
		}
		pt, ok := by[want.Workload]
		if !ok || pt.Err != "" {
			t.Errorf("spill %s: missing or failed in rerun (%+v)", want.Workload, pt)
			continue
		}
		if pt.SpilledPartitions == 0 {
			t.Errorf("spill %s: budgeted run spilled no partitions", want.Workload)
		}
	}
}

// TestTopkCounts: both modes agree on the top-k set (TopkBench fails the
// point otherwise), and seeding never adds sampling work: every interval
// starts no wider than cold's, so the critical set is a subset round by
// round.
func TestTopkCounts(t *testing.T) {
	var committed TopkReport
	loadCommitted(t, "BENCH_topk.json", &committed)
	for _, pt := range committed.Points {
		if pt.Err != "" {
			t.Errorf("committed point %s carries an error: %s", pt.Workload, pt.Err)
		}
	}
	got, err := TopkBench(Small())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]TopkPoint{}
	for _, pt := range got.Points {
		byName[pt.Workload] = pt
	}
	for _, want := range committed.Points {
		if want.Err != "" {
			continue
		}
		pt, ok := byName[want.Workload]
		if !ok {
			t.Errorf("topk %s: missing from rerun", want.Workload)
			continue
		}
		if pt.Err != "" {
			t.Errorf("topk %s: rerun failed: %s", want.Workload, pt.Err)
			continue
		}
		if pt.SeededSamples > pt.ColdSamples {
			t.Errorf("topk %s: seeded run drew %d samples, cold %d — seeding added work",
				want.Workload, pt.SeededSamples, pt.ColdSamples)
		}
	}
}
