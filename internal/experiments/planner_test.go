//go:build perfsmoke

package experiments

import "testing"

// TestPlannerPerfSmoke guards the committed BENCH_planner.json: it re-runs
// the planner benchmark at the small scale and fails when a measured speedup
// drops below half of the committed improvement. Points committed below 1.5x
// are not gated (the fd-good-order point deliberately measures planning
// overhead and sits below 1). Skips when the artifact is absent.
//
// A wall-clock ratio gate: built only with -tags perfsmoke. The planner's
// qualitative win, fewer offending tuples than the fixed plan on every
// workload, is a count: TestPlannerCounts, which always runs.
func TestPlannerPerfSmoke(t *testing.T) {
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
		if want.Err != "" || want.Speedup < 1.5 {
			continue
		}
		pt, ok := byName[want.Query]
		if !ok || pt.Err != "" {
			t.Errorf("planner %s: missing or failed in rerun (%+v)", want.Query, pt)
			continue
		}
		if floor := want.Speedup / 2; pt.Speedup < floor {
			t.Errorf("planner %s: speedup %.2fx regressed below %.2fx (committed %.2fx)",
				want.Query, pt.Speedup, floor, want.Speedup)
		}
	}
}
