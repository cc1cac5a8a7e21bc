//go:build perfsmoke

package experiments

import "testing"

// TestTopkPerfSmoke guards the committed BENCH_topk.json: it re-runs the
// top-k benchmark at the small scale and fails when a measured seeded-vs-cold
// speedup drops below half of the committed one. Points committed below 1.5x
// are not gated (the grid-groups point deliberately measures a workload whose
// dissociation intervals are too wide to beat the cold union-bound start).
// Skips when the artifact is absent.
//
// A wall-clock ratio gate: built only with -tags perfsmoke. The qualitative
// wins (both modes agree on the top-k set, the seeded run never samples more
// than the cold one) are counts: TestTopkCounts, which always runs.
func TestTopkPerfSmoke(t *testing.T) {
	var committed TopkReport
	loadCommitted(t, "BENCH_topk.json", &committed)
	got, err := TopkBench(Small())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]TopkPoint{}
	for _, pt := range got.Points {
		byName[pt.Workload] = pt
	}
	for _, want := range committed.Points {
		if want.Err != "" || want.Speedup < 1.5 {
			continue
		}
		pt, ok := byName[want.Workload]
		if !ok || pt.Err != "" {
			t.Errorf("topk %s: missing or failed in rerun (%+v)", want.Workload, pt)
			continue
		}
		if floor := want.Speedup / 2; pt.Speedup < floor {
			t.Errorf("topk %s: speedup %.2fx regressed below %.2fx (committed %.2fx)",
				want.Workload, pt.Speedup, floor, want.Speedup)
		}
	}
}
