//go:build perfsmoke

package experiments

import "testing"

// TestSpillPerfSmoke guards the committed BENCH_spill.json: it re-runs the
// spill benchmark and fails when a measured throughput ratio drops below
// half of the committed one — i.e. when spilled execution got at least
// twice as expensive relative to in-memory as when the artifact was
// recorded. Skips when the artifact is absent.
//
// A wall-clock ratio gate: built only with -tags perfsmoke. That the budgeted
// runs spill at all is a count: TestSpillCounts, which always runs.
func TestSpillPerfSmoke(t *testing.T) {
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
		if floor := want.Ratio / 2; pt.Ratio < floor {
			t.Errorf("spill %s: throughput ratio %.3f regressed below %.3f (committed %.3f)",
				want.Workload, pt.Ratio, floor, want.Ratio)
		}
	}
}
