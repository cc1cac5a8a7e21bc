//go:build perfsmoke

package experiments

import "testing"

// TestCompilePerfSmoke re-runs the compile benchmark and gates each workload
// at half the committed BENCH_compile.json speedup — loose enough for CI
// noise, tight enough to catch the circuit path silently degrading into a
// per-round Shannon re-solve. The issue's acceptance floors (2x on the
// prob-update refresh workload, 1.5x on the shared-core workload) are far
// below the committed ratios, so halving cannot mask a real regression past
// them.
//
// A wall-clock ratio gate: built only with -tags perfsmoke (it is the test
// that failed when `go test ./...` ran packages side by side). That the
// compiled structure is reused at all is TestCompileCounts, which always
// runs.
func TestCompilePerfSmoke(t *testing.T) {
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
		if floor := want.Speedup / 2; pt.Speedup < floor {
			t.Errorf("%s: speedup %.2fx regressed below %.2fx (committed %.2fx)",
				want.Workload, pt.Speedup, floor, want.Speedup)
		}
	}
}
