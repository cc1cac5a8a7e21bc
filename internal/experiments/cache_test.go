//go:build perfsmoke

package experiments

import "testing"

// TestCachePerfSmoke guards the committed BENCH_cache.json against silent
// regressions: it re-runs the cache benchmark at the small scale and fails
// when a measured ratio drops below half of the committed improvement.
// Ratios near 1 in the committed artifact are not gated (nothing to lose),
// and the server ratio is gated against a capped floor because its absolute
// value (hundreds of x) varies with the host's network stack, while "warm
// hits are at least an order of magnitude cheaper than evaluation" must
// always hold. Skips when the artifact is absent (e.g. fresh checkout
// pruned of benchmark outputs).
//
// A wall-clock ratio gate: built only with -tags perfsmoke (the CI perf-smoke
// job), because it fails on a box that is busy with something else. What the
// same benchmark asserts in counts is TestCacheCounts, which always runs.
func TestCachePerfSmoke(t *testing.T) {
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
		if floor := want.Speedup / 2; pt.Speedup < floor {
			t.Errorf("memo %s: speedup %.2fx regressed below %.2fx (committed %.2fx)",
				want.Query, pt.Speedup, floor, want.Speedup)
		}
	}

	serveBy := map[string]ServePoint{}
	for _, pt := range got.Serve {
		serveBy[pt.Query] = pt
	}
	for _, want := range committed.Serve {
		if want.Err != "" || want.Speedup < 1.5 {
			continue
		}
		pt, ok := serveBy[want.Query]
		if !ok || pt.Err != "" {
			t.Errorf("server %s: missing or failed in rerun (%+v)", want.Query, pt)
			continue
		}
		floor := want.Speedup / 2
		if floor > 25 {
			floor = 25
		}
		if pt.Speedup < floor {
			t.Errorf("server %s: warm speedup %.1fx regressed below %.1fx (committed %.1fx)",
				want.Query, pt.Speedup, floor, want.Speedup)
		}
	}
}
