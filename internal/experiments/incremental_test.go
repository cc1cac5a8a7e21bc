//go:build perfsmoke

package experiments

import "testing"

// TestIncrementalPerfSmoke guards the patch-vs-recompute refresh advantage of
// the committed BENCH_incremental.json. Patch speedup is wall-clock and
// varies with the host, so the floor is capped: "a patched refresh is at
// least an order of magnitude cheaper than a recompute" must always hold once
// the committed artifact shows a real advantage. Skips when the artifact is
// absent.
//
// A wall-clock ratio gate: built only with -tags perfsmoke. The warm-hit
// retention of the versioned cache is a count: TestIncrementalCounts, which
// always runs.
func TestIncrementalPerfSmoke(t *testing.T) {
	var committed IncrementalReport
	loadCommitted(t, "BENCH_incremental.json", &committed)
	got, err := IncrementalBench(Small())
	if err != nil {
		t.Fatal(err)
	}
	if committed.PatchSpeedup >= 2 {
		floor := committed.PatchSpeedup / 2
		if floor > 20 {
			floor = 20
		}
		if got.PatchSpeedup < floor {
			t.Errorf("patch speedup %.1fx regressed below %.1fx (committed %.1fx)",
				got.PatchSpeedup, floor, committed.PatchSpeedup)
		}
	}
}
