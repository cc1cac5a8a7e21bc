package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedStats is a hand-built evaluation record with deterministic wall
// times, shaped like a real partial-lineage run of the paper's running
// example: scans feeding a conditioning join, a dedup projection, and an
// inference pass whose answer span names its backend.
func fixedStats() core.Stats {
	return core.Stats{
		Strategy:        core.PartialLineage,
		Answers:         1,
		OffendingTuples: 2,
		NetworkNodes:    6,
		NetworkEdges:    6,
		RowsCharged:     23,
		NodesCharged:    5,
		PlanTime:        65 * time.Microsecond,
		InferenceTime:   44 * time.Microsecond,

		PlanSource:       "greedy",
		PlanOrder:        "R1,S1",
		PlanEstOffending: 2,
		PlanCandidates:   2,
		PlanCache:        "stats",

		Operators: []core.OpStat{
			{Op: "R1(h, x)", Kind: "scan", Depth: 2, Rows: 2, RowsIn: 2, Time: 5 * time.Microsecond},
			{Op: "S1(h, x, y)", Kind: "scan", Depth: 2, Rows: 4, RowsIn: 4, Time: 2 * time.Microsecond},
			{Op: "(R1(h, x) ⋈ S1(h, x, y))", Kind: "join", Depth: 1, Rows: 4, RowsIn: 6,
				Conditioned: 2, NetworkGrowth: 2, Time: 35 * time.Microsecond},
			{Op: "π{h}((R1(h, x) ⋈ S1(h, x, y)))", Kind: "project", Depth: 0, Rows: 1, RowsIn: 4,
				NetworkGrowth: 3, Time: 23 * time.Microsecond},
			{Op: "lineage node 5", Kind: "infer.answer", Depth: 1, Rows: 1,
				Time: 44 * time.Microsecond, Detail: "expand+shannon"},
			{Op: "inference (1 jobs)", Kind: "infer", Depth: 0, Rows: 1,
				Time: 44 * time.Microsecond},
		},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run %s -update ./internal/obs): %v", t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s\n-- got --\n%s\n-- want --\n%s", path, got, want)
	}
}

func TestBuildTraceTree(t *testing.T) {
	tr := BuildTrace("q(h) :- R1(h, x), S1(h, x, y), R2(h, y)", fixedStats())
	if len(tr.Roots) != 2 {
		t.Fatalf("want 2 roots (plan + inference), got %d", len(tr.Roots))
	}
	plan := tr.Roots[0]
	if plan.Kind != "project" || len(plan.Children) != 1 {
		t.Fatalf("unexpected plan root: %+v", plan)
	}
	join := plan.Children[0]
	if join.Kind != "join" || len(join.Children) != 2 || join.Conditioned != 2 {
		t.Fatalf("unexpected join span: %+v", join)
	}
	infer := tr.Roots[1]
	if infer.Kind != "infer" || len(infer.Children) != 1 || infer.Children[0].Detail != "expand+shannon" {
		t.Fatalf("unexpected inference root: %+v", infer)
	}
}

func TestWriteTreeGolden(t *testing.T) {
	tr := BuildTrace("q(h) :- R1(h, x), S1(h, x, y), R2(h, y)", fixedStats())
	var buf bytes.Buffer
	if err := tr.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "explain_partial.golden", buf.Bytes())
}

func TestWriteJSONGolden(t *testing.T) {
	tr := BuildTrace("q(h) :- R1(h, x), S1(h, x, y), R2(h, y)", fixedStats())
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace_partial.json.golden", buf.Bytes())
}

func TestWriteTreeUntraced(t *testing.T) {
	s := fixedStats()
	s.Operators = nil
	var buf bytes.Buffer
	if err := BuildTrace("", s).WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("no operator trace recorded")) {
		t.Errorf("untraced rendering should say so:\n%s", buf.String())
	}
}

func TestWriteTreeApproximate(t *testing.T) {
	s := fixedStats()
	s.Approximate = true
	s.FallbackReason = "exact inference exceeded the width cap; forward sampling"
	var buf bytes.Buffer
	if err := BuildTrace("", s).WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("approximate: exact inference exceeded the width cap")) {
		t.Errorf("fallback reason missing from header:\n%s", buf.String())
	}
}
