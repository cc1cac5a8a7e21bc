package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
)

// traceDB builds an instance with a few hundred rows per join input, seven
// answers, and fanout so some tuples are offending and the network is
// non-trivial.
func traceDB(t *testing.T) (*relation.Database, *query.Query, *query.Plan) {
	t.Helper()
	db := relation.NewDatabase()
	r := relation.New("R", "x")
	s := relation.New("S", "x", "y")
	for i := 0; i < 200; i++ {
		if err := r.AddInts(0.5, int64(i)); err != nil {
			t.Fatal(err)
		}
		// Fanout 2 per x: uncertain R tuples become offending at the join.
		if err := s.AddInts(0.7, int64(i), int64(i%7)); err != nil {
			t.Fatal(err)
		}
		if err := s.AddInts(0.6, int64(i), int64((i+1)%7)); err != nil {
			t.Fatal(err)
		}
	}
	db.AddRelation(r)
	db.AddRelation(s)
	q, err := query.Parse("q(y) :- R(x), S(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := query.LeftDeepPlan(q, []string{"R", "S"})
	if err != nil {
		t.Fatal(err)
	}
	return db, q, plan
}

func tracedEval(t *testing.T, parallelism int) *Result {
	t.Helper()
	db, q, plan := traceDB(t)
	res, err := Evaluate(db, q, plan, Options{
		Strategy:    core.PartialLineage,
		Trace:       true,
		Parallelism: parallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// maskTimes zeroes wall times so traces compare structurally.
func maskTimes(ops []core.OpStat) []core.OpStat {
	out := append([]core.OpStat(nil), ops...)
	for i := range out {
		out[i].Time = 0
	}
	return out
}

// TestOperatorSpansIgnoreParallelism asserts the Ops ordering contract:
// Parallelism fans out only the per-answer inference jobs, so every operator
// span is identical at Parallelism 0 and 4 and only the "infer.answer" spans
// may differ (they keep their count and order; recordInference records them
// after the fan-out, never from the workers).
func TestOperatorSpansIgnoreParallelism(t *testing.T) {
	serial := maskTimes(tracedEval(t, 0).Stats.Operators)
	if len(serial) == 0 {
		t.Fatal("serial evaluation recorded no operators")
	}
	par := maskTimes(tracedEval(t, 4).Stats.Operators)
	if len(par) != len(serial) {
		t.Fatalf("Parallelism 4 recorded %d ops, Parallelism 0 recorded %d", len(par), len(serial))
	}
	answers := 0
	for i := range serial {
		if serial[i].Kind == "infer.answer" {
			answers++
			if par[i].Kind != "infer.answer" || par[i].Op != serial[i].Op {
				t.Errorf("op %d: answer span %q became %s %q", i, serial[i].Op, par[i].Kind, par[i].Op)
			}
			continue
		}
		if serial[i] != par[i] {
			t.Errorf("op %d: Parallelism 0 %+v vs Parallelism 4 %+v", i, serial[i], par[i])
		}
	}
	if answers < 2 {
		t.Fatalf("%d infer.answer spans — the inference fan-out had nothing to parallelise", answers)
	}
}

// TestTraceChargesRecorded asserts the always-on work counters surface in
// Stats regardless of budgets.
func TestTraceChargesRecorded(t *testing.T) {
	res := tracedEval(t, 1)
	if res.Stats.RowsCharged == 0 {
		t.Error("RowsCharged not accumulated")
	}
	if res.Stats.NodesCharged == 0 {
		t.Error("NodesCharged not accumulated")
	}
}
