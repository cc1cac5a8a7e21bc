package pdb

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// bigTriangle builds R(x), S(x,y), T(y) with dom² uncertain S tuples — large
// enough for budgets to bite.
func bigTriangle(t *testing.T, dom int) *Database {
	t.Helper()
	db := NewDatabase()
	r := db.CreateRelation("R", "x")
	s := db.CreateRelation("S", "x", "y")
	tt := db.CreateRelation("T", "y")
	for x := 1; x <= dom; x++ {
		if err := r.AddInts(0.5, int64(x)); err != nil {
			t.Fatal(err)
		}
		if err := tt.AddInts(0.5, int64(x)); err != nil {
			t.Fatal(err)
		}
		for y := 1; y <= dom; y++ {
			if err := s.AddInts(0.5, int64(x), int64(y)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func TestEvaluateContextThroughFacade(t *testing.T) {
	db := buildTriangle(t)
	q, err := ParseQuery("q :- R(a), S(a, b), T(b)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.EvaluateContext(context.Background(), q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.BoolProb(), triangleExact(); math.Abs(got-want) > 1e-9 {
		t.Errorf("BoolProb = %.12f, want %.12f", got, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.EvaluateContext(ctx, q, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err = %v, want context.Canceled", err)
	}
	plan, err := LeftDeepPlan(q, "R", "S", "T")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.EvaluateWithPlanContext(ctx, q, plan, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context with plan: err = %v, want context.Canceled", err)
	}
}

func TestBudgetsThroughFacade(t *testing.T) {
	db := bigTriangle(t, 10)
	q, err := ParseQuery("q :- R(a), S(a, b), T(b)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Evaluate(q, Options{Budget: Budget{Rows: 20}}); !errors.Is(err, ErrRowBudget) {
		t.Errorf("row budget: err = %v, want ErrRowBudget", err)
	}
	if _, err := db.Evaluate(q, Options{Strategy: FullNetwork, Budget: Budget{Nodes: 10}}); !errors.Is(err, ErrNodeBudget) {
		t.Errorf("node budget: err = %v, want ErrNodeBudget", err)
	}
	heavy := bigTriangle(t, 14)
	if _, err := heavy.Evaluate(q, Options{Budget: Budget{Time: 30 * time.Millisecond}, Samples: 1 << 30}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("time budget: err = %v, want context.DeadlineExceeded", err)
	}
}

func TestPartialResultOnAbort(t *testing.T) {
	db := bigTriangle(t, 10)
	q, err := ParseQuery("q :- R(a), S(a, b), T(b)")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Evaluate(q, Options{Budget: Budget{Rows: 20}, Trace: true})
	if !errors.Is(err, ErrRowBudget) {
		t.Fatalf("err = %v, want ErrRowBudget", err)
	}
	if res == nil {
		t.Fatal("aborted evaluation returned no partial result")
	}
	if len(res.Rows) != 0 {
		t.Errorf("partial result has %d rows, want 0", len(res.Rows))
	}
	if res.Stats.RowsCharged <= 20 {
		t.Errorf("partial RowsCharged = %d, want > budget", res.Stats.RowsCharged)
	}
	// The partial trace renders: Explain must succeed and name the query.
	var buf strings.Builder
	if err := res.Explain(&buf); err != nil {
		t.Fatalf("Explain on partial result: %v", err)
	}
	if !strings.Contains(buf.String(), "q() :- R(a), S(a, b), T(b)") {
		t.Errorf("partial explain missing query:\n%s", buf.String())
	}

	// Pre-evaluation failures (options rejected before anything runs) carry
	// no partial work and keep returning a nil result.
	if res, err := db.Evaluate(q, Options{Epsilon: 0.5}); err == nil || res != nil {
		t.Errorf("half-set (ε, δ): res = %v, err = %v; want nil result + error", res, err)
	}
}

func TestEpsilonDeltaOptions(t *testing.T) {
	db := bigTriangle(t, 4)
	q, err := ParseQuery("q(a) :- R(a), S(a, b), T(b)")
	if err != nil {
		t.Fatal(err)
	}
	// Half-set pairs are rejected.
	if _, err := db.Evaluate(q, Options{Strategy: MonteCarlo, Epsilon: 0.1}); err == nil {
		t.Error("Epsilon without Delta: want error")
	}
	if _, err := db.Evaluate(q, Options{Strategy: MonteCarlo, Delta: 0.1}); err == nil {
		t.Error("Delta without Epsilon: want error")
	}
	// A valid pair whose sample count overflows an int on this lineage is a
	// typed error, not a negative count handed to the sampler.
	_, err = db.Evaluate(q, Options{Strategy: MonteCarlo, Epsilon: 1e-10, Delta: 0.5})
	var sce *SampleCountError
	if !errors.As(err, &sce) || sce.Epsilon != 1e-10 || sce.Delta != 0.5 || sce.Clauses == 0 {
		t.Errorf("unrepresentable sample count: err = %v, want a SampleCountError naming ε, δ and the clause count", err)
	}
	// A fixed seed makes the (ε, δ) Karp–Luby run exactly reproducible, and
	// ε=0.05, δ=0.01 lands within relative error ε of the exact answer (the
	// guarantee holds with probability 1−δ; a failure here is a 1-in-100
	// flake at worst, and the fixed seed makes it deterministic in practice).
	exact, err := db.Evaluate(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := db.Evaluate(q, Options{Strategy: MonteCarlo, Epsilon: 0.05, Delta: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.Evaluate(q, Options{Strategy: MonteCarlo, Epsilon: 0.05, Delta: 0.01, Seed: 7, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) || len(a.Rows) == 0 {
		t.Fatalf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i].P != b.Rows[i].P {
			t.Errorf("row %d: same seed gave %v vs %v", i, a.Rows[i].P, b.Rows[i].P)
		}
		want := exact.Prob(a.Rows[i].Vals...)
		if want > 0 && math.Abs(a.Rows[i].P-want)/want > 0.05 {
			t.Errorf("row %d: relative error %.4f beyond ε", i, math.Abs(a.Rows[i].P-want)/want)
		}
	}
}

func TestParallelismThroughFacade(t *testing.T) {
	db := bigTriangle(t, 8)
	q, err := ParseQuery("q(a) :- R(a), S(a, b), T(b)")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := db.Evaluate(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := db.Evaluate(q, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) != len(par.Rows) {
		t.Fatalf("%d rows serial, %d parallel", len(serial.Rows), len(par.Rows))
	}
	for i := range serial.Rows {
		if serial.Rows[i].P != par.Rows[i].P {
			t.Errorf("row %d: serial P = %v, parallel P = %v", i, serial.Rows[i].P, par.Rows[i].P)
		}
	}
}

// TestTopKQueryContext: top-k grounds and refines under the caller's
// context. An already-cancelled context stops in grounding; a deadline
// shorter than one refinement round stops the multisimulation, which on tied
// answers would otherwise run its whole round budget.
func TestTopKQueryContext(t *testing.T) {
	// Seventy copies of one 70-clause answer: past the exact-evaluation limit
	// and inseparable, so cold multisimulation never finishes early.
	db := bigTriangle(t, 70)
	q := mustQuery(t, "q(a) :- R(a), S(a, b), T(b)")
	opts := TopKOptions{K: 2, Seed: 1, NoSeedBounds: true}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.TopKQueryContext(cancelled, q, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err = %v, want context.Canceled", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := db.TopKQueryContext(ctx, q, opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("20 ms deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("20 ms deadline returned after %v", d)
	}

	// With seeding the same answers are read-once: ranked without a round.
	res, err := db.TopKQueryContext(context.Background(), q, TopKOptions{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Errorf("seeded top-2 returned %d answers", len(res.Answers))
	}
}
