package engine

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/tuple"
)

// bruteForceAnswers computes every answer's probability by enumerating the
// possible worlds of the database and matching the query naively in each —
// an implementation independent from both engine paths.
func bruteForceAnswers(t *testing.T, db *relation.Database, q *query.Query) map[string]float64 {
	t.Helper()
	worlds, err := db.Worlds()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, w := range worlds {
		for _, key := range matchWorld(t, db, q, &w) {
			out[key] += w.P
		}
	}
	return out
}

// matchWorld returns the distinct head-binding keys satisfied in the world.
func matchWorld(t *testing.T, db *relation.Database, q *query.Query, w *relation.World) []string {
	t.Helper()
	found := make(map[string]bool)
	var rec func(depth int, binding map[string]tuple.Value)
	rec = func(depth int, binding map[string]tuple.Value) {
		if depth == len(q.Atoms) {
			vals := make(tuple.Tuple, len(q.Head))
			for i, h := range q.Head {
				vals[i] = binding[h]
			}
			found[vals.Key()] = true
			return
		}
		a := &q.Atoms[depth]
		rel, err := db.Relation(a.Pred)
		if err != nil {
			t.Fatal(err)
		}
		for _, ri := range w.Present[a.Pred] {
			row := rel.Rows[ri]
			ok := true
			newly := make([]string, 0, len(a.Args))
			for i, arg := range a.Args {
				switch {
				case !arg.IsVar():
					if row.Tuple[i] != arg.Const {
						ok = false
					}
				default:
					if v, bound := binding[arg.Var]; bound {
						if v != row.Tuple[i] {
							ok = false
						}
					} else {
						binding[arg.Var] = row.Tuple[i]
						newly = append(newly, arg.Var)
					}
				}
				if !ok {
					break
				}
			}
			if ok {
				rec(depth+1, binding)
			}
			for _, v := range newly {
				delete(binding, v)
			}
		}
	}
	rec(0, make(map[string]tuple.Value))
	keys := make([]string, 0, len(found))
	for k := range found {
		keys = append(keys, k)
	}
	return keys
}

// randomDatabase builds a small random database with relations R(x), S(x,y),
// T(y) over a tiny domain, mixing certain, uncertain and impossible tuples.
func randomDatabase(rng *rand.Rand, dom int) *relation.Database {
	db := relation.NewDatabase()
	randP := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return 1
		case 1:
			return 0
		default:
			return rng.Float64()
		}
	}
	r := relation.New("R", "a")
	for x := 1; x <= dom; x++ {
		if rng.Intn(3) > 0 {
			r.MustAdd(tuple.Ints(int64(x)), randP())
		}
	}
	s := relation.New("S", "a", "b")
	for x := 1; x <= dom; x++ {
		for y := 1; y <= dom; y++ {
			if rng.Intn(2) == 0 {
				s.MustAdd(tuple.Ints(int64(x), int64(y)), randP())
			}
		}
	}
	tt := relation.New("T", "b")
	for y := 1; y <= dom; y++ {
		if rng.Intn(3) > 0 {
			tt.MustAdd(tuple.Ints(int64(y)), randP())
		}
	}
	db.AddRelation(r)
	db.AddRelation(s)
	db.AddRelation(tt)
	return db
}

func checkAgainstBruteForce(t *testing.T, db *relation.Database, q *query.Query, plan *query.Plan, trial int) {
	t.Helper()
	want := bruteForceAnswers(t, db, q)
	for _, strat := range []core.Strategy{core.PartialLineage, core.FullNetwork, core.DNFLineage} {
		res, err := Evaluate(db, q, plan, Options{Strategy: strat})
		if err != nil {
			t.Fatalf("trial %d (%v): %v", trial, strat, err)
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("trial %d (%v): %d answers, want %d", trial, strat, len(res.Rows), len(want))
		}
		for _, row := range res.Rows {
			w := want[row.Vals.Key()]
			if math.Abs(row.P-w) > 1e-9 {
				t.Errorf("trial %d (%v): answer %v = %.12f, want %.12f", trial, strat, row.Vals, row.P, w)
			}
		}
	}
}

// TestUnsafeQueryAgainstBruteForce is the central integration property test:
// on random instances, the unsafe query q :- R(x),S(x,y),T(y) (Section 4.1)
// gets the same answer from PartialLineage, FullNetwork, DNFLineage and
// exhaustive world enumeration.
func TestUnsafeQueryAgainstBruteForce(t *testing.T) {
	q := query.MustParse("q :- R(a), S(a, b), T(b)")
	plan, err := query.LeftDeepPlan(q, []string{"R", "S", "T"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 30; trial++ {
		db := randomDatabase(rng, 2+rng.Intn(2))
		if db.UncertainRows() > relation.MaxWorldRows {
			continue
		}
		checkAgainstBruteForce(t, db, q, plan, trial)
	}
}

func TestHeadVariableQueryAgainstBruteForce(t *testing.T) {
	// Non-Boolean variant: answers grouped by a.
	q := query.MustParse("q(a) :- R(a), S(a, b), T(b)")
	plan, err := query.LeftDeepPlan(q, []string{"R", "S", "T"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 20; trial++ {
		db := randomDatabase(rng, 2+rng.Intn(2))
		if db.UncertainRows() > relation.MaxWorldRows {
			continue
		}
		checkAgainstBruteForce(t, db, q, plan, trial)
	}
}

func TestSafeQueryAllStrategies(t *testing.T) {
	// R(a),S(a,b) is hierarchical; its safe plan must evaluate purely
	// extensionally (zero offending tuples) and agree with everything else.
	q := query.MustParse("q :- R(a), S(a, b)")
	plan, err := query.SafePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 15; trial++ {
		db := randomDatabase(rng, 2+rng.Intn(2))
		if db.UncertainRows() > relation.MaxWorldRows {
			continue
		}
		want := bruteForceAnswers(t, db, q)
		res, err := Evaluate(db, q, plan, Options{Strategy: core.SafePlanOnly})
		if err != nil {
			t.Fatalf("trial %d: safe plan rejected: %v", trial, err)
		}
		if res.Stats.OffendingTuples != 0 {
			t.Errorf("trial %d: safe plan conditioned %d tuples", trial, res.Stats.OffendingTuples)
		}
		if math.Abs(res.BoolProb()-want[""]) > 1e-9 {
			t.Errorf("trial %d: safe plan = %.12f, want %.12f", trial, res.BoolProb(), want[""])
		}
		checkAgainstBruteForce(t, db, q, plan, trial)
	}
}

// TestDataSafetyFromInstance reproduces Section 4.1: the unsafe query
// becomes data-safe when the functional dependency x→y holds in S, and the
// unsafe plan evaluates purely extensionally.
func TestDataSafetyFromInstance(t *testing.T) {
	q := query.MustParse("q :- R(a), S(a, b), T(b)")
	plan, err := query.LeftDeepPlan(q, []string{"R", "S", "T"})
	if err != nil {
		t.Fatal(err)
	}
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	s := relation.New("S", "a", "b")
	tt := relation.New("T", "b")
	for x := 1; x <= 3; x++ {
		r.MustAdd(tuple.Ints(int64(x)), 0.5)
		s.MustAdd(tuple.Ints(int64(x), int64(x%2)), 0.5) // FD a→b holds
	}
	tt.MustAdd(tuple.Ints(0), 0.5)
	tt.MustAdd(tuple.Ints(1), 0.5)
	db.AddRelation(r)
	db.AddRelation(s)
	db.AddRelation(tt)
	res, err := Evaluate(db, q, plan, Options{Strategy: core.SafePlanOnly})
	if err != nil {
		t.Fatalf("data-safe instance rejected by SafePlanOnly: %v", err)
	}
	want := bruteForceAnswers(t, db, q)
	if math.Abs(res.BoolProb()-want[""]) > 1e-9 {
		t.Errorf("extensional result %.12f, want %.12f", res.BoolProb(), want[""])
	}

	// Breaking the FD on one a-value makes the instance unsafe: SafePlanOnly
	// must refuse, PartialLineage must condition exactly one tuple.
	s.MustAdd(tuple.Ints(1, 0), 0.5) // a=1 now has two b-values
	if _, err := Evaluate(db, q, plan, Options{Strategy: core.SafePlanOnly}); err == nil {
		t.Fatal("SafePlanOnly accepted an unsafe instance")
	}
	res2, err := Evaluate(db, q, plan, Options{Strategy: core.PartialLineage})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.OffendingTuples != 1 {
		t.Errorf("offending tuples = %d, want 1 (only R(1))", res2.Stats.OffendingTuples)
	}
	want2 := bruteForceAnswers(t, db, q)
	if math.Abs(res2.BoolProb()-want2[""]) > 1e-9 {
		t.Errorf("partial lineage = %.12f, want %.12f", res2.BoolProb(), want2[""])
	}
}

func TestPerJoinStats(t *testing.T) {
	// Section 4.1 / Figure 4 shape: the first join conditions the FD
	// violators; the second join is 1-1 and conditions nothing.
	q := query.MustParse("q :- R(a), S(a, b), T(b)")
	plan, err := query.LeftDeepPlan(q, []string{"R", "S", "T"})
	if err != nil {
		t.Fatal(err)
	}
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	s := relation.New("S", "a", "b")
	tt := relation.New("T", "b")
	r.MustAdd(tuple.Ints(1), 0.5)
	r.MustAdd(tuple.Ints(2), 0.5)
	s.MustAdd(tuple.Ints(1, 1), 0.5)
	s.MustAdd(tuple.Ints(1, 2), 0.5) // a=1 violates a→b
	s.MustAdd(tuple.Ints(2, 1), 0.5)
	tt.MustAdd(tuple.Ints(1), 0.5)
	tt.MustAdd(tuple.Ints(2), 0.5)
	db.AddRelation(r)
	db.AddRelation(s)
	db.AddRelation(tt)
	res, err := Evaluate(db, q, plan, Options{Strategy: core.PartialLineage})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.PerJoin) != 2 {
		t.Fatalf("PerJoin = %+v", res.Stats.PerJoin)
	}
	if res.Stats.PerJoin[0].Conditioned != 1 || res.Stats.PerJoin[1].Conditioned != 0 {
		t.Errorf("per-join conditioning = %+v, want [1, 0]", res.Stats.PerJoin)
	}
	total := 0
	for _, js := range res.Stats.PerJoin {
		total += js.Conditioned
		if js.Join == "" {
			t.Error("empty join description")
		}
	}
	if total != res.Stats.OffendingTuples {
		t.Errorf("per-join sum %d != total %d", total, res.Stats.OffendingTuples)
	}
}

func TestPartialNetworkSmallerThanFullNetwork(t *testing.T) {
	// With few offending tuples, the partial-lineage network must be a
	// strictly smaller object than the full intensional network
	// (Proposition 4.3: it is a minor of the factor graph).
	q := query.MustParse("q :- R(a), S(a, b), T(b)")
	plan, err := query.LeftDeepPlan(q, []string{"R", "S", "T"})
	if err != nil {
		t.Fatal(err)
	}
	db := relation.NewDatabase()
	r := relation.New("R", "a")
	s := relation.New("S", "a", "b")
	tt := relation.New("T", "b")
	for x := 1; x <= 6; x++ {
		r.MustAdd(tuple.Ints(int64(x)), 0.5)
		s.MustAdd(tuple.Ints(int64(x), int64(x)), 0.9)
	}
	s.MustAdd(tuple.Ints(1, 2), 0.9) // single FD violation
	for y := 1; y <= 6; y++ {
		tt.MustAdd(tuple.Ints(int64(y)), 0.5)
	}
	db.AddRelation(r)
	db.AddRelation(s)
	db.AddRelation(tt)
	partial, err := Evaluate(db, q, plan, Options{Strategy: core.PartialLineage})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Evaluate(db, q, plan, Options{Strategy: core.FullNetwork})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(partial.BoolProb()-full.BoolProb()) > 1e-9 {
		t.Fatalf("strategies disagree: %g vs %g", partial.BoolProb(), full.BoolProb())
	}
	if partial.Stats.NetworkNodes >= full.Stats.NetworkNodes {
		t.Errorf("partial network (%d nodes) not smaller than full network (%d nodes)",
			partial.Stats.NetworkNodes, full.Stats.NetworkNodes)
	}
	if partial.Stats.OffendingTuples != 1 {
		t.Errorf("offending = %d, want 1", partial.Stats.OffendingTuples)
	}
	// Corollary 4.4 in measurable form: the partial-lineage network's
	// treewidth bound is no larger than the full factor graph's.
	pw, err := Evaluate(db, q, plan, Options{Strategy: core.PartialLineage, MeasureWidth: true})
	if err != nil {
		t.Fatal(err)
	}
	fw, err := Evaluate(db, q, plan, Options{Strategy: core.FullNetwork, MeasureWidth: true})
	if err != nil {
		t.Fatal(err)
	}
	if pw.Stats.NetworkWidthBound > fw.Stats.NetworkWidthBound {
		t.Errorf("partial width bound %d exceeds full network's %d",
			pw.Stats.NetworkWidthBound, fw.Stats.NetworkWidthBound)
	}
	if fw.Stats.NetworkWidthBound == 0 {
		t.Error("full network width bound not measured")
	}
}

func TestMonteCarloStrategyConverges(t *testing.T) {
	q := query.MustParse("q :- R(a), S(a, b), T(b)")
	plan, err := query.LeftDeepPlan(q, []string{"R", "S", "T"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(73))
	db := randomDatabase(rng, 3)
	exact, err := Evaluate(db, q, plan, Options{Strategy: core.DNFLineage})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := Evaluate(db, q, plan, Options{Strategy: core.MonteCarlo, Samples: 60000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !approx.Stats.Approximate {
		t.Error("MonteCarlo result not flagged approximate")
	}
	if math.Abs(exact.BoolProb()-approx.BoolProb()) > 0.02 {
		t.Errorf("MC %.4f vs exact %.4f", approx.BoolProb(), exact.BoolProb())
	}
}

// TestKarpLubySampleCount: the (ε, δ) sample count is ⌈4·m·ln(2/δ)/ε²⌉ when
// that fits an int, and a SampleCountError naming the pair and the clause
// count when it does not — never a wrapped-around int. The last case runs it
// through an evaluation: a valid pair the answer's lineage cannot honour.
func TestKarpLubySampleCount(t *testing.T) {
	cases := []struct {
		eps, delta float64
		clauses    int
		want       int // 0 = SampleCountError
	}{
		{0, 0, 16, 100000}, // unset pair: Options.Samples' default
		{0.1, 0.05, 1, 1476},
		{0.05, 0.01, 16, 135637},
		{1e-9, 0.5, 1, 5545177444479561728},
		{1e-9, 0.5, 16, 0},
		{1e-300, 0.5, 1, 0}, // ε² underflows to 0: +Inf
	}
	for _, tc := range cases {
		got, err := Options{Epsilon: tc.eps, Delta: tc.delta}.klSamples(tc.clauses)
		if tc.want != 0 {
			if err != nil || got != tc.want {
				t.Errorf("ε=%v δ=%v m=%d: got %d, %v; want %d", tc.eps, tc.delta, tc.clauses, got, err, tc.want)
			}
			continue
		}
		var sce *SampleCountError
		if !errors.As(err, &sce) || sce.Epsilon != tc.eps || sce.Delta != tc.delta || sce.Clauses != tc.clauses {
			t.Errorf("ε=%v δ=%v m=%d: got %d, %v; want a SampleCountError naming all three", tc.eps, tc.delta, tc.clauses, got, err)
		}
	}

	db, q, plan := traceDB(t)
	_, err := Evaluate(db, q, plan, Options{Strategy: core.MonteCarlo, Epsilon: 1e-9, Delta: 0.5})
	var sce *SampleCountError
	if !errors.As(err, &sce) || sce.Clauses < 16 {
		t.Errorf("unrepresentable sample count: err = %v, want a SampleCountError with the clause count", err)
	}
}

func TestEvaluateQueryPicksSafePlan(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	r.MustAdd(tuple.Ints(1, 1), 0.5)
	r.MustAdd(tuple.Ints(1, 2), 0.5)
	s := relation.New("S", "a", "c")
	s.MustAdd(tuple.Ints(1, 1), 0.5)
	s.MustAdd(tuple.Ints(1, 2), 0.5)
	db.AddRelation(r)
	db.AddRelation(s)
	q := query.MustParse("q :- R(x, y), S(x, z)")
	res, err := EvaluateQuery(db, q, Options{Strategy: core.PartialLineage})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OffendingTuples != 0 {
		t.Errorf("safe query conditioned %d tuples via its safe plan", res.Stats.OffendingTuples)
	}
	want := bruteForceAnswers(t, db, q)
	if math.Abs(res.BoolProb()-want[""]) > 1e-9 {
		t.Errorf("got %.12f, want %.12f", res.BoolProb(), want[""])
	}
	// Unsafe query: the planner picks a left-deep join order.
	q2 := query.MustParse("q :- R(x, y), S(y, z)")
	res2, err := EvaluateQuery(db, q2, Options{Strategy: core.PartialLineage})
	if err != nil {
		t.Fatal(err)
	}
	want2 := bruteForceAnswers(t, db, q2)
	if math.Abs(res2.BoolProb()-want2[""]) > 1e-9 {
		t.Errorf("got %.12f, want %.12f", res2.BoolProb(), want2[""])
	}
}

func TestScanSelections(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b", "c")
	r.MustAdd(tuple.Ints(1, 1, 5), 0.5)
	r.MustAdd(tuple.Ints(1, 2, 5), 0.5)
	r.MustAdd(tuple.Ints(2, 2, 5), 0.25)
	r.MustAdd(tuple.Ints(3, 3, 7), 0.5)
	db.AddRelation(r)
	// Repeated variable + constant: R(x, x, 5).
	q := query.MustParse("q(x) :- R(x, x, 5)")
	res, err := EvaluateQuery(db, q, Options{Strategy: core.PartialLineage})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if p := res.Prob(tuple.Ints(2)); math.Abs(p-0.25) > 1e-12 {
		t.Errorf("P(x=2) = %g", p)
	}
	if p := res.Prob(tuple.Ints(3)); p != 0 {
		t.Errorf("P(x=3) = %g, want 0 (c=7)", p)
	}
}

func TestBoolProbEmptyResult(t *testing.T) {
	db := relation.NewDatabase()
	db.AddRelation(relation.New("R", "a"))
	q := query.MustParse("q :- R(x)")
	res, err := EvaluateQuery(db, q, Options{Strategy: core.PartialLineage})
	if err != nil {
		t.Fatal(err)
	}
	if res.BoolProb() != 0 || len(res.Rows) != 0 {
		t.Errorf("empty relation: %v", res.Rows)
	}
	resDNF, err := EvaluateQuery(db, q, Options{Strategy: core.DNFLineage})
	if err != nil {
		t.Fatal(err)
	}
	if resDNF.BoolProb() != 0 {
		t.Errorf("DNF on empty relation = %g", resDNF.BoolProb())
	}
}

// TestTraceMode checks the per-operator execution trace: post-order, one
// entry per operator, with sane cardinalities and network growth that sums
// to the final network size.
func TestTraceMode(t *testing.T) {
	q := query.MustParse("q :- R(a), S(a, b), T(b)")
	plan, err := query.LeftDeepPlan(q, []string{"R", "S", "T"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(87))
	db := randomDatabase(rng, 3)
	res, err := Evaluate(db, q, plan, Options{Strategy: core.PartialLineage, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	ops := res.Stats.Operators
	// Plan: scan R, scan S, join, project, scan T, join, project = 7 ops.
	if len(ops) != 7 {
		t.Fatalf("trace has %d operators: %+v", len(ops), ops)
	}
	growth := 0
	for _, op := range ops {
		if op.Op == "" || op.Rows < 0 || op.NetworkGrowth < 0 || op.Time < 0 {
			t.Errorf("bad trace entry: %+v", op)
		}
		growth += op.NetworkGrowth
	}
	if growth != res.Stats.NetworkNodes-1 { // ε predates the plan
		t.Errorf("trace growth %d, network has %d non-ε nodes", growth, res.Stats.NetworkNodes-1)
	}
	// The last entry is the final projection.
	if !strings.Contains(ops[len(ops)-1].Op, "π{}") {
		t.Errorf("last traced operator = %q", ops[len(ops)-1].Op)
	}
	// Without tracing the slice stays empty.
	plain, err := Evaluate(db, q, plan, Options{Strategy: core.PartialLineage})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Stats.Operators) != 0 {
		t.Error("trace recorded without Trace option")
	}
}

// TestValidateMode runs the randomized cross-check with invariant
// validation after every operator enabled.
func TestValidateMode(t *testing.T) {
	q := query.MustParse("q :- R(a), S(a, b), T(b)")
	plan, err := query.LeftDeepPlan(q, []string{"R", "S", "T"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 10; trial++ {
		db := randomDatabase(rng, 3)
		res, err := Evaluate(db, q, plan, Options{Strategy: core.PartialLineage, Validate: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		plain, err := Evaluate(db, q, plan, Options{Strategy: core.PartialLineage})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.BoolProb()-plain.BoolProb()) > 1e-12 {
			t.Errorf("trial %d: validation changed the result", trial)
		}
	}
}

// TestParallelismDeterministic checks that parallel evaluation returns
// exactly the sequential result for every strategy, including approximate
// paths (per-answer seeding).
func TestParallelismDeterministic(t *testing.T) {
	q := query.MustParse("q(a) :- R(a), S(a, b), T(b)")
	plan, err := query.LeftDeepPlan(q, []string{"R", "S", "T"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(79))
	db := randomDatabase(rng, 3)
	for _, strat := range []core.Strategy{core.PartialLineage, core.FullNetwork, core.DNFLineage, core.MonteCarlo} {
		seq, err := Evaluate(db, q, plan, Options{Strategy: strat, Samples: 5000, Seed: 9})
		if err != nil {
			t.Fatalf("%v sequential: %v", strat, err)
		}
		par, err := Evaluate(db, q, plan, Options{Strategy: strat, Samples: 5000, Seed: 9, Parallelism: 4})
		if err != nil {
			t.Fatalf("%v parallel: %v", strat, err)
		}
		if len(seq.Rows) != len(par.Rows) {
			t.Fatalf("%v: row counts differ", strat)
		}
		for i := range seq.Rows {
			if !seq.Rows[i].Vals.Equal(par.Rows[i].Vals) || seq.Rows[i].P != par.Rows[i].P {
				t.Errorf("%v: row %d differs: %v=%.12f vs %v=%.12f", strat, i,
					seq.Rows[i].Vals, seq.Rows[i].P, par.Rows[i].Vals, par.Rows[i].P)
			}
		}
	}
}

func TestGroundingExample36(t *testing.T) {
	// Example 3.6: R = S = {1,2}² gives 8 clauses for R(x,y),S(y,z).
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	s := relation.New("S", "a", "b")
	for i := 1; i <= 2; i++ {
		for j := 1; j <= 2; j++ {
			r.MustAdd(tuple.Ints(int64(i), int64(j)), 0.5)
			s.MustAdd(tuple.Ints(int64(i), int64(j)), 0.5)
		}
	}
	db.AddRelation(r)
	db.AddRelation(s)
	q := query.MustParse("q :- R(x, y), S(y, z)")
	plan, err := query.LeftDeepPlan(q, []string{"R", "S"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Ground(db, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Answers) != 1 || g.ClauseCount() != 8 || g.VarCount() != 8 {
		t.Errorf("grounding: %d answers, %d clauses, %d vars; want 1, 8, 8",
			len(g.Answers), g.ClauseCount(), g.VarCount())
	}
}

// TestFigure1 builds the AND/OR networks of Figure 1: the query of
// Example 3.6 under two different plans yields two different graphs, both
// computing the same probability.
func TestFigure1(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	s := relation.New("S", "a", "b")
	for i := 1; i <= 2; i++ {
		for j := 1; j <= 2; j++ {
			r.MustAdd(tuple.Ints(int64(i), int64(j)), 0.5)
			s.MustAdd(tuple.Ints(int64(i), int64(j)), 0.6)
		}
	}
	db.AddRelation(r)
	db.AddRelation(s)
	q := query.MustParse("q :- R(x, y), S(y, z)")
	planA, err := query.LeftDeepPlan(q, []string{"R", "S"})
	if err != nil {
		t.Fatal(err)
	}
	planB, err := query.LeftDeepPlan(q, []string{"S", "R"})
	if err != nil {
		t.Fatal(err)
	}
	var probs []float64
	var nodes []int
	for _, plan := range []*query.Plan{planA, planB} {
		res, err := Evaluate(db, q, plan, Options{Strategy: core.FullNetwork})
		if err != nil {
			t.Fatal(err)
		}
		probs = append(probs, res.BoolProb())
		nodes = append(nodes, res.Stats.NetworkNodes)
		var sb strings.Builder
		if err := res.Net.WriteDOT(&sb, nil); err != nil || !strings.Contains(sb.String(), "digraph") {
			t.Errorf("DOT export failed: %v", err)
		}
	}
	if math.Abs(probs[0]-probs[1]) > 1e-9 {
		t.Errorf("the two plans disagree: %g vs %g", probs[0], probs[1])
	}
	want := bruteForceAnswers(t, db, q)
	if math.Abs(probs[0]-want[""]) > 1e-9 {
		t.Errorf("network result %.12f, want %.12f", probs[0], want[""])
	}
	if nodes[0] == 0 || nodes[1] == 0 {
		t.Error("expected non-trivial networks for both plans")
	}
}
