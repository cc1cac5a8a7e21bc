package crosscheck

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/tuple"
	"repro/pdb"
)

// This file pins the planner's correctness contract: for every strategy,
// evaluating with the plan the cost-aware planner chooses and with a fixed
// plan supplied by the caller yields the same answer set, with exact answers
// agreeing to within the float tolerance in general and bit-identically on
// dyadic instances; and the backend-stats sink never influences any result
// byte.

// evalMode evaluates one instance under one strategy, with the planner's
// plan or (fixed) with the plan a caller would write without a planner — the
// safe plan when the query has one, else the left-deep plan in body order —
// handed to EvaluateWithPlan. It returns the answers keyed by head tuple.
func evalMode(t *testing.T, in *Instance, s core.Strategy, fixed bool) (map[string]float64, error) {
	t.Helper()
	db, err := toPDB(in)
	if err != nil {
		t.Fatal(err)
	}
	q, err := pdb.ParseQuery(in.Q.String())
	if err != nil {
		t.Fatal(err)
	}
	opts := pdb.Options{Strategy: s, Seed: 1, NoFallback: s != core.MonteCarlo}
	var res *pdb.Result
	if fixed {
		plan, perr := pdb.SafePlan(q)
		if perr != nil {
			if plan, perr = pdb.LeftDeepPlan(q, query.BodyOrder(in.Q)...); perr != nil {
				t.Fatal(perr)
			}
		}
		res, err = db.EvaluateWithPlanContext(context.Background(), q, plan, opts)
	} else {
		res, err = db.EvaluateContext(context.Background(), q, opts)
	}
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(res.Rows))
	for _, row := range res.Rows {
		out[tuple.Tuple(row.Vals).Key()] = row.P
	}
	return out, nil
}

// notDataSafe reports the one legitimate plan-dependent outcome: the
// SafePlanOnly strategy declines instances whose plan needs conditioning,
// and the two sides run different plans.
func notDataSafe(s core.Strategy, err error) bool {
	return s == core.SafePlanOnly && errors.Is(err, engine.ErrNotDataSafe)
}

// TestAdaptivePlanMatchesFixedPlan compares every exact strategy under the
// planner's plan and under the fixed plan across random instances: identical
// answer sets, every probability within tolerance of the other side and of
// the possible-world oracle.
func TestAdaptivePlanMatchesFixedPlan(t *testing.T) {
	const tol = 1e-9
	for seed := int64(0); seed < 60; seed++ {
		in := Generate(seed, GenConfig{})
		oracle, err := ComputeOracle(in)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		for _, s := range ExactStrategies() {
			on, errOn := evalMode(t, in, s, false)
			off, errOff := evalMode(t, in, s, true)
			// SafePlanOnly may decline under one plan and succeed under the
			// other; whichever side answered is still checked against the
			// oracle below.
			if errOn != nil && !notDataSafe(s, errOn) {
				t.Fatalf("seed %d strategy %v adaptive: %v", seed, s, errOn)
			}
			if errOff != nil && !notDataSafe(s, errOff) {
				t.Fatalf("seed %d strategy %v fixed: %v", seed, s, errOff)
			}
			if errOn == nil && errOff == nil {
				if len(on) != len(off) {
					t.Errorf("seed %d strategy %v: answer sets differ (%d adaptive vs %d fixed)", seed, s, len(on), len(off))
				}
				for k, p := range on {
					q, ok := off[k]
					if !ok {
						t.Errorf("seed %d strategy %v: answer %q only under the adaptive plan", seed, s, k)
						continue
					}
					if math.Abs(p-q) > tol {
						t.Errorf("seed %d strategy %v answer %q: adaptive %.12g vs fixed %.12g", seed, s, k, p, q)
					}
				}
			}
			for mode, got := range map[string]map[string]float64{"adaptive": on, "fixed": off} {
				if got == nil {
					continue
				}
				for k, want := range oracle.Probs {
					if math.Abs(got[k]-want) > tol {
						t.Errorf("seed %d strategy %v %s answer %q: got %.12g, oracle %.12g", seed, s, mode, k, got[k], want)
					}
				}
			}
		}
	}
}

// dyadic rewrites every uncertain probability to one half. With all base
// probabilities in {0, 1/2, 1} and few uncertain tuples, every intermediate
// of every exact backend is a dyadic rational representable exactly in
// float64, so any two exact evaluations must agree bit for bit — not merely
// within tolerance.
func dyadic(in *Instance) *Instance {
	out := in.Clone()
	for _, name := range out.DB.Names() {
		r, err := out.DB.Relation(name)
		if err != nil {
			panic(err)
		}
		for i := range r.Rows {
			if p := r.Rows[i].P; p > 0 && p < 1 {
				r.Rows[i].P = 0.5
			}
		}
	}
	return out
}

// TestAdaptivePlanBitIdenticalDyadic proves the strong form of plan
// independence on dyadic instances: for every exact strategy, the planner's
// plan and the fixed plan produce bitwise-identical probabilities, and all
// exact strategies agree bitwise with each other.
func TestAdaptivePlanBitIdenticalDyadic(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		in := dyadic(Generate(seed, GenConfig{}))
		var ref map[string]float64
		var refStrategy core.Strategy
		for _, s := range ExactStrategies() {
			on, errOn := evalMode(t, in, s, false)
			off, errOff := evalMode(t, in, s, true)
			if errOn != nil || errOff != nil {
				if notDataSafe(s, errOn) || notDataSafe(s, errOff) {
					continue
				}
				t.Fatalf("seed %d strategy %v: adaptive err %v, fixed err %v", seed, s, errOn, errOff)
			}
			if len(on) != len(off) {
				t.Fatalf("seed %d strategy %v: answer sets differ", seed, s)
			}
			for k, p := range on {
				if q, ok := off[k]; !ok || math.Float64bits(p) != math.Float64bits(q) {
					t.Errorf("seed %d strategy %v answer %q: adaptive %x vs fixed %x bits", seed, s, k, math.Float64bits(p), math.Float64bits(off[k]))
				}
			}
			if ref == nil {
				ref, refStrategy = on, s
				continue
			}
			if len(on) != len(ref) {
				t.Errorf("seed %d: %v and %v disagree on answer count", seed, s, refStrategy)
			}
			for k, p := range on {
				if math.Float64bits(p) != math.Float64bits(ref[k]) {
					t.Errorf("seed %d answer %q: %v gives %x, %v gives %x bits", seed, k, s, math.Float64bits(p), refStrategy, math.Float64bits(ref[k]))
				}
			}
		}
	}
}

// TestPlannerSinkDoesNotChangeResults pins the sink-purity regression: the
// backend-stats sink is observability-only, so repeated evaluations — cold
// sink, warm sink, or a sink stuffed with adversarial history — return
// bit-identical answers. Backend ranking being a pure function of the
// profile makes this hold by construction; this test keeps it that way.
func TestPlannerSinkDoesNotChangeResults(t *testing.T) {
	defer planner.DefaultSink.Reset()
	for seed := int64(0); seed < 20; seed++ {
		in := Generate(seed, GenConfig{})
		for _, s := range ExactStrategies() {
			planner.DefaultSink.Reset()
			cold, errCold := evalMode(t, in, s, false)
			if errCold != nil {
				if notDataSafe(s, errCold) {
					continue
				}
				t.Fatalf("seed %d strategy %v: %v", seed, s, errCold)
			}
			// Poison the history: if ranking ever consulted the sink, a
			// record claiming VE always fails and sampling always wins would
			// redirect the dispatch.
			for i := 0; i < 1000; i++ {
				planner.DefaultSink.Record("ve", false, time.Second)
				planner.DefaultSink.Record("jtree", false, time.Second)
				planner.DefaultSink.Record("forward-sampling", true, time.Nanosecond)
			}
			for run := 0; run < 3; run++ {
				warm, err := evalMode(t, in, s, false)
				if err != nil {
					t.Fatalf("seed %d strategy %v warm run %d: %v", seed, s, run, err)
				}
				if len(warm) != len(cold) {
					t.Fatalf("seed %d strategy %v: warm answer set differs", seed, s)
				}
				for k, p := range warm {
					if math.Float64bits(p) != math.Float64bits(cold[k]) {
						t.Errorf("seed %d strategy %v answer %q: warm %x vs cold %x bits", seed, s, k, math.Float64bits(p), math.Float64bits(cold[k]))
					}
				}
			}
		}
	}
}
