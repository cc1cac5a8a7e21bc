package topk

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// groundSpec grounds a generated Table 1 instance.
func groundSpec(t *testing.T, name string, p workload.Params) (*engine.Grounding, *engine.Result) {
	t.Helper()
	spec, err := workload.SpecByName(name)
	if err != nil {
		t.Fatal(err)
	}
	db, err := workload.GenerateFor(spec, p)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	g, err := engine.Ground(db, spec.Query(), plan)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := engine.Evaluate(db, spec.Query(), plan, engine.Options{Strategy: core.DNFLineage})
	if err != nil {
		t.Fatal(err)
	}
	return g, exact
}

func TestTopKMatchesExactRanking(t *testing.T) {
	g, exact := groundSpec(t, "P1", workload.Params{N: 12, M: 30, Fanout: 3, RF: 0.2, RD: 1, Seed: 37})
	const k = 4
	res, err := FromGrounding(context.Background(), g, Options{K: k, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != k {
		t.Fatalf("got %d top answers", len(res.Top))
	}
	// The k-th exact probability is the admission threshold; every returned
	// answer must be within interval tolerance of it.
	probs := make([]float64, 0, len(exact.Rows))
	for _, row := range exact.Rows {
		probs = append(probs, row.P)
	}
	kth := kthLargest(probs, k)
	for _, a := range res.Top {
		exactP := exact.Prob(a.Vals)
		if exactP < kth-0.02 {
			t.Errorf("answer %v (exact %.4f) admitted below the k-th probability %.4f", a.Vals, exactP, kth)
		}
		if exactP < a.Lo-1e-9 || exactP > a.Hi+1e-9 {
			t.Errorf("answer %v: exact %.6f outside [%.6f, %.6f]", a.Vals, exactP, a.Lo, a.Hi)
		}
	}
}

func TestTopKSmallLineageIsExact(t *testing.T) {
	g, exact := groundSpec(t, "P1", workload.Params{N: 6, M: 10, Fanout: 3, RF: 0.1, RD: 1, Seed: 39})
	res, err := FromGrounding(context.Background(), g, Options{K: 2, Seed: 1, ExactClauseLimit: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Separated {
		t.Error("fully exact answers must separate")
	}
	for _, a := range res.All {
		if !a.Exact || a.Lo != a.Hi {
			t.Errorf("answer %v not exact: [%g, %g]", a.Vals, a.Lo, a.Hi)
		}
		if want := exact.Prob(a.Vals); math.Abs(a.Lo-want) > 1e-9 {
			t.Errorf("answer %v: %g, want %g", a.Vals, a.Lo, want)
		}
	}
}

func TestTopKSimulationRefinesOnlyCritical(t *testing.T) {
	// Heterogeneous groups: group h's tuples have probability ≈ h/11, so
	// the answer probabilities are well separated and most answers leave
	// the critical set after the first rounds.
	db := relation.NewDatabase()
	r := relation.New("R", "h", "a")
	s := relation.New("S", "h", "a", "b")
	for h := int64(1); h <= 10; h++ {
		base := float64(h) / 11
		for a := int64(1); a <= 12; a++ {
			r.MustAdd(tuple.Ints(h, a), base)
			s.MustAdd(tuple.Ints(h, a, a%4), 0.5)
		}
	}
	db.AddRelation(r)
	db.AddRelation(s)
	q := query.MustParse("q(h) :- R(h, a), S(h, a, b)")
	plan, err := query.LeftDeepPlan(q, []string{"R", "S"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := engine.Ground(db, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	// NoSeedBounds: this test exercises the cold multisimulation machinery —
	// with dissociation seeding the intervals separate without any sampling.
	res, err := FromGrounding(context.Background(), g, Options{K: 3, Seed: 5, ExactClauseLimit: 1, Batch: 512, MaxRounds: 200, NoSeedBounds: true})
	if err != nil {
		t.Fatal(err)
	}
	// At least one answer should have needed no (or few) samples: it was
	// never critical.
	minSamples, maxSamples := math.MaxInt32, 0
	for _, a := range res.All {
		if a.Exact {
			continue
		}
		if a.Samples < minSamples {
			minSamples = a.Samples
		}
		if a.Samples > maxSamples {
			maxSamples = a.Samples
		}
	}
	if maxSamples == 0 {
		t.Fatal("no simulation happened")
	}
	if minSamples >= maxSamples {
		t.Errorf("all answers refined equally (%d vs %d): multisimulation not selective", minSamples, maxSamples)
	}
}

func TestTopKEverythingFits(t *testing.T) {
	g, _ := groundSpec(t, "P1", workload.Params{N: 3, M: 8, Fanout: 2, RF: 0.2, RD: 1, Seed: 43})
	res, err := FromGrounding(context.Background(), g, Options{K: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != len(res.All) || !res.Separated {
		t.Errorf("K beyond answer count: top=%d all=%d separated=%v", len(res.Top), len(res.All), res.Separated)
	}
}

func TestTopKValidation(t *testing.T) {
	g, _ := groundSpec(t, "P1", workload.Params{N: 2, M: 5, Fanout: 2, RF: 0, RD: 1, Seed: 45})
	if _, err := FromGrounding(context.Background(), g, Options{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
}

// Dissociation seeding must pick the same top-k set as the cold
// multisimulation while spending strictly less sampling effort on a
// well-separated workload.
func TestTopKSeedingBeatsCold(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "h", "a")
	s := relation.New("S", "h", "a", "b")
	for h := int64(1); h <= 10; h++ {
		base := float64(h) / 11
		for a := int64(1); a <= 12; a++ {
			r.MustAdd(tuple.Ints(h, a), base)
			s.MustAdd(tuple.Ints(h, a, a%4), 0.5)
		}
	}
	db.AddRelation(r)
	db.AddRelation(s)
	q := query.MustParse("q(h) :- R(h, a), S(h, a, b)")
	plan, err := query.LeftDeepPlan(q, []string{"R", "S"})
	if err != nil {
		t.Fatal(err)
	}
	g, err := engine.Ground(db, q, plan)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 3, Seed: 5, ExactClauseLimit: 1, Batch: 512, MaxRounds: 200}
	seeded, err := FromGrounding(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.NoSeedBounds = true
	cold, err := FromGrounding(context.Background(), g, opts)
	if err != nil {
		t.Fatal(err)
	}
	samplesOf := func(res *Result) int {
		total := 0
		for _, a := range res.All {
			total += a.Samples
		}
		return total
	}
	if samplesOf(seeded) >= samplesOf(cold) {
		t.Errorf("seeded run drew %d samples, cold %d: seeding should cut sampling",
			samplesOf(seeded), samplesOf(cold))
	}
	for i := range seeded.Top {
		if seeded.Top[i].Vals.Compare(cold.Top[i].Vals) != 0 {
			t.Errorf("rank %d: seeded %v vs cold %v", i, seeded.Top[i].Vals, cold.Top[i].Vals)
		}
	}
}

// Regression: K at or beyond the answer count must return every answer —
// equivalent to a full evaluation — with intervals that bracket the exact
// probabilities.
func TestTopKAllAnswersEqualsFullEvaluation(t *testing.T) {
	g, exact := groundSpec(t, "P1", workload.Params{N: 8, M: 20, Fanout: 3, RF: 0.2, RD: 1, Seed: 47})
	res, err := FromGrounding(context.Background(), g, Options{K: len(g.Answers) + 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Top) != len(exact.Rows) {
		t.Fatalf("K ≥ answers returned %d answers, full evaluation has %d", len(res.Top), len(exact.Rows))
	}
	if !res.Separated {
		t.Error("K ≥ answers must report separation (nothing to separate)")
	}
	seen := make(map[string]bool)
	for _, a := range res.Top {
		seen[a.Vals.Key()] = true
		want := exact.Prob(a.Vals)
		if want < a.Lo-1e-9 || want > a.Hi+1e-9 {
			t.Errorf("answer %v: exact %.9f outside [%.9f, %.9f]", a.Vals, want, a.Lo, a.Hi)
		}
	}
	for _, row := range exact.Rows {
		if !seen[row.Vals.Key()] {
			t.Errorf("answer %v missing from K ≥ answers result", row.Vals)
		}
	}
}

func kthLargest(xs []float64, k int) float64 {
	s := append([]float64(nil), xs...)
	for i := 0; i < len(s); i++ {
		for j := i + 1; j < len(s); j++ {
			if s[j] > s[i] {
				s[i], s[j] = s[j], s[i]
			}
		}
	}
	if k > len(s) {
		k = len(s)
	}
	return s[k-1]
}

// countdownCtx reports cancellation from its (n+1)-th Err call on: a
// cancellation that lands at a known check, whatever the machine's speed.
type countdownCtx struct {
	context.Context
	left *int
}

func (c countdownCtx) Err() error {
	if *c.left <= 0 {
		return context.Canceled
	}
	*c.left--
	return nil
}

// TestFromGroundingHonoursContext: an already-cancelled context returns
// before any work, a cancellation during refinement stops at the next round
// boundary, and a deadline shorter than one round surfaces as such instead of
// running MaxRounds rounds.
func TestFromGroundingHonoursContext(t *testing.T) {
	g, _ := groundSpec(t, "P1", workload.Params{N: 12, M: 30, Fanout: 3, RF: 0.2, RD: 1, Seed: 37})
	// Cold multisimulation with exact evaluation all but off, batches too
	// small to separate anything, a tolerance no interval reaches and rounds
	// without end: only the context stops it.
	opts := Options{K: 2, Seed: 1, ExactClauseLimit: 1, Eps: 1e-12, Batch: 16, MaxRounds: 1 << 30, NoSeedBounds: true}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FromGrounding(cancelled, g, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context: err = %v, want context.Canceled", err)
	}

	// One check per answer while seeding, one before the first round: the
	// cancellation arrives while round 0 runs and is seen before round 1.
	left := len(g.Answers) + 1
	if _, err := FromGrounding(countdownCtx{context.Background(), &left}, g, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled during round 0: err = %v, want context.Canceled", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := FromGrounding(ctx, g, opts); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("1 ms deadline: err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("1 ms deadline returned after %v", d)
	}
}
