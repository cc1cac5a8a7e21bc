package pdb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// p1DB builds R1(h, x), S1(h, x, y), R2(h, y): the relations of Table 1's P1,
// small enough to evaluate exactly and unsafe (x and y cross in S1).
func p1DB(t *testing.T) (*Database, *Relation) {
	t.Helper()
	db := NewDatabase()
	r1 := db.CreateRelation("R1", "h", "x")
	s1 := db.CreateRelation("S1", "h", "x", "y")
	r2 := db.CreateRelation("R2", "h", "y")
	for h := int64(0); h < 2; h++ {
		for i := int64(0); i < 3; i++ {
			for _, err := range []error{
				r1.AddInts(0.5, h, i),
				r2.AddInts(0.5, h, i),
				s1.AddInts(0.5, h, i, i),
				s1.AddInts(0.5, h, i, (i+1)%3),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return db, s1
}

const p1Text = "q :- R1(h, x), S1(h, x, y), R2(h, y)"

// TestPlanCacheCounters holds the cache to counts, which no load can move:
// a repeated query makes no statistics pass, and a write to S1 costs exactly
// S1's pass while R1's and R2's entries are reused.
func TestPlanCacheCounters(t *testing.T) {
	db, s1 := p1DB(t)
	q := mustQuery(t, p1Text)
	eval := func(wantCache string, passes, hits uint64) *Result {
		t.Helper()
		before := db.PlanCacheStats()
		res, err := db.Evaluate(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		after := db.PlanCacheStats()
		if res.Stats.PlanCache != wantCache {
			t.Errorf("Stats.PlanCache = %q, want %q", res.Stats.PlanCache, wantCache)
		}
		if p, h := after.StatsMisses-before.StatsMisses, after.StatsHits-before.StatsHits; p != passes || h != hits {
			t.Errorf("evaluation (%s) made %d statistics passes and %d statistics hits, want %d and %d",
				wantCache, p, h, passes, hits)
		}
		return res
	}
	first := eval("miss", 3, 0)
	if first.Stats.PlanSource != "greedy" {
		t.Fatalf("P1 planned %q; the test needs the estimator", first.Stats.PlanSource)
	}
	second := eval("plan", 0, 0)
	if second.BoolProb() != first.BoolProb() || second.Stats.PlanOrder != first.Stats.PlanOrder {
		t.Errorf("repeat evaluation differs: %v [%s] vs %v [%s]",
			second.BoolProb(), second.Stats.PlanOrder, first.BoolProb(), first.Stats.PlanOrder)
	}
	if st := db.PlanCacheStats(); st.PlanHits != 1 || st.PlanMisses != 1 || st.Plans != 1 || st.Patterns != 3 {
		t.Errorf("after two evaluations: %+v", st)
	}

	if err := s1.SetProb(0.25, Int(0), Int(0), Int(0)); err != nil {
		t.Fatal(err)
	}
	third := eval("miss", 1, 2)
	if third.BoolProb() == first.BoolProb() {
		t.Error("the prob-update did not reach the answer: a stale plan or stale rows were used")
	}
	fourth := eval("plan", 0, 0)

	// The EXPLAIN header says where the plan came from.
	var explain strings.Builder
	if err := fourth.Explain(&explain); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain.String(), "plan cache: plan\n") {
		t.Errorf("EXPLAIN header does not report the plan cache:\n%s", explain.String())
	}

	// OptimizePlan shares the statistics tier.
	before := db.PlanCacheStats()
	best, _, err := db.OptimizePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	if after := db.PlanCacheStats(); after.StatsMisses != before.StatsMisses || after.StatsHits != before.StatsHits+3 {
		t.Errorf("OptimizePlan on warm statistics: %+v -> %+v", before, after)
	}

	// A supplied plan never consults the planner, so it reports no cache.
	res, err := db.EvaluateWithPlan(q, best.Plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanCache != "" {
		t.Errorf("EvaluateWithPlan reported plan cache %q", res.Stats.PlanCache)
	}
}

// TestPlanCacheReadersAndWriter runs N readers against one writer on one
// database: under -race it covers the cache's table, the per-entry key memo
// and the unlocked version read; without it, that every reader's answer is
// one the data could have produced (S1's tuple at either probability).
func TestPlanCacheReadersAndWriter(t *testing.T) {
	db, s1 := p1DB(t)
	probs := []float64{0.5, 0.25}
	texts := []string{p1Text, "q :- R1(g, u), S1(g, u, w), R2(g, w)", "q :- R1(0, x), S1(0, x, y), R2(0, y)"}
	want := make(map[string]map[float64]bool) // query text -> the answers either state gives
	for _, p := range probs {
		fresh, fs1 := p1DB(t)
		if err := fs1.SetProb(p, Int(0), Int(0), Int(0)); err != nil {
			t.Fatal(err)
		}
		for _, text := range texts {
			res, err := fresh.Evaluate(mustQuery(t, text), Options{})
			if err != nil {
				t.Fatal(err)
			}
			if want[text] == nil {
				want[text] = make(map[float64]bool)
			}
			want[text][res.BoolProb()] = true
		}
	}

	const readers, rounds = 6, 60
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s1.SetProb(probs[i%2], Int(0), Int(0), Int(0)); err != nil {
				errs <- err
				return
			}
		}
	}()
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for i := 0; i < rounds; i++ {
				text := texts[(r+i)%len(texts)]
				q, err := ParseQuery(text)
				if err != nil {
					errs <- err
					return
				}
				res, err := db.Evaluate(q, Options{})
				if err != nil {
					errs <- err
					return
				}
				if p := res.BoolProb(); !want[text][p] {
					errs <- fmt.Errorf("reader %d round %d: %s answered %.17g, which neither state of S1 gives", r, i, q, p)
					return
				}
				if i%10 == 0 {
					if _, _, err := db.OptimizePlan(q); err != nil {
						errs <- err
						return
					}
				}
			}
		}(r)
	}
	rwg.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := db.PlanCacheStats(); st.PlanHits+st.PlanMisses != readers*rounds {
		t.Errorf("%d plan lookups for %d evaluations", st.PlanHits+st.PlanMisses, readers*rounds)
	}
}
