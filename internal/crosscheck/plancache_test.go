package crosscheck

// Differential testing for the planning cache: the mutation sequences of the
// incremental sweep are applied in lockstep to a raw relation.Database and to
// a long-lived pdb.Database, whose planning cache therefore lives through
// inserts, deletes and prob-updates. After every batch the long-lived side
// must plan exactly as planner.Plan does on a fresh copy of the same rows,
// and answer exactly as a fresh database does.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/pdb"
)

// TestPlanCacheMatchesFresh: plans stay a pure function of (query, data)
// with the cache in the way. Two caches are held to the uncached planner:
//
//   - a planner.Cache over the lockstep raw database, fed the long-lived
//     database's relation versions, whose IR must equal a fresh planner.Plan
//     field for field (SelectTime aside);
//   - the long-lived pdb.Database's own, seen through Stats: same plan source,
//     order, estimate and candidate count, and bit-identical exact answers
//     against a database built fresh from the same rows.
func TestPlanCacheMatchesFresh(t *testing.T) {
	const steps = 8
	outcomes := make(map[string]int)
	sources := make(map[string]int)
	for seed := int64(1); seed <= numMutationSeqs; seed++ {
		in := Generate(seed, GenConfig{})
		db, err := toPDB(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		q, err := pdb.ParseQuery(in.Q.String())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		renamed, err := pdb.ParseQuery(renameVars(in.Q).String())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cache := planner.NewCache(db.RelationVersion)
		m := &mutator{
			rng: rand.New(rand.NewSource(seed * 7919)),
			in:  in,
			db:  db,
			aux: db.CreateRelation("Aux", "a"),
		}
		for step := 0; step <= steps; step++ {
			if step > 0 {
				for n := 1 + m.rng.Intn(3); n > 0; n-- {
					m.step(t)
				}
			}
			label := fmt.Sprintf("seed %d step %d (%s)", seed, step, in.Q)
			fresh := in.Clone()
			want, err := planner.Plan(fresh.DB, fresh.Q, planner.Options{})
			if err != nil {
				t.Fatalf("%s: fresh plan: %v", label, err)
			}
			sources[want.Source]++

			// Twice, so that both a refilled entry and a hit are compared.
			for pass := 0; pass < 2; pass++ {
				got, outcome, err := cache.Plan(in.DB, in.Q)
				if err != nil {
					t.Fatalf("%s: cached plan: %v", label, err)
				}
				if pass == 1 && outcome != core.PlanCachePlan {
					t.Errorf("%s: second plan on unchanged data: outcome %q", label, outcome)
				}
				g, w := *got, *want
				g.SelectTime, w.SelectTime = 0, 0
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: pass %d (%s): cached IR differs from fresh:\n got  %+v %s\n want %+v %s",
						label, pass, outcome, g, g.Physical, w, w.Physical)
				}
			}

			freshDB, err := toPDB(fresh)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			wantRes, err := freshDB.Evaluate(q, pdb.Options{NoFallback: true})
			if err != nil {
				t.Fatalf("%s: fresh evaluate: %v", label, err)
			}
			for pass := 0; pass < 2; pass++ {
				res, err := db.Evaluate(q, pdb.Options{NoFallback: true})
				if err != nil {
					t.Fatalf("%s: long-lived evaluate: %v", label, err)
				}
				st := res.Stats
				outcomes[st.PlanCache]++
				if pass == 1 && st.PlanCache != core.PlanCachePlan {
					t.Errorf("%s: second evaluation on unchanged data: plan cache %q", label, st.PlanCache)
				}
				if st.PlanSource != want.Source || st.PlanOrder != strings.Join(want.Order, ",") ||
					st.PlanEstOffending != want.EstOffending || st.PlanCandidates != want.Candidates {
					t.Fatalf("%s: pass %d (%s): long-lived database planned %s [%s] est %d of %d, fresh planner %s",
						label, pass, st.PlanCache, st.PlanSource, st.PlanOrder, st.PlanEstOffending, st.PlanCandidates, want.Describe())
				}
				requireBitEqual(t, label, res, wantRes)
			}

			// The same query under other variable names is another plan-tier
			// key over the same statistics entries: coming after the original
			// it never needs a pass over a relation (its plan entry is still
			// good when the batch only wrote to Aux), and it must still answer
			// the same.
			res, err := db.Evaluate(renamed, pdb.Options{NoFallback: true})
			if err != nil {
				t.Fatalf("%s: renamed evaluate: %v", label, err)
			}
			outcomes[res.Stats.PlanCache]++
			if want.Source == planner.SourceGreedy && res.Stats.PlanCache == core.PlanCacheMiss {
				t.Errorf("%s: renamed query after the original made a statistics pass", label)
			}
			requireBitEqual(t, label+" renamed", res, wantRes)
		}
	}
	t.Logf("%d sequences: fresh plans by source %v; long-lived evaluations by cache outcome %v",
		numMutationSeqs, sources, outcomes)
	// The sweep only means something if it reached the estimator and drove
	// every outcome of the cache.
	if sources[planner.SourceGreedy] == 0 {
		t.Error("no generated query reached the selectivity estimator")
	}
	for _, o := range []string{core.PlanCachePlan, core.PlanCacheStats, core.PlanCacheMiss} {
		if outcomes[o] == 0 {
			t.Errorf("mutation sweep never produced cache outcome %q", o)
		}
	}
}

// renameVars returns q with every variable v spelt v_.
func renameVars(q *query.Query) *query.Query {
	out := &query.Query{Name: q.Name}
	for _, h := range q.Head {
		out.Head = append(out.Head, h+"_")
	}
	for _, a := range q.Atoms {
		args := append([]query.Term(nil), a.Args...)
		for i := range args {
			if args[i].IsVar() {
				args[i].Var += "_"
			}
		}
		out.Atoms = append(out.Atoms, query.Atom{Pred: a.Pred, Args: args})
	}
	return out
}
