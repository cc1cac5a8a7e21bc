package engine

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lineage"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/tuple"
)

// incrTestDB builds a two-relation instance whose join query is unsafe, so
// the grounded lineage has shared variables across answers.
func incrTestDB() *relation.Database {
	db := relation.NewDatabase()
	r := relation.New("R", "x", "y")
	r.MustAdd(tuple.Ints(1, 1), 0.5)
	r.MustAdd(tuple.Ints(1, 2), 0.7)
	r.MustAdd(tuple.Ints(2, 2), 0.9)
	s := relation.New("S", "y")
	s.MustAdd(tuple.Ints(1), 0.4)
	s.MustAdd(tuple.Ints(2), 0.6)
	db.AddRelation(r)
	db.AddRelation(s)
	return db
}

func incrPlan(t *testing.T, q *query.Query) *query.Plan {
	t.Helper()
	order := make([]string, len(q.Atoms))
	for i := range q.Atoms {
		order[i] = q.Atoms[i].Pred
	}
	plan, err := query.LeftDeepPlan(q, order)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func mustParse(t *testing.T, text string) *query.Query {
	t.Helper()
	q, err := query.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestMaterializePatchBitIdentical: a (0,1)->(0,1) prob-update patched into
// a materialized view gives bit-identical answers to materializing from
// scratch on the mutated database — for the exact path and for the seeded
// Karp–Luby path.
func TestMaterializePatchBitIdentical(t *testing.T) {
	for _, strategy := range []core.Strategy{core.DNFLineage, core.MonteCarlo} {
		db := incrTestDB()
		q := mustParse(t, "q(x) :- R(x, y), S(y)")
		plan := incrPlan(t, q)
		opts := Options{Strategy: strategy, Samples: 2000, Seed: 42}
		m, err := Materialize(db, q, plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := db.Relation("R")
		row, old, err := rel.SetProb(tuple.Ints(1, 2), 0.25)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := m.PatchProbs([]ProbPatch{{Rel: "R", Row: row, OldP: old, NewP: 0.25}})
		if err != nil || !ok {
			t.Fatalf("PatchProbs: ok=%v err=%v", ok, err)
		}
		fresh, err := Materialize(db, q, plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, want := m.Result(), fresh.Result()
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%v: %d vs %d answers", strategy, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			if got.Rows[i].P != want.Rows[i].P {
				t.Errorf("%v answer %v: patched %v != fresh %v (diff %g)",
					strategy, got.Rows[i].Vals, got.Rows[i].P, want.Rows[i].P,
					math.Abs(got.Rows[i].P-want.Rows[i].P))
			}
		}
	}
}

// TestMaterializePatchRejectsStructural: endpoint-at-boundary updates and
// stale OldP values are refused without touching the view.
func TestMaterializePatchRejectsStructural(t *testing.T) {
	db := incrTestDB()
	q := mustParse(t, "q(x) :- R(x, y), S(y)")
	m, err := Materialize(db, q, incrPlan(t, q), Options{Strategy: core.DNFLineage})
	if err != nil {
		t.Fatal(err)
	}
	before := m.Result()
	cases := []ProbPatch{
		{Rel: "R", Row: 0, OldP: 0.5, NewP: 1},   // crosses to certain
		{Rel: "R", Row: 0, OldP: 0.5, NewP: 0},   // crosses to impossible
		{Rel: "R", Row: 0, OldP: 0.9, NewP: 0.4}, // OldP disagrees with view
	}
	for _, p := range cases {
		ok, err := m.PatchProbs([]ProbPatch{p})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("patch %+v accepted, want structural rejection", p)
		}
	}
	after := m.Result()
	for i := range before.Rows {
		if before.Rows[i].P != after.Rows[i].P {
			t.Error("rejected patches mutated the view")
		}
	}
}

// TestMaterializeRecomputeAfterInsert: structural changes flow through
// Recompute and match a fresh materialization bit-for-bit.
func TestMaterializeRecomputeAfterInsert(t *testing.T) {
	db := incrTestDB()
	q := mustParse(t, "q(x) :- R(x, y), S(y)")
	plan := incrPlan(t, q)
	opts := Options{Strategy: core.DNFLineage}
	m, err := Materialize(db, q, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.Relation("R")
	rel.MustAdd(tuple.Ints(3, 1), 0.2)
	if err := m.Recompute(db); err != nil {
		t.Fatal(err)
	}
	fresh, err := Materialize(db, q, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, want := m.Result(), fresh.Result()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%d vs %d answers", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if got.Rows[i].P != want.Rows[i].P {
			t.Errorf("answer %v: recomputed %v != fresh %v", got.Rows[i].Vals, got.Rows[i].P, want.Rows[i].P)
		}
	}
	if m.RecomputedAll != 1 {
		t.Errorf("RecomputedAll = %d, want 1", m.RecomputedAll)
	}
}

// TestMaterializeCircuitRetention pins the circuit cache's lifecycle against
// the memo's: a value-only reset (PatchProbs re-weights probabilities and
// Resets the Shannon memo) must NOT evict compiled circuit structure — the
// dirty answers are served by hits against retained circuits — while a
// structural rebuild (Recompute) must drop it and recompile.
func TestMaterializeCircuitRetention(t *testing.T) {
	db := incrTestDB()
	q := mustParse(t, "q(x) :- R(x, y), S(y)")
	plan := incrPlan(t, q)
	m, err := Materialize(db, q, plan, Options{Strategy: core.DNFLineage})
	if err != nil {
		t.Fatal(err)
	}
	st := m.CircuitStats()
	if st.Compiles == 0 || st.Entries == 0 {
		t.Fatalf("materialize compiled nothing: %+v", st)
	}
	if st.Hits != 0 {
		t.Fatalf("cold materialize recorded hits: %+v", st)
	}
	base := st

	// Value-only reset: the prob-update path Resets the memo but keeps the
	// circuit cache, so re-solving the dirty answer is a hit, not a compile.
	rel, _ := db.Relation("R")
	row, old, err := rel.SetProb(tuple.Ints(1, 2), 0.25)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := m.PatchProbs([]ProbPatch{{Rel: "R", Row: row, OldP: old, NewP: 0.25}})
	if err != nil || !ok {
		t.Fatalf("PatchProbs: ok=%v err=%v", ok, err)
	}
	st = m.CircuitStats()
	if st.Compiles != base.Compiles {
		t.Errorf("patched refresh recompiled: %d compiles, want %d (structure must be retained)", st.Compiles, base.Compiles)
	}
	if st.Hits == 0 {
		t.Errorf("patched refresh recorded no circuit hits: %+v", st)
	}
	if st.Entries != base.Entries {
		t.Errorf("patched refresh changed resident entries: %d, want %d", st.Entries, base.Entries)
	}

	// Structural write: Recompute rebuilds the grounding, so the cache is
	// dropped and every answer recompiles.
	rel.MustAdd(tuple.Ints(3, 1), 0.2)
	if err := m.Recompute(db); err != nil {
		t.Fatal(err)
	}
	st = m.CircuitStats()
	if st.Compiles <= base.Compiles {
		t.Errorf("structural recompute did not recompile: %d compiles, want > %d", st.Compiles, base.Compiles)
	}

	// The ablation view carries no cache at all.
	off, err := Materialize(db, q, plan, Options{Strategy: core.DNFLineage, NoCircuit: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := off.CircuitStats(); st != (lineage.CircuitCacheStats{}) {
		t.Errorf("NoCircuit view reports circuit activity: %+v", st)
	}
	// A view carries the one table its solves read: the Shannon memo only
	// when there is no circuit cache to solve through.
	if m.memo != nil || off.memo == nil {
		t.Errorf("memo built for the circuit view: %v, for the NoCircuit view: %v; want false, true", m.memo != nil, off.memo != nil)
	}
}

// TestMaterializeMatchesEvaluate: the materialized exact result agrees with
// the engine's DNFLineage evaluation of the same plan.
func TestMaterializeMatchesEvaluate(t *testing.T) {
	db := incrTestDB()
	q := mustParse(t, "q(x) :- R(x, y), S(y)")
	plan := incrPlan(t, q)
	m, err := Materialize(db, q, plan, Options{Strategy: core.DNFLineage})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Evaluate(db, q, plan, Options{Strategy: core.DNFLineage})
	if err != nil {
		t.Fatal(err)
	}
	got := m.Result()
	if len(got.Rows) != len(res.Rows) {
		t.Fatalf("%d vs %d answers", len(got.Rows), len(res.Rows))
	}
	for i := range got.Rows {
		if got.Rows[i].P != res.Rows[i].P {
			t.Errorf("answer %v: materialized %v != evaluated %v", got.Rows[i].Vals, got.Rows[i].P, res.Rows[i].P)
		}
	}
}
