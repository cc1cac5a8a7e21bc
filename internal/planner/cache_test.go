package planner

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/tuple"
)

// versions is a test database's version vector: bump stands in for the
// write path of pdb.Database.
type versions map[string]int64

func (v versions) read(rel string) int64 { return v[rel] }

// sameIR compares two IRs field for field, SelectTime aside.
func sameIR(t *testing.T, label string, got, want *IR) {
	t.Helper()
	g, w := *got, *want
	g.SelectTime, w.SelectTime = 0, 0
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s: cached IR differs from fresh:\n got  %+v\n want %+v", label, g, w)
	}
}

func TestPatternKey(t *testing.T) {
	key := func(atom string) string {
		q := query.MustParse("q :- " + atom)
		return string(appendPatternKey(nil, &q.Atoms[0]))
	}
	if a, b := key("R(h, x)"), key("R(g, y)"); a != b {
		t.Errorf("renamed variables have different pattern keys: %q, %q", a, b)
	}
	if a, b := key("R(17, x)"), key("R(17, y)"); a != b {
		t.Errorf("same constant, renamed variable: %q, %q", a, b)
	}
	distinct := []string{
		"R(x, y)",      // no selection
		"R(x, x)",      // repeated variable
		"R(1, x)",      // int constant
		"R(2, x)",      // another constant
		"R('1', x)",    // string "1" is not int 1
		"R(1.0, x)",    // nor float 1
		"R(x, 1)",      // constant in the other position
		"R('1|v1', x)", // a string that spells the rest of a key
	}
	seen := make(map[string]string)
	for _, atom := range distinct {
		k := key(atom)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s share pattern key %q", prev, atom, k)
		}
		seen[k] = atom
	}
	// Three-argument shapes: which positions repeat matters.
	shapes := []string{"S(x, x, y)", "S(x, y, x)", "S(y, x, x)", "S(x, x, x)", "S(x, y, z)"}
	seen = make(map[string]string)
	for _, atom := range shapes {
		k := key(atom)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s share pattern key %q", prev, atom, k)
		}
		seen[k] = atom
	}
}

func TestQueryKey(t *testing.T) {
	key := func(text string) string { return string(appendQueryKey(nil, query.MustParse(text))) }
	if a, b := key("q :- A(x), B(x, y)"), key("other :- A(x), B(x, y)"); a != b {
		t.Errorf("the query's name is part of the plan key: %q, %q", a, b)
	}
	distinct := []string{
		"q :- A(x), B(x, y)",
		"q :- A(z), B(z, y)", // variable names reach the physical plan
		"q(x) :- A(x), B(x, y)",
		"q(y) :- A(x), B(x, y)",
		"q :- B(x, y), A(x)", // body order breaks ranking ties
		"q :- A(x), B(x, 1)",
		"q :- A(x), B(x, '1')",
		"q :- A(x), B(x, 1.0)",
		"q :- A(x), B(1, x)",
	}
	seen := make(map[string]string)
	for _, text := range distinct {
		k := key(text)
		if prev, dup := seen[k]; dup {
			t.Errorf("%q and %q share plan key %q", prev, text, k)
		}
		seen[k] = text
	}
}

// groupDB builds R(h, x), S(h, x, y), T(h, y) over a few groups h: the
// shape of the served workload, where q :- R(g, x), S(g, x, y), T(g, y) is
// unsafe for every group constant g.
func groupDB(t testing.TB) (*relation.Database, versions) {
	t.Helper()
	db := relation.NewDatabase()
	r := relation.New("R", "h", "x")
	s := relation.New("S", "h", "x", "y")
	u := relation.New("T", "h", "y")
	for h := int64(0); h < 3; h++ {
		for i := int64(0); i < 4; i++ {
			r.MustAdd(tuple.Ints(h, i), 0.5)
			u.MustAdd(tuple.Ints(h, i), 0.5)
			s.MustAdd(tuple.Ints(h, i, i%2), 0.5)
			s.MustAdd(tuple.Ints(h, i, (i+1)%4), 0.5)
		}
	}
	db.AddRelation(r)
	db.AddRelation(s)
	db.AddRelation(u)
	return db, versions{"R": 1, "S": 1, "T": 1}
}

// TestCacheSharesStatisticsAcrossRenaming: R(h, x) and R(g, y) read one
// entry, a different constant or shape reads its own.
func TestCacheSharesStatisticsAcrossRenaming(t *testing.T) {
	db, v := groupDB(t)
	c := NewCache(v.read)
	plan := func(text string, passes, hits uint64) {
		t.Helper()
		before := c.Stats()
		ir, _, err := c.Plan(db, query.MustParse(text))
		if err != nil {
			t.Fatal(err)
		}
		if ir.Source != SourceGreedy {
			t.Fatalf("%s: source %s; the test needs queries that reach the estimator", text, ir.Source)
		}
		after := c.Stats()
		if p, h := after.StatsMisses-before.StatsMisses, after.StatsHits-before.StatsHits; p != passes || h != hits {
			t.Errorf("%s: %d statistics passes and %d hits, want %d and %d", text, p, h, passes, hits)
		}
	}
	plan("q :- R(h, x), S(h, x, y), T(h, y)", 3, 0)
	plan("q :- R(g, u), S(g, u, w), T(g, w)", 0, 3)       // renamed: same patterns
	plan("q(x) :- R(h, x), S(h, x, y), T(h, y)", 0, 3)    // the head is no part of a pattern
	plan("q :- R(1, x), S(1, x, y), T(1, y)", 3, 0)       // a constant: three new patterns
	plan("q(x) :- R(1, x), S(1, x, y), T(1, y)", 0, 3)    // shared by every shape of group 1
	plan("q :- R(2, x), S(2, x, y), T(2, y)", 3, 0)       // another constant
	plan("q :- R('1', x), S('1', x, y), T('1', y)", 3, 0) // string "1" is not int 1
	plan("q :- R(x, x), S(h, x, y), T(h, y)", 1, 2)       // a repeated variable, in R only
	if st := c.Stats(); st.Patterns != 13 {
		t.Errorf("statistics tier holds %d patterns, want 13", st.Patterns)
	}
}

// TestCachePlanEqualsFresh walks the outcomes miss → plan → (write) → stats
// tier for the untouched relations, and holds every IR to the uncached one.
func TestCachePlanEqualsFresh(t *testing.T) {
	db := asymmetricDB(t)
	v := versions{"A": 1, "B": 1, "C": 1}
	c := NewCache(v.read)
	unsafe := query.MustParse("q :- A(x), B(x, y), C(y)")
	safe := query.MustParse("q :- A(x), B(x, y)")

	for _, q := range []*query.Query{unsafe, safe} {
		fresh, err := Plan(db, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []string{core.PlanCacheMiss, core.PlanCachePlan, core.PlanCachePlan} {
			// A new *query.Query each time: the key is the text, not the pointer.
			ir, outcome, err := c.Plan(db, query.MustParse(q.String()))
			if err != nil {
				t.Fatal(err)
			}
			if outcome != want {
				t.Errorf("%s call %d: outcome %q, want %q", q, i, outcome, want)
			}
			sameIR(t, fmt.Sprintf("%s call %d", q, i), ir, fresh)
		}
	}

	// A write to B: its probability mass moves, its version moves.
	b, _ := db.Relation("B")
	for i := range b.Rows {
		b.Rows[i].P = 1
	}
	v["B"]++
	before := c.Stats()
	ir, outcome, err := c.Plan(db, unsafe)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != core.PlanCacheMiss {
		t.Errorf("after a write: outcome %q, want %q (B's statistics are stale)", outcome, core.PlanCacheMiss)
	}
	after := c.Stats()
	if after.StatsMisses-before.StatsMisses != 1 || after.StatsHits-before.StatsHits != 2 {
		t.Errorf("after a write to B: %d passes, %d hits; want exactly B's pass and hits on A and C",
			after.StatsMisses-before.StatsMisses, after.StatsHits-before.StatsHits)
	}
	fresh, err := Plan(db, unsafe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameIR(t, "after write", ir, fresh)

	// A renamed query now plans from the statistics tier alone.
	renamed := query.MustParse("q :- A(u), B(u, w), C(w)")
	if _, outcome, _ := c.Plan(db, renamed); outcome != core.PlanCacheStats {
		t.Errorf("renamed query on warm statistics: outcome %q, want %q", outcome, core.PlanCacheStats)
	}

	// Choose reads the same statistics and returns the uncached ranking.
	before = c.Stats()
	best, all, err := c.Choose(db, unsafe)
	if err != nil {
		t.Fatal(err)
	}
	wantBest, wantAll, err := Choose(db, unsafe, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(best, wantBest) || !reflect.DeepEqual(all, wantAll) {
		t.Errorf("cached Choose differs from fresh:\n got  %v\n want %v", all, wantAll)
	}
	if after := c.Stats(); after.StatsMisses != before.StatsMisses {
		t.Errorf("Choose on warm statistics made %d passes", after.StatsMisses-before.StatsMisses)
	}
}

// TestCacheHitStampsItsOwnTime: a hit is a shallow copy, so callers never
// share (or overwrite) one another's SelectTime.
func TestCacheHitStampsItsOwnTime(t *testing.T) {
	db := asymmetricDB(t)
	v := versions{"A": 1, "B": 1, "C": 1}
	c := NewCache(v.read)
	q := query.MustParse("q :- A(x), B(x, y), C(y)")
	first, _, _ := c.Plan(db, q)
	second, _, _ := c.Plan(db, q)
	if first == second {
		t.Fatal("a hit returned the stored IR itself")
	}
	second.SelectTime = -1
	third, _, _ := c.Plan(db, q)
	if third.SelectTime < 0 {
		t.Error("a caller's IR aliases the stored one")
	}
	if third.Physical != first.Physical {
		t.Error("hits should share the physical plan, not rebuild it")
	}
}

func TestCacheBounds(t *testing.T) {
	db, v := groupDB(t)
	c := NewCache(v.read)
	n := maxPlans + maxPatternsPerRelation
	for i := 0; i < n; i++ {
		q := query.MustParse(fmt.Sprintf("q :- R(%d, x), S(%d, x, y), T(%d, y)", i, i, i))
		if _, _, err := c.Plan(db, q); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Plans != maxPlans {
		t.Errorf("plan tier holds %d entries after %d distinct queries, want the bound %d", st.Plans, n, maxPlans)
	}
	if st.Patterns != 3*maxPatternsPerRelation {
		t.Errorf("statistics tier holds %d patterns, want %d per relation", st.Patterns, maxPatternsPerRelation)
	}
}

// TestCacheConcurrentPlanners: planners sharing a cache (as evaluations do
// under the database's read lock) agree with the uncached plan; run under
// -race this covers the table and the per-entry key memo.
func TestCacheConcurrentPlanners(t *testing.T) {
	db, v := groupDB(t)
	c := NewCache(v.read)
	texts := []string{
		"q :- R(h, x), S(h, x, y), T(h, y)",
		"q :- R(g, u), S(g, u, w), T(g, w)",
		"q(x) :- R(h, x), S(h, x, y), T(h, y)",
		"q :- R(1, x), S(1, x, y), T(1, y)",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := query.MustParse(texts[(g+i)%len(texts)])
				ir, _, err := c.Plan(db, q)
				if err != nil {
					t.Error(err)
					return
				}
				fresh, err := Plan(db, q, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				sameIR(t, q.String(), ir, fresh)
			}
		}(g)
	}
	wg.Wait()
	// One pass per (relation, pattern), however many planners raced for it.
	if st := c.Stats(); st.StatsMisses != 6 {
		t.Errorf("%d statistics passes for 6 distinct (relation, pattern) pairs", st.StatsMisses)
	}
}
