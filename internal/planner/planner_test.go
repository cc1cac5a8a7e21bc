package planner

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/tuple"
)

// asymmetricDB builds an instance of q :- A(x), B(x, y), C(y) where the
// functional dependency x→y holds in B but y→x does not: joining A⋈B first
// is data-safe, joining C⋈B first conditions many tuples.
func asymmetricDB(t testing.TB) *relation.Database {
	t.Helper()
	db := relation.NewDatabase()
	a := relation.New("A", "x")
	b := relation.New("B", "x", "y")
	c := relation.New("C", "y")
	for x := 1; x <= 12; x++ {
		a.MustAdd(tuple.Ints(int64(x)), 0.5)
		// Many x values share y = x mod 3: y→x is violated.
		b.MustAdd(tuple.Ints(int64(x), int64(x%3)), 0.5)
	}
	for y := 0; y < 3; y++ {
		c.MustAdd(tuple.Ints(int64(y)), 0.5)
	}
	db.AddRelation(a)
	db.AddRelation(b)
	db.AddRelation(c)
	return db
}

func TestChoosePrefersSafeDirection(t *testing.T) {
	db := asymmetricDB(t)
	q := query.MustParse("q :- A(x), B(x, y), C(y)")
	best, all, err := Choose(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if best.EstOffending != 0 {
		t.Errorf("best plan %v has estimated %d offending tuples, want 0", best.Order, best.EstOffending)
	}
	// The A-first direction is the safe one.
	if best.Order[0] != "A" && best.Order[0] != "B" {
		t.Errorf("best order = %v", best.Order)
	}
	// The C-first order must rank strictly worse.
	var cFirst *Candidate
	for i := range all {
		if all[i].Order[0] == "C" {
			cFirst = &all[i]
			break
		}
	}
	if cFirst == nil {
		t.Fatal("C-first order not enumerated")
	}
	if cFirst.EstOffending == 0 {
		t.Errorf("C-first order unexpectedly estimated safe: %v", cFirst)
	}
}

func TestEstimatorSeesConstants(t *testing.T) {
	// With the constant selection B(x, 7) only one B row survives, so the
	// join key IS distinct and the direction that was offending without the
	// constant becomes safe.
	db := relation.NewDatabase()
	b := relation.New("B", "x", "y")
	c := relation.New("C", "y")
	for x := 1; x <= 10; x++ {
		b.MustAdd(tuple.Ints(int64(x), 7), 0.5)
	}
	c.MustAdd(tuple.Ints(7), 0.5)
	db.AddRelation(b)
	db.AddRelation(c)

	free := query.MustParse("q :- C(y), B(x, y)")
	est, err := newEstimator(db, free, nil)
	if err != nil {
		t.Fatal(err)
	}
	if off, _ := est.estimateOrder([]string{"C", "B"}); off == 0 {
		t.Error("C,B without constants estimated safe; want offending > 0")
	}

	bound := query.MustParse("q :- C(y), B(3, y)")
	est2, err := newEstimator(db, bound, nil)
	if err != nil {
		t.Fatal(err)
	}
	if off, _ := est2.estimateOrder([]string{"C", "B"}); off != 0 {
		t.Errorf("constant-bound B join estimated %d offending, want 0", off)
	}
	// The constant also cuts the filtered cardinality to one row.
	if rows := est2.atoms[est2.byPred["B"]].rows; rows != 1 {
		t.Errorf("B(3, y) filtered rows = %v, want 1", rows)
	}
}

func TestEstimatorRepeatedVariable(t *testing.T) {
	db := relation.NewDatabase()
	r := relation.New("R", "x", "y")
	r.MustAdd(tuple.Ints(1, 1), 0.5)
	r.MustAdd(tuple.Ints(1, 2), 0.5)
	r.MustAdd(tuple.Ints(2, 2), 0.5)
	db.AddRelation(r)
	q := query.MustParse("q :- R(x, x)")
	est, err := newEstimator(db, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows := est.atoms[0].rows; rows != 2 {
		t.Errorf("R(x, x) filtered rows = %v, want 2 (diagonal only)", rows)
	}
}

func TestConnectedOrdersAvoidCrossProducts(t *testing.T) {
	q := query.MustParse("q :- A(x), B(x, y), C(y)")
	orders := connectedOrders(q, 100)
	for _, o := range orders {
		// A and C share no variable: neither may directly follow the other
		// at the start.
		if (o[0] == "A" && o[1] == "C") || (o[0] == "C" && o[1] == "A") {
			t.Errorf("cross-product prefix in %v", o)
		}
	}
	// 4 connected orders: A,B,*; B,*,*(2); C,B,A.
	if len(orders) != 4 {
		t.Errorf("got %d orders: %v", len(orders), orders)
	}
	// Disconnected query: falls back to all permutations.
	q2 := query.MustParse("q :- A(x), D(z)")
	if got := connectedOrders(q2, 100); len(got) != 2 {
		t.Errorf("disconnected query orders = %v", got)
	}
}

// TestConnectedOrdersGolden pins the exact enumeration sequence: depth-first
// over ascending body positions. Plan choice downstream resolves ranking
// ties by this order, so it is part of the package contract.
func TestConnectedOrdersGolden(t *testing.T) {
	q := query.MustParse("q :- A(x), B(x, y), C(y), D(y, z)")
	want := [][]string{
		{"A", "B", "C", "D"},
		{"A", "B", "D", "C"},
		{"B", "A", "C", "D"},
		{"B", "A", "D", "C"},
		{"B", "C", "A", "D"},
		{"B", "C", "D", "A"},
		{"B", "D", "A", "C"},
		{"B", "D", "C", "A"},
		{"C", "B", "A", "D"},
		{"C", "B", "D", "A"},
		{"C", "D", "B", "A"},
		{"D", "B", "A", "C"},
		{"D", "B", "C", "A"},
		{"D", "C", "B", "A"},
	}
	got := connectedOrders(q, 1000)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("enumeration sequence changed:\ngot  %v\nwant %v", got, want)
	}
	// Truncation keeps the same prefix.
	if half := connectedOrders(q, 7); !reflect.DeepEqual(half, want[:7]) {
		t.Errorf("truncated enumeration = %v, want prefix of golden", half)
	}
}

func TestChooseRespectsMaxOrders(t *testing.T) {
	db := asymmetricDB(t)
	q := query.MustParse("q :- A(x), B(x, y), C(y)")
	_, all, err := Choose(db, q, Options{MaxOrders: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 2 enumerated orders plus at most one greedy completion per start atom.
	if len(all) < 2 || len(all) > 5 {
		t.Errorf("MaxOrders=2 gave %d candidates", len(all))
	}
	// Even truncated to a single enumerated order, the greedy completion
	// from the A start must keep a zero-offending candidate in the pool.
	best, _, err := Choose(db, q, Options{MaxOrders: 1})
	if err != nil {
		t.Fatal(err)
	}
	if best.EstOffending != 0 {
		t.Errorf("MaxOrders=1 best = %v (est offending %d), want a safe order via greedy", best.Order, best.EstOffending)
	}
}

func TestPlanSafeQuery(t *testing.T) {
	db := asymmetricDB(t)
	// Hierarchical: safe plan exists, no search.
	q := query.MustParse("q :- A(x), B(x, y)")
	ir, err := Plan(db, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ir.Source != SourceSafe || ir.Physical == nil || ir.EstOffending != 0 {
		t.Errorf("safe query IR = %+v", ir)
	}
	// Non-hierarchical: greedy search runs.
	q2 := query.MustParse("q :- A(x), B(x, y), C(y)")
	ir2, err := Plan(db, q2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ir2.Source != SourceGreedy || len(ir2.Order) != 3 || ir2.Candidates < 2 {
		t.Errorf("unsafe query IR = %+v", ir2)
	}
	if ir2.EstOffending != 0 {
		t.Errorf("greedy pick estimates %d offending, want 0", ir2.EstOffending)
	}
	if d := ir2.Describe(); !strings.Contains(d, "greedy") || !strings.Contains(d, ir2.Order[0]) {
		t.Errorf("Describe = %q", d)
	}
}

func TestCandidateString(t *testing.T) {
	c := Candidate{Order: []string{"A", "B"}, EstOffending: 3, EstRows: 7}
	s := c.String()
	if !strings.Contains(s, "A,B") || !strings.Contains(s, "offending=3") {
		t.Errorf("String = %q", s)
	}
}

func TestChooseErrors(t *testing.T) {
	db := relation.NewDatabase()
	q := query.MustParse("q :- A(x)")
	if _, _, err := Choose(db, q, Options{}); err == nil {
		t.Error("missing relation accepted")
	}
}

func TestCostModelRank(t *testing.T) {
	m := DefaultCostModel()
	small := Profile{Expanded: true, Clauses: 4, Vars: 6}
	if m.NeedsWidth(small) {
		t.Error("small expanded lineage should not need a width estimate")
	}
	if got := m.Rank(small); got[0] != BackendShannon || got[len(got)-1] != BackendSample {
		t.Errorf("small profile rank = %v", got)
	}
	big := Profile{Expanded: true, Clauses: 100000, Vars: 500, HasWidth: true, Width: 30}
	if !m.NeedsWidth(Profile{Expanded: true, Clauses: 100000, Vars: 500}) {
		t.Error("large lineage should need a width estimate")
	}
	if got := m.Rank(big); got[0] != BackendVE {
		t.Errorf("wide profile rank = %v, want VE first", got)
	}
	narrow := Profile{HasWidth: true, Width: 3, NetVars: 50}
	if got := m.Rank(narrow); got[0] != BackendJTree || got[1] != BackendVE {
		t.Errorf("narrow unexpanded rank = %v, want jtree then ve", got)
	}
	for _, p := range []Profile{small, big, narrow, {}} {
		rank := m.Rank(p)
		if rank[len(rank)-1] != BackendSample {
			t.Errorf("rank for %+v does not end in sampling: %v", p, rank)
		}
		for _, b := range rank[:len(rank)-1] {
			if b == BackendShannon && !p.Expanded {
				t.Errorf("rank for unexpanded %+v includes Shannon: %v", p, rank)
			}
		}
	}
}

func TestBackendString(t *testing.T) {
	for b, want := range map[Backend]string{
		BackendShannon: "expand+shannon",
		BackendVE:      "ve",
		BackendJTree:   "jtree",
		BackendSample:  "sample",
	} {
		if b.String() != want {
			t.Errorf("Backend(%d).String() = %q, want %q", b, b.String(), want)
		}
	}
}

func TestSink(t *testing.T) {
	s := NewSink()
	s.Record("ve", true, 2*time.Millisecond)
	s.Record("ve", false, time.Millisecond)
	s.Record("expand+shannon", true, 0)
	snap := s.Snapshot()
	if st := snap["ve"]; st.Attempts != 2 || st.Wins != 1 || st.Fallbacks != 1 || st.Nanos != 3e6 {
		t.Errorf("ve stats = %+v", st)
	}
	if st := snap["expand+shannon"]; st.Wins != 1 {
		t.Errorf("shannon stats = %+v", st)
	}
	s.Reset()
	if len(s.Snapshot()) != 0 {
		t.Error("Reset did not clear")
	}
	// nil sink is inert.
	var nilSink *Sink
	nilSink.Record("ve", true, 0)
	if nilSink.Snapshot() != nil {
		t.Error("nil sink snapshot non-nil")
	}
}
