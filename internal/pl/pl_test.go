package pl

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/aonet"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tuple"
)

// mustFromBase builds a pL-relation from rows of (values..., p).
func mustFromBase(t *testing.T, name string, attrs []string, rows []Tuple) *Relation {
	t.Helper()
	r := relation.New(name, attrs...)
	for _, row := range rows {
		if err := r.Add(row.Vals, row.P); err != nil {
			t.Fatal(err)
		}
	}
	out, err := FromBase(r, tuple.Schema(attrs))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// distEqual compares two distributions keyed by WorldKey.
func distEqual(t *testing.T, ctx string, got, want map[string]float64) {
	t.Helper()
	keys := make(map[string]bool)
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	for k := range keys {
		if math.Abs(got[k]-want[k]) > 1e-9 {
			t.Errorf("%s: world %q: got %.12f, want %.12f", ctx, k, got[k], want[k])
		}
	}
}

func TestFromBaseDropsZeroProbability(t *testing.T) {
	r := relation.New("R", "a")
	r.MustAdd(tuple.Ints(1), 0.5)
	r.MustAdd(tuple.Ints(2), 0)
	p, err := FromBase(r, tuple.Schema{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 1 || p.Tuples[0].Lin != aonet.Epsilon {
		t.Errorf("FromBase = %v", p)
	}
	if _, err := FromBase(r, tuple.Schema{"x", "y"}); err == nil {
		t.Error("width mismatch accepted")
	}
}

func TestSelect(t *testing.T) {
	net := aonet.New()
	r := mustFromBase(t, "R", []string{"x", "y"}, []Tuple{
		{Vals: tuple.Ints(1, 1), P: 0.5},
		{Vals: tuple.Ints(2, 1), P: 0.5},
	})
	s, err := SelectCtx(nil, r, func(v tuple.Tuple) bool { return v[0] == tuple.Int(1) })
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 || !s.Tuples[0].Vals.Equal(tuple.Ints(1, 1)) {
		t.Errorf("Select = %v", s)
	}
	if err := s.Validate(net); err != nil {
		t.Error(err)
	}
}

func TestIndProjectMergesSameLineageOnly(t *testing.T) {
	net := aonet.New()
	leaf := net.AddLeaf(0.5)
	r := &Relation{Attrs: tuple.Schema{"x", "y"}, Tuples: []Tuple{
		{Vals: tuple.Ints(1, 1), P: 0.3, Lin: aonet.Epsilon},
		{Vals: tuple.Ints(1, 2), P: 0.4, Lin: aonet.Epsilon},
		{Vals: tuple.Ints(1, 3), P: 0.5, Lin: leaf},
		{Vals: tuple.Ints(2, 1), P: 0.2, Lin: aonet.Epsilon},
	}}
	got, err := IndProjectCtx(nil, r, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	// x=1 splits into an ε-group (0.3, 0.4 merged) and a leaf group.
	if got.Len() != 3 {
		t.Fatalf("IndProject kept %d tuples: %v", got.Len(), got)
	}
	if math.Abs(got.Tuples[0].P-(1-0.7*0.6)) > 1e-12 {
		t.Errorf("merged ε probability = %g, want %g", got.Tuples[0].P, 1-0.7*0.6)
	}
	if got.Tuples[1].Lin != leaf || got.Tuples[1].P != 0.5 {
		t.Errorf("leaf-lineage tuple altered: %+v", got.Tuples[1])
	}
	if _, err := IndProjectCtx(nil, r, []string{"nope"}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestDedupCreatesOrNode(t *testing.T) {
	net := aonet.New()
	l1 := net.AddLeaf(0.5)
	r := &Relation{Attrs: tuple.Schema{"x"}, Tuples: []Tuple{
		{Vals: tuple.Ints(1), P: 0.3, Lin: aonet.Epsilon},
		{Vals: tuple.Ints(1), P: 0.7, Lin: l1},
		{Vals: tuple.Ints(2), P: 0.4, Lin: aonet.Epsilon},
	}}
	before := net.Len()
	got, err := DedupCtx(nil, r, net)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("Dedup kept %d tuples", got.Len())
	}
	merged := got.Tuples[0]
	if merged.P != 1 || merged.Lin == aonet.Epsilon || net.Label(merged.Lin) != aonet.Or {
		t.Errorf("merged tuple = %+v", merged)
	}
	if net.Len() != before+1 {
		t.Errorf("network grew by %d nodes, want 1", net.Len()-before)
	}
	if got.Tuples[1].P != 0.4 || got.Tuples[1].Lin != aonet.Epsilon {
		t.Errorf("singleton group altered: %+v", got.Tuples[1])
	}
	edges := net.Parents(merged.Lin)
	if len(edges) != 2 {
		t.Fatalf("Or node has %d parents", len(edges))
	}
}

// TestProjectMatchesPossibleWorlds is the direct statement of Theorem 5.10:
// the distribution of Project(R) equals the pushforward of R's distribution
// under deterministic projection, on randomized instances.
func TestProjectMatchesPossibleWorlds(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		net, r := randomPLRelation(rng, 2)
		idx := []int{0}
		want, err := DistributionMapped(r, net, func(ts []tuple.Tuple) []tuple.Tuple {
			return ProjectWorld(ts, idx)
		})
		if err != nil {
			t.Fatal(err)
		}
		proj, err := ProjectCtx(nil, r, []string{r.Attrs[0]}, net)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Distribution(proj, net)
		if err != nil {
			t.Fatal(err)
		}
		distEqual(t, "projection", got, want)
	}
}

// TestCondPreservesDistribution is Lemma 5.12 on randomized instances,
// including conditioning tuples that already carry non-trivial lineage.
func TestCondPreservesDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		net, r := randomPLRelation(rng, 2)
		want, err := Distribution(r, net)
		if err != nil {
			t.Fatal(err)
		}
		c := r.Clone()
		Cond(c, rng.Intn(c.Len()), net)
		got, err := Distribution(c, net)
		if err != nil {
			t.Fatal(err)
		}
		distEqual(t, "conditioning", got, want)
	}
}

func TestCondIsNoOpOnCertainTuples(t *testing.T) {
	net := aonet.New()
	r := &Relation{Attrs: tuple.Schema{"x"}, Tuples: []Tuple{{Vals: tuple.Ints(1), P: 1, Lin: aonet.Epsilon}}}
	before := net.Len()
	Cond(r, 0, net)
	if net.Len() != before || r.Tuples[0].Lin != aonet.Epsilon {
		t.Error("Cond modified a certain tuple")
	}
}

// CSetCtx returns the indexes in r1 of the offending tuples with respect to
// a join with r2 (Definition 5.14): uncertain tuples (p < 1) that join two or
// more tuples of r2. The operators read both cSets off one joinMatch; this
// one-sided form is for the tests that state the definition.
func CSetCtx(ec *core.ExecContext, r1, r2 *Relation, joinCols []string) ([]int, error) {
	idx1, err := r1.Attrs.Indexes(joinCols)
	if err != nil {
		return nil, err
	}
	idx2, err := r2.Attrs.Indexes(joinCols)
	if err != nil {
		return nil, err
	}
	tab := getTable(ec, len(r2.Tuples))
	defer putTable(ec, tab)
	m, err := matchJoin(ec, tab, r1, r2, idx1, idx2)
	if err != nil {
		return nil, err
	}
	c1, _ := m.cSets(r1, r2)
	return c1, nil
}

func TestCSetDefinition(t *testing.T) {
	// Section 4.1's setting: R(x) joins S(x,y); a values with S-fanout ≥ 2
	// and p < 1 are offending.
	r := mustFromBase(t, "R", []string{"x"}, []Tuple{
		{Vals: tuple.Ints(1), P: 0.5},
		{Vals: tuple.Ints(2), P: 1}, // certain: never offending
		{Vals: tuple.Ints(3), P: 0.5},
	})
	s := mustFromBase(t, "S", []string{"x", "y"}, []Tuple{
		{Vals: tuple.Ints(1, 1), P: 0.5},
		{Vals: tuple.Ints(1, 2), P: 0.5},
		{Vals: tuple.Ints(2, 1), P: 0.5},
		{Vals: tuple.Ints(2, 2), P: 0.5},
		{Vals: tuple.Ints(3, 1), P: 0.5},
	})
	c, err := CSetCtx(nil, r, s, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 1 || c[0] != 0 {
		t.Errorf("cSet(R,S) = %v, want [0]", c)
	}
	c2, err := CSetCtx(nil, s, r, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(c2) != 0 {
		t.Errorf("cSet(S,R) = %v, want empty", c2)
	}
}

// TestSafeJoinMatchesPossibleWorlds is Theorem 5.16 on randomized pairs of
// relations sharing a network.
func TestSafeJoinMatchesPossibleWorlds(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		net, r1, r2 := randomPLPair(rng)
		shared := r1.Attrs.Shared(r2.Attrs)
		idx1, _ := r1.Attrs.Indexes(shared)
		idx2, _ := r2.Attrs.Indexes(shared)
		var rest2 []int
		for j, a := range r2.Attrs {
			if r1.Attrs.Index(a) < 0 {
				rest2 = append(rest2, j)
			}
		}
		want, err := JointDistributionMapped(r1, r2, net, func(w1, w2 []tuple.Tuple) []tuple.Tuple {
			return JoinWorlds(w1, w2, idx1, idx2, rest2)
		})
		if err != nil {
			t.Fatal(err)
		}
		joined, _, err := SafeJoinCtx(nil, r1, r2, net)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Distribution(joined, net)
		if err != nil {
			t.Fatal(err)
		}
		distEqual(t, "safe join", got, want)
	}
}

// TestUnconditionedJoinViolatesSemantics reproduces the only-if direction of
// Proposition 3.2: without cSet conditioning, the plain ⋈_pL of an uncertain
// fanout-2 tuple does not obey the possible-worlds semantics, while SafeJoin
// does.
func TestUnconditionedJoinViolatesSemantics(t *testing.T) {
	build := func() (*aonet.Network, *Relation, *Relation) {
		net := aonet.New()
		r := mustFromBase(t, "R", []string{"x"}, []Tuple{{Vals: tuple.Ints(1), P: 0.5}})
		s := mustFromBase(t, "S", []string{"x", "y"}, []Tuple{
			{Vals: tuple.Ints(1, 1), P: 0.6},
			{Vals: tuple.Ints(1, 2), P: 0.7},
		})
		return net, r, s
	}
	net, r, s := build()
	idx1 := []int{0}
	idx2 := []int{0}
	rest2 := []int{1}
	want, err := JointDistributionMapped(r, s, net, func(w1, w2 []tuple.Tuple) []tuple.Tuple {
		return JoinWorlds(w1, w2, idx1, idx2, rest2)
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := JoinCtx(nil, r, s, net)
	if err != nil {
		t.Fatal(err)
	}
	plainDist, err := Distribution(plain, net)
	if err != nil {
		t.Fatal(err)
	}
	diverges := false
	for k, p := range want {
		if math.Abs(plainDist[k]-p) > 1e-9 {
			diverges = true
		}
	}
	if !diverges {
		t.Error("unconditioned join unexpectedly matched possible-worlds semantics")
	}
	net2, r2, s2 := build()
	safe, conditioned, err := SafeJoinCtx(nil, r2, s2, net2)
	if err != nil {
		t.Fatal(err)
	}
	if conditioned != 1 {
		t.Errorf("conditioned %d tuples, want 1", conditioned)
	}
	got, err := Distribution(safe, net2)
	if err != nil {
		t.Fatal(err)
	}
	distEqual(t, "conditioned join", got, want)
}

// TestSection42Walkthrough follows the running example of Section 4.2 /
// Figure 4 numerically: conditioning R on a1, a2, joining with S, and
// projecting on y must yield partial lineage
// (b1, 0.11·r1 ∨ 0.13·r2 ∨ 0.10612) and (b2, 0.12·r1 ∨ 0.14·r2).
func TestSection42Walkthrough(t *testing.T) {
	net := aonet.New()
	r := mustFromBase(t, "R", []string{"x"}, []Tuple{
		{Vals: tuple.Ints(1), P: 0.5}, // a1: violates the FD
		{Vals: tuple.Ints(2), P: 0.6}, // a2: violates the FD
		{Vals: tuple.Ints(3), P: 0.3}, // a3
		{Vals: tuple.Ints(4), P: 0.4}, // a4
	})
	s := mustFromBase(t, "S", []string{"x", "y"}, []Tuple{
		{Vals: tuple.Ints(1, 1), P: 0.11},
		{Vals: tuple.Ints(1, 2), P: 0.12},
		{Vals: tuple.Ints(2, 1), P: 0.13},
		{Vals: tuple.Ints(2, 2), P: 0.14},
		{Vals: tuple.Ints(3, 1), P: 0.15},
		{Vals: tuple.Ints(4, 1), P: 0.16},
	})
	c, err := CSetCtx(nil, r, s, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 2 {
		t.Fatalf("cSet = %v, want the two FD violators", c)
	}
	joined, conditioned, err := SafeJoinCtx(nil, r, s, net)
	if err != nil {
		t.Fatal(err)
	}
	if conditioned != 2 {
		t.Errorf("conditioned = %d, want 2", conditioned)
	}
	// R ⋈ S as in the paper: symbolic tuples keep S's probability; the a3,
	// a4 rows are extensional products.
	wantJoin := map[string]struct {
		p   float64
		sym bool
	}{
		tuple.Ints(1, 1).Key(): {0.11 * 1, true},
		tuple.Ints(1, 2).Key(): {0.12 * 1, true},
		tuple.Ints(2, 1).Key(): {0.13 * 1, true},
		tuple.Ints(2, 2).Key(): {0.14 * 1, true},
		tuple.Ints(3, 1).Key(): {0.3 * 0.15, false},
		tuple.Ints(4, 1).Key(): {0.4 * 0.16, false},
	}
	if joined.Len() != len(wantJoin) {
		t.Fatalf("join has %d tuples", joined.Len())
	}
	for _, tp := range joined.Tuples {
		w := wantJoin[tp.Vals.Key()]
		if math.Abs(tp.P-w.p) > 1e-12 {
			t.Errorf("join tuple %v: p = %g, want %g", tp.Vals, tp.P, w.p)
		}
		if (tp.Lin != aonet.Epsilon) != w.sym {
			t.Errorf("join tuple %v: symbolic = %v", tp.Vals, tp.Lin != aonet.Epsilon)
		}
	}
	// π_y(R ⋈ S): IndProject merges the two ε tuples into 0.10612; Dedup
	// builds Or nodes for b1 (three parents) and b2 (two parents).
	proj, err := ProjectCtx(nil, joined, []string{"y"}, net)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Len() != 2 {
		t.Fatalf("projection has %d tuples", proj.Len())
	}
	for _, tp := range proj.Tuples {
		if tp.P != 1 || net.Label(tp.Lin) != aonet.Or {
			t.Fatalf("projected tuple %v: %+v", tp.Vals, tp)
		}
		edges := net.Parents(tp.Lin)
		var weights []float64
		for _, e := range edges {
			weights = append(weights, e.P)
		}
		switch tp.Vals.Key() {
		case tuple.Ints(1).Key(): // b1
			if len(edges) != 3 {
				t.Fatalf("b1 Or has %d parents", len(edges))
			}
			assertWeights(t, "b1", weights, []float64{0.11, 0.13, 0.10612})
		case tuple.Ints(2).Key(): // b2
			if len(edges) != 2 {
				t.Fatalf("b2 Or has %d parents", len(edges))
			}
			assertWeights(t, "b2", weights, []float64{0.12, 0.14})
		}
	}
	// The marginal probability of each projected tuple must match
	// exhaustive possible-worlds enumeration.
	marg, err := MarginalProb(proj, net)
	if err != nil {
		t.Fatal(err)
	}
	wantB1 := 1 - (1-0.5*0.11)*(1-0.6*0.13)*(1-0.10612)
	wantB2 := 1 - (1-0.5*0.12)*(1-0.6*0.14)
	if math.Abs(marg[tuple.Ints(1).Key()]-wantB1) > 1e-9 {
		t.Errorf("P(b1) = %g, want %g", marg[tuple.Ints(1).Key()], wantB1)
	}
	if math.Abs(marg[tuple.Ints(2).Key()]-wantB2) > 1e-9 {
		t.Errorf("P(b2) = %g, want %g", marg[tuple.Ints(2).Key()], wantB2)
	}
}

func assertWeights(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d weights, want %d", ctx, len(got), len(want))
	}
	used := make([]bool, len(want))
	for _, g := range got {
		found := false
		for i, w := range want {
			if !used[i] && math.Abs(g-w) < 1e-9 {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected edge weight %g (want %v)", ctx, g, want)
		}
	}
}

// randomPLRelation builds a small random pL-relation over a small random
// network.
func randomPLRelation(rng *rand.Rand, arity int) (*aonet.Network, *Relation) {
	net := aonet.New()
	for i := 0; i < 2; i++ {
		net.AddLeaf(rng.Float64())
	}
	if rng.Intn(2) == 0 {
		net.AddGate(aonet.Or, []aonet.Edge{
			{From: 1, P: rng.Float64()},
			{From: 2, P: 1},
		})
	}
	attrs := make(tuple.Schema, arity)
	for i := range attrs {
		attrs[i] = string(rune('a' + i))
	}
	// Sizes stay tiny: the possible-worlds cross-checks enumerate
	// 2^(relevant network nodes + tuple slots) worlds, and joins grow the
	// network by one node per conditioned tuple pair.
	n := 2 + rng.Intn(2)
	r := &Relation{Attrs: attrs}
	for i := 0; i < n; i++ {
		vals := make(tuple.Tuple, arity)
		for j := range vals {
			vals[j] = tuple.Int(int64(rng.Intn(2) + 1))
		}
		p := rng.Float64()
		if rng.Intn(4) == 0 {
			p = 1
		}
		r.Tuples = append(r.Tuples, Tuple{
			Vals: vals,
			P:    p,
			Lin:  aonet.NodeID(rng.Intn(net.Len())),
		})
	}
	return net, r
}

// randomPLPair builds two relations sharing a network, joinable on "a".
func randomPLPair(rng *rand.Rand) (*aonet.Network, *Relation, *Relation) {
	net, r1 := randomPLRelation(rng, 1)
	n := 2
	r2 := &Relation{Attrs: tuple.Schema{"a", "b"}}
	for i := 0; i < n; i++ {
		p := rng.Float64()
		if rng.Intn(4) == 0 {
			p = 1
		}
		r2.Tuples = append(r2.Tuples, Tuple{
			Vals: tuple.Ints(int64(rng.Intn(2)+1), int64(rng.Intn(2)+1)),
			P:    p,
			Lin:  aonet.NodeID(rng.Intn(net.Len())),
		})
	}
	return net, r1, r2
}

func TestValidate(t *testing.T) {
	net := aonet.New()
	r := &Relation{Attrs: tuple.Schema{"x"}, Tuples: []Tuple{{Vals: tuple.Ints(1), P: 0.5, Lin: aonet.Epsilon}}}
	if err := r.Validate(net); err != nil {
		t.Error(err)
	}
	bad := &Relation{Attrs: tuple.Schema{"x"}, Tuples: []Tuple{{Vals: tuple.Ints(1), P: 2, Lin: aonet.Epsilon}}}
	if err := bad.Validate(net); err == nil {
		t.Error("bad probability accepted")
	}
	bad2 := &Relation{Attrs: tuple.Schema{"x"}, Tuples: []Tuple{{Vals: tuple.Ints(1), P: 0.5, Lin: 99}}}
	if err := bad2.Validate(net); err == nil {
		t.Error("dangling lineage accepted")
	}
	bad3 := &Relation{Attrs: tuple.Schema{"x"}, Tuples: []Tuple{{Vals: tuple.Ints(1, 2), P: 0.5}}}
	if err := bad3.Validate(net); err == nil {
		t.Error("width mismatch accepted")
	}
}

func TestStringRendering(t *testing.T) {
	net := aonet.New()
	l := net.AddLeaf(0.5)
	r := &Relation{Attrs: tuple.Schema{"x"}, Tuples: []Tuple{
		{Vals: tuple.Ints(1), P: 0.5, Lin: aonet.Epsilon},
		{Vals: tuple.Ints(2), P: 1, Lin: l},
	}}
	s := r.String()
	if s == "" {
		t.Error("empty String()")
	}
}
