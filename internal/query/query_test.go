package query

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/tuple"
)

func TestParseBasic(t *testing.T) {
	q, err := Parse("q(h) :- R1(h, x), S1(h, x, y), R2(h, y)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != "q" || len(q.Head) != 1 || q.Head[0] != "h" {
		t.Errorf("head = %v", q.Head)
	}
	if len(q.Atoms) != 3 || q.Atoms[1].Pred != "S1" || len(q.Atoms[1].Args) != 3 {
		t.Errorf("atoms = %v", q.Atoms)
	}
	round, err := Parse(q.String())
	if err != nil {
		t.Fatalf("String() does not re-parse: %v (%q)", err, q.String())
	}
	if round.String() != q.String() {
		t.Errorf("round trip: %q vs %q", round.String(), q.String())
	}
}

func TestParseBooleanAndConstants(t *testing.T) {
	q, err := Parse("q :- R(x, 7), S(x, 'paris'), T(x, 2.5)")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Head) != 0 {
		t.Errorf("expected Boolean query, head = %v", q.Head)
	}
	if got := q.Atoms[0].Args[1].Const; got != tuple.Int(7) {
		t.Errorf("int constant = %v", got)
	}
	if got := q.Atoms[1].Args[1].Const; got != tuple.String("paris") {
		t.Errorf("string constant = %v", got)
	}
	if got := q.Atoms[2].Args[1].Const; got != tuple.Float(2.5) {
		t.Errorf("float constant = %v", got)
	}
	q2, err := Parse("q() :- R(x)")
	if err != nil || len(q2.Head) != 0 {
		t.Errorf("empty head parens: %v %v", q2, err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"q(h)",
		"q(h) :- ",
		"q(h) :- r(h)",          // lowercase predicate
		"q(h) :- R(h,)",         // missing term
		"q(h) :- R(h) extra",    // trailing input
		"q(h) :- R(X)",          // uppercase variable
		"q(h) :- R('unclosed)",  // unterminated string
		"q(z) :- R(h)",          // head var not in body
		"q(h) :- R(h), R(h)",    // self-join
		"q(h) :- R(h), S(h,,x)", // empty term
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

// TestParseRenderingFixedPoint covers the numeric round-trip cases the
// fuzzer found: negative-zero floats, integral floats and exponent
// notation must all render to text that re-parses to the same query.
func TestParseRenderingFixedPoint(t *testing.T) {
	for _, input := range []string{
		"q :- A(-.0)",      // Float(-0) canonicalizes to Float(0), renders "0.0"
		"q :- A(1000000.)", // renders as 1e+06; the parser must read exponents
		"q :- A(5.0)",      // must stay a float, not collapse to the int 5
		"q :- A(5)",        // and ints stay ints
		"q :- A(2.5e-3)",
	} {
		q, err := Parse(input)
		if err != nil {
			t.Fatalf("%q: %v", input, err)
		}
		rendered := q.String()
		q2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("%q: rendering %q does not re-parse: %v", input, rendered, err)
		}
		if q2.String() != rendered {
			t.Errorf("%q: rendering not a fixed point: %q -> %q", input, rendered, q2.String())
		}
		if k1, k2 := q.Atoms[0].Args[0].Const.Kind(), q2.Atoms[0].Args[0].Const.Kind(); k1 != k2 {
			t.Errorf("%q: constant kind changed across round trip: %v -> %v", input, k1, k2)
		}
	}
	// Malformed numerics are rejected rather than silently becoming strings.
	if _, err := Parse("q :- A(1e)"); err == nil {
		t.Error("malformed numeric accepted")
	}
}

func TestVarsAndExistentialVars(t *testing.T) {
	q := MustParse("q(h) :- R(h, x), S(h, x, y)")
	vars := q.Vars()
	if len(vars) != 3 || vars[0] != "h" || vars[1] != "x" || vars[2] != "y" {
		t.Errorf("Vars = %v", vars)
	}
	ex := q.ExistentialVars()
	if len(ex) != 2 || ex[0] != "x" || ex[1] != "y" {
		t.Errorf("ExistentialVars = %v", ex)
	}
}

func TestHierarchyClassification(t *testing.T) {
	cases := []struct {
		q            string
		hierarchical bool
		strict       bool
	}{
		// The canonical unsafe query q_u of Section 4.1.
		{"q :- R(x), S(x, y), T(y)", false, false},
		// Safe but not strictly hierarchical (Sec. 4.3.1's example).
		{"q :- R(x, y), S(x, z)", true, false},
		// Strictly hierarchical chain.
		{"q :- R(x), S(x, y)", true, true},
		{"q :- R(x, y), S(x, y, z)", true, true},
		// Single atom.
		{"q :- R(x, y)", true, true},
		// Head variables act as constants: P1 restricted per h is still the
		// unsafe pattern.
		{"q(h) :- R1(h, x), S1(h, x, y), R2(h, y)", false, false},
		// With y also in the head the query becomes hierarchical.
		{"q(h, y) :- R1(h, x), S1(h, x, y), R2(h, y)", true, true},
		// Example 3.6's query: R(x,y),S(y,z) is hierarchical? Sg(x)={R},
		// Sg(y)={R,S}, Sg(z)={S}: x,z disjoint, x⊂y, z⊂y — yes; and strictly
		// hierarchical: {x,y} vs {y,z} is not a chain — no.
		{"q :- R(x, y), S(y, z)", true, false},
	}
	for _, c := range cases {
		q := MustParse(c.q)
		if got := q.IsHierarchical(); got != c.hierarchical {
			t.Errorf("%s: IsHierarchical = %v, want %v", c.q, got, c.hierarchical)
		}
		if got := q.IsStrictlyHierarchical(); got != c.strict {
			t.Errorf("%s: IsStrictlyHierarchical = %v, want %v", c.q, got, c.strict)
		}
		if q.IsSafe() != q.IsHierarchical() {
			t.Errorf("%s: IsSafe diverges from IsHierarchical", c.q)
		}
	}
}

func TestLeftDeepPlanShape(t *testing.T) {
	q := MustParse("q(h) :- R1(h, x), S1(h, x, y), R2(h, y)")
	p, err := LeftDeepPlan(q, []string{"R1", "S1", "R2"})
	if err != nil {
		t.Fatal(err)
	}
	// Expected: π{h}( π{h,y}(R1 ⋈ S1) ⋈ R2 )
	s := p.String()
	for _, want := range []string{"π{h}", "π{h,y}", "R1(h, x) ⋈ S1(h, x, y)", "⋈ R2(h, y)"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan %q missing %q", s, want)
		}
	}
	attrs := p.Attrs()
	if len(attrs) != 1 || attrs[0] != "h" {
		t.Errorf("plan attrs = %v", attrs)
	}
}

// TestFixedPlan: the safe plan for a hierarchical query, else the left-deep
// plan in the order the body writes its atoms.
func TestFixedPlan(t *testing.T) {
	safe := MustParse("q :- R(x, y), S(x, z)")
	got, err := FixedPlan(safe)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := SafePlan(safe); got.String() != want.String() {
		t.Errorf("safe query: FixedPlan = %s, want the safe plan %s", got, want)
	}
	unsafe := MustParse("q :- C(y), B(x, y), A(x)")
	if order := BodyOrder(unsafe); !reflect.DeepEqual(order, []string{"C", "B", "A"}) {
		t.Errorf("BodyOrder = %v", order)
	}
	got, err = FixedPlan(unsafe)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := LeftDeepPlan(unsafe, []string{"C", "B", "A"}); got.String() != want.String() {
		t.Errorf("unsafe query: FixedPlan = %s, want body order %s", got, want)
	}
}

func TestLeftDeepPlanErrors(t *testing.T) {
	q := MustParse("q(h) :- R(h, x), S(h, x)")
	if _, err := LeftDeepPlan(q, []string{"R"}); err == nil {
		t.Error("short join order accepted")
	}
	if _, err := LeftDeepPlan(q, []string{"R", "T"}); err == nil {
		t.Error("unknown predicate accepted")
	}
}

func TestPlanAttrsAndWalk(t *testing.T) {
	q := MustParse("q :- R(x, y), S(y, z)")
	p, err := LeftDeepPlan(q, []string{"R", "S"})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Attrs()) != 0 {
		t.Errorf("Boolean plan attrs = %v", p.Attrs())
	}
	count := 0
	p.Walk(func(*Plan) { count++ })
	if count != 4 { // scan, scan, join, project
		t.Errorf("Walk visited %d nodes", count)
	}
}

func TestProjectElidesNoOp(t *testing.T) {
	q := MustParse("q :- R(x, y)")
	scan := Scan(&q.Atoms[0])
	if got := Project(scan, []string{"y", "x"}); got != scan {
		t.Error("Project onto the same attribute set should elide")
	}
	if got := Project(scan, []string{"x"}); got == scan || got.Op != OpProject {
		t.Error("real projection elided")
	}
}

func TestSafePlanForSafeQueries(t *testing.T) {
	cases := []string{
		"q :- R(x, y), S(x, z)",
		"q :- R(x), S(x, y)",
		"q(h) :- R(h, x), S(h, x, y)",
		"q :- R(x, y)",
	}
	for _, s := range cases {
		q := MustParse(s)
		p, err := SafePlan(q)
		if err != nil {
			t.Errorf("%s: %v", s, err)
			continue
		}
		attrs := p.Attrs()
		if !sameSet(attrs, q.Head) {
			t.Errorf("%s: plan attrs %v, head %v", s, attrs, q.Head)
		}
	}
}

func TestSafePlanPaperExample(t *testing.T) {
	// Section 3: the safe plan for R(x,y),S(x,z) is π_∅(π_x(R) ⋈ π_x(S)).
	q := MustParse("q :- R(x, y), S(x, z)")
	p, err := SafePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if !strings.Contains(s, "π{x}(R(x, y))") || !strings.Contains(s, "π{x}(S(x, z))") {
		t.Errorf("safe plan %q does not project both sides to x", s)
	}
}

func TestSafePlanRejectsUnsafe(t *testing.T) {
	for _, s := range []string{
		"q :- R(x), S(x, y), T(y)",
		"q(h) :- R1(h, x), S1(h, x, y), R2(h, y)",
	} {
		if _, err := SafePlan(MustParse(s)); err == nil {
			t.Errorf("%s: unsafe query got a safe plan", s)
		}
	}
}

func TestSafePlanDisconnectedHeadMismatch(t *testing.T) {
	// Hierarchical but disconnected with different head variables per
	// component: outside the supported class, must error (not silently
	// build an unsafe cross product).
	q := MustParse("q(h, k) :- R(h), T(k)")
	if _, err := SafePlan(q); err == nil {
		t.Error("expected schema-mismatch error")
	}
	// Boolean disconnected components share the empty schema: supported.
	q2 := MustParse("q :- R(x), T(y)")
	if _, err := SafePlan(q2); err != nil {
		t.Errorf("Boolean disconnected query rejected: %v", err)
	}
	// Hierarchical under the Boolean dichotomy, but its only plans need
	// per-answer grouping, which strict per-join data-safety (Prop. 3.2)
	// rules out: SafePlan must refuse rather than emit a non-1-1 join.
	q3 := MustParse("q(h, y) :- R1(h, x), S1(h, x, y), R2(h, y)")
	if _, err := SafePlan(q3); err == nil {
		t.Error("expected refusal for group-dependent safe query")
	}
}

func TestAtomVarsDeduplicates(t *testing.T) {
	q := MustParse("q :- R(x, x, y)")
	vars := q.Atoms[0].Vars()
	if len(vars) != 2 || vars[0] != "x" || vars[1] != "y" {
		t.Errorf("Vars = %v", vars)
	}
}
