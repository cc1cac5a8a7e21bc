package lineage

import (
	"errors"
	"sort"
	"strconv"

	"repro/internal/core"
)

// ErrBudget is returned by ProbBudget when the exact solver exceeds its
// expansion budget — the formula sits past the tractability phase
// transition and the caller should switch to approximate inference
// (Section 6.4 of the paper).
var ErrBudget = errors.New("lineage: exact confidence computation exceeded its budget; use approximate inference")

// Prob computes the exact probability that the monotone DNF f is true when
// each variable v is independently true with probability p(v).
//
// The algorithm is the variable-elimination / Shannon-expansion scheme used
// by MayBMS for exact confidence computation [16]:
//
//  1. absorption-simplify the clause set;
//  2. split into independent components (clauses sharing no variables) and
//     combine them with the inclusion–exclusion-free rule
//     P(F1 ∨ F2) = 1 - (1-P(F1))(1-P(F2));
//  3. otherwise choose the most frequent variable x and expand
//     P(F) = p(x)·P(F|x=1) + (1-p(x))·P(F|x=0);
//  4. memoize on the canonical clause-set form.
//
// Its running time is exponential in the worst case (#P-hardness is
// unavoidable) but polynomial on read-once and low-treewidth lineages.
func Prob(f *DNF, p func(Var) float64) float64 {
	s := &solver{p: p, memo: make(map[string]float64), budget: -1}
	v, err := s.probChecked(f.Simplify().Clauses)
	if err != nil {
		panic("lineage: unbounded solver returned " + err.Error())
	}
	return v
}

// ProbBudget is Prob with a bound on the number of Shannon expansions. It
// returns ErrBudget when the bound is exhausted; budget <= 0 means
// unlimited. ProbBudgetCtx is the cancellable variant.
func ProbBudget(f *DNF, p func(Var) float64, budget int) (float64, error) {
	return ProbBudgetCtx(nil, f, p, budget)
}

// ProbBudgetCtx is ProbBudget under an ExecContext: the Shannon-expansion
// recursion polls cancellation every core.CheckInterval subproblems, so an
// intractable formula aborts promptly when the evaluation is cancelled or
// times out.
func ProbBudgetCtx(ec *core.ExecContext, f *DNF, p func(Var) float64, budget int) (float64, error) {
	return ProbMemoCtx(ec, f, p, budget, nil)
}

// ProbMemoCtx is ProbBudgetCtx with an optional shared memo table: Shannon
// subproblems are keyed on their canonical clause-set fingerprint in memo as
// well as the solver's per-call table, so cofactors recurring across the
// answers of one evaluation are solved once. A nil memo degrades to
// ProbBudgetCtx. Results are bit-identical with and without the shared
// table (see Memo's exactness contract); only the number of Shannon
// expansions charged against budget can shrink on hits.
func ProbMemoCtx(ec *core.ExecContext, f *DNF, p func(Var) float64, budget int, memo *Memo) (float64, error) {
	if budget <= 0 {
		budget = -1
	}
	simplified := f.Simplify()
	// Fast path (SPROUT-style [17]): read-once lineage evaluates in linear
	// time. Recognition allocates a |vars|² co-occurrence matrix, so it is
	// only attempted on moderately sized formulas.
	if vars := simplified.Vars(); len(vars) > 0 && len(vars) <= readOnceLimit && !simplified.IsTrue() {
		if fact, ok := readOnce(simplified.Clauses); ok {
			return fact.Prob(p), nil
		}
	}
	s := &solver{p: p, memo: make(map[string]float64), budget: budget, chk: core.Check{EC: ec}, ec: ec, shared: memo}
	return s.probChecked(simplified.Clauses)
}

// readOnceLimit caps the variable count for the read-once fast path.
const readOnceLimit = 512

// solver carries the probability oracle and the memo table of one Prob call.
type solver struct {
	p      func(Var) float64
	memo   map[string]float64
	budget int        // remaining Shannon expansions; -1 = unlimited
	chk    core.Check // strided cancellation poll over the recursion
	ec     *core.ExecContext
	shared *Memo // optional cross-call memo (nil = per-call memo only)
}

// probChecked wraps prob, converting the budget panic into ErrBudget and the
// cancellation panic into its context error.
func (s *solver) probChecked(clauses []Clause) (v float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			if r == errBudgetSentinel {
				err = ErrBudget
				return
			}
			if c, ok := r.(ctxSentinel); ok {
				err = c.err
				return
			}
			panic(r)
		}
	}()
	return s.prob(clauses), nil
}

// errBudgetSentinel unwinds the deep recursion when the budget runs out.
var errBudgetSentinel = new(int)

// ctxSentinel unwinds the deep recursion when the execution context is
// cancelled or over budget.
type ctxSentinel struct{ err error }

// memoLimit caps the memo table; beyond it, entries are no longer added
// (correctness is unaffected).
const memoLimit = 1 << 20

// sharedMemoMinClauses gates participation in the cross-answer shared memo:
// subproblems below the floor cost more to fingerprint-hash and round-trip
// through the table's mutex and LRU than to re-solve from the per-call memo,
// so only sizable cofactors — the ones whose reuse saves a whole recursion
// subtree — are shared across answers.
const sharedMemoMinClauses = 16

func (s *solver) prob(clauses []Clause) float64 {
	switch len(clauses) {
	case 0:
		return 0
	case 1:
		// Single clause: product of its variable probabilities.
		w := 1.0
		for _, v := range clauses[0] {
			w *= validateProb(s.p(v), v)
		}
		return w
	}
	for _, c := range clauses {
		if len(c) == 0 {
			return 1
		}
	}
	// Canonicalize once at the memo boundary: the key is serialized from,
	// and the subproblem is solved on, the same sorted clause list, so a
	// memoized value is a pure function of its key. That purity is what
	// lets the shared cross-answer table return bit-identical floats to
	// recomputation.
	sorted := sortClauses(clauses)
	key := serializeClauses(sorted)
	if v, ok := s.memo[key]; ok {
		return v
	}
	// Small subproblems are cheaper to recompute than to round-trip through
	// the shared table's mutex and LRU; only sizable cofactors are worth
	// sharing across answers. The gate changes which subproblems consult the
	// table, never a value.
	useShared := s.shared != nil && len(sorted) >= sharedMemoMinClauses
	if useShared {
		if v, ok := s.shared.Lookup(key); ok {
			if len(s.memo) < memoLimit {
				s.memo[key] = v
			}
			return v
		}
	}

	result := s.probComponents(sorted)

	if len(s.memo) < memoLimit {
		s.memo[key] = result
	}
	if useShared {
		s.shared.Store(s.ec, key, result)
	}
	return result
}

// probComponents splits the clause set into variable-disjoint components and
// combines their probabilities; a single component falls through to Shannon
// expansion.
func (s *solver) probComponents(clauses []Clause) float64 {
	comps := components(clauses)
	if len(comps) == 1 {
		return s.shannon(clauses)
	}
	notAny := 1.0
	for _, comp := range comps {
		notAny *= 1 - s.prob(comp)
		if notAny == 0 {
			break
		}
	}
	return 1 - notAny
}

// shannon expands on the most frequent variable.
func (s *solver) shannon(clauses []Clause) float64 {
	if s.budget == 0 {
		panic(errBudgetSentinel)
	}
	if s.budget > 0 {
		s.budget--
	}
	if err := s.chk.Tick(); err != nil {
		panic(ctxSentinel{err: err})
	}
	counts := make(map[Var]int)
	for _, c := range clauses {
		for _, v := range c {
			counts[v]++
		}
	}
	var x Var
	best := -1
	for v, n := range counts {
		if n > best || (n == best && v < x) {
			x, best = v, n
		}
	}
	pos, neg := cofactors(clauses, x)
	px := validateProb(s.p(x), x)
	var probPos float64
	if pos == nil {
		probPos = 1 // some clause reduced to empty: F|x=1 is true
	} else {
		probPos = s.prob(pos)
	}
	return px*probPos + (1-px)*s.prob(neg)
}

// cofactors returns (F|x=1, F|x=0) as clause sets. pos is nil when F|x=1 is
// a tautology (a clause shrank to empty). Both are absorption-simplified
// enough for recursion (the caller's clause set was already simplified, so
// only the shrunken clauses can newly absorb others).
func cofactors(clauses []Clause, x Var) (pos, neg []Clause) {
	for _, c := range clauses {
		i := sort.Search(len(c), func(i int) bool { return c[i] >= x })
		if i < len(c) && c[i] == x {
			if len(c) == 1 {
				pos = nil
				// F|x=1 contains the empty clause: tautology. Mark with a
				// sentinel by returning nil pos; collect neg normally.
				return nil, dropContaining(clauses, x)
			}
			reduced := make(Clause, 0, len(c)-1)
			reduced = append(reduced, c[:i]...)
			reduced = append(reduced, c[i+1:]...)
			pos = append(pos, reduced)
		} else {
			pos = append(pos, c)
			neg = append(neg, c)
		}
	}
	pos = absorb(pos)
	return pos, neg
}

// dropContaining returns the clauses not containing x.
func dropContaining(clauses []Clause, x Var) []Clause {
	var out []Clause
	for _, c := range clauses {
		i := sort.Search(len(c), func(i int) bool { return c[i] >= x })
		if i < len(c) && c[i] == x {
			continue
		}
		out = append(out, c)
	}
	return out
}

// absorb removes clauses that are supersets of other clauses.
func absorb(clauses []Clause) []Clause {
	if len(clauses) <= 1 {
		return clauses
	}
	sorted := append([]Clause(nil), clauses...)
	sort.Slice(sorted, func(i, j int) bool { return len(sorted[i]) < len(sorted[j]) })
	kept := sorted[:0]
	for _, c := range sorted {
		ok := true
		for _, k := range kept {
			if subset(k, c) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, c)
		}
	}
	return kept
}

// components partitions clauses into groups sharing no variables, via
// union-find over variables.
func components(clauses []Clause) [][]Clause {
	parent := make(map[Var]Var)
	var find func(Var) Var
	find = func(v Var) Var {
		r, ok := parent[v]
		if !ok {
			parent[v] = v
			return v
		}
		if r == v {
			return v
		}
		root := find(r)
		parent[v] = root
		return root
	}
	union := func(a, b Var) { parent[find(a)] = find(b) }
	for _, c := range clauses {
		for i := 1; i < len(c); i++ {
			union(c[0], c[i])
		}
	}
	groups := make(map[Var][]Clause)
	var roots []Var
	for _, c := range clauses {
		r := find(c[0])
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], c)
	}
	out := make([][]Clause, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// canonicalKey serializes a clause set into a canonical string for memoing.
func canonicalKey(clauses []Clause) string {
	return serializeClauses(sortClauses(clauses))
}

// sortClauses returns a copy of the clause set in canonical (clauseLess)
// order.
func sortClauses(clauses []Clause) []Clause {
	sorted := append([]Clause(nil), clauses...)
	sort.Slice(sorted, func(i, j int) bool { return clauseLess(sorted[i], sorted[j]) })
	return sorted
}

// serializeClauses renders an already-sorted clause set as the canonical
// fingerprint string.
func serializeClauses(sorted []Clause) string {
	b := make([]byte, 0, 8*len(sorted))
	for _, c := range sorted {
		for _, v := range c {
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(b, ',')
		}
		b = append(b, ';')
	}
	return string(b)
}

func clauseLess(a, b Clause) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
