package planner

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/query"
	"repro/internal/relation"
)

// The selectivity estimator. Everything it uses is visible in the query
// pattern plus one exact pass over each referenced relation: constants and
// repeated variables filter an atom's rows up front, and distinct counts per
// variable set are counted lazily from the filtered rows. No statistics
// tables, no sampling, no dry-run executions — the janus-datalog observation
// that pattern-visible selectivity is enough to order joins well carries
// over to offending-tuple estimation, because an offending tuple
// (Definition 5.14: uncertain, joining two or more tuples of the other side)
// is detectable from the other side's key-multiplicity profile, and that
// profile is a pair of counts the pattern exposes.

// keyStats profiles one side of a join: how many distinct key values it has
// and how many of them occur in two or more rows (the "multi" keys whose
// join partners become offending).
type keyStats struct {
	distinct float64
	multi    float64
}

// relStats is the name-free part of an atom's statistics: a pure function of
// (relation contents, argument pattern), which is what lets a Cache share it
// between atoms that differ only in their variable names.
type relStats struct {
	fill   sync.Once      // guards scan when the entry is shared through a Cache
	rows   float64        // rows surviving the pattern's selections
	unc    float64        // of those, rows with p < 1
	tuples []relation.Row // the surviving rows, for distinct counting; read-only

	mu   sync.Mutex // guards memo: evaluations share entries under a read lock
	memo map[string]keyStats
}

// scan filters rel's rows through a's constant and repeated-variable
// selections and counts what survives. An atom that selects nothing aliases
// rel.Rows instead of copying them.
func (s *relStats) scan(rel *relation.Relation, a *query.Atom) {
	s.memo = make(map[string]keyStats)
	// first[i] is the position argument i must equal: i itself unless the
	// argument repeats an earlier variable.
	var buf [8]int
	first := buf[:0]
	selective := false
	for i, t := range a.Args {
		first = append(first, firstArg(a, i))
		if !t.IsVar() || first[i] != i {
			selective = true
		}
	}
	if !selective {
		s.tuples = rel.Rows
		s.rows = float64(len(rel.Rows))
		for _, row := range rel.Rows {
			if row.P < 1 {
				s.unc++
			}
		}
		return
	}
rows:
	for _, row := range rel.Rows {
		for i, t := range a.Args {
			if t.IsVar() {
				// Repeated variable: must match its first occurrence.
				if p := first[i]; p != i && row.Tuple[i].Compare(row.Tuple[p]) != 0 {
					continue rows
				}
			} else if row.Tuple[i].Compare(t.Const) != 0 {
				continue rows
			}
		}
		s.tuples = append(s.tuples, row)
		s.rows++
		if row.P < 1 {
			s.unc++
		}
	}
}

// firstArg returns the position of the first argument of a that holds the
// same variable as argument i: i itself for a constant or a first occurrence.
func firstArg(a *query.Atom, i int) int {
	if v := a.Args[i].Var; v != "" {
		for j := 0; j < i; j++ {
			if a.Args[j].Var == v {
				return j
			}
		}
	}
	return i
}

// keys returns the exact key profile of the filtered rows projected onto the
// given argument positions (ascending), memoized per position set. The empty
// set behaves like a single key covering every row.
func (s *relStats) keys(idx []int) keyStats {
	var buf [16]byte
	key := buf[:0]
	for _, i := range idx {
		key = binary.AppendUvarint(key, uint64(i))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if k, ok := s.memo[string(key)]; ok {
		return k
	}
	var k keyStats
	if len(idx) == 0 {
		k.distinct = 1
		if s.rows >= 2 {
			k.multi = 1
		}
	} else {
		counts := make(map[string]int, len(s.tuples))
		for _, row := range s.tuples {
			counts[row.Tuple.KeyAt(idx)]++
		}
		k.distinct = float64(len(counts))
		for _, c := range counts {
			if c >= 2 {
				k.multi++
			}
		}
	}
	s.memo[string(key)] = k
	return k
}

// atomStats holds the filtered statistics of one atom: the variable names of
// this query over the name-free statistics of its relation and pattern.
type atomStats struct {
	pred   string
	vars   []string       // distinct variables, atom order
	varPos map[string]int // variable -> first argument position
	*relStats
}

// keys returns the key profile of the atom's rows projected onto the given
// variables.
func (s *atomStats) keys(vars []string) keyStats {
	var buf [8]int
	idx := buf[:0]
	for _, v := range vars {
		idx = append(idx, s.varPos[v])
	}
	slices.Sort(idx)
	return s.relStats.keys(idx)
}

// newAtomStats builds the atom's statistics over rel: through the cache when
// there is one (hit reports whether the relation pass was saved), otherwise by
// a pass of its own.
func newAtomStats(rel *relation.Relation, a *query.Atom, cache *Cache) (s *atomStats, hit bool, err error) {
	if len(a.Args) != len(rel.Attrs) {
		return nil, false, fmt.Errorf("planner: atom %s has %d args, relation has %d attributes",
			a.Pred, len(a.Args), len(rel.Attrs))
	}
	s = &atomStats{
		pred:   a.Pred,
		vars:   a.Vars(),
		varPos: make(map[string]int, len(a.Args)),
	}
	for i, t := range a.Args {
		if t.IsVar() {
			if _, ok := s.varPos[t.Var]; !ok {
				s.varPos[t.Var] = i
			}
		}
	}
	if cache != nil {
		s.relStats, hit = cache.statsFor(rel, a)
	} else {
		s.relStats = new(relStats)
		s.relStats.scan(rel, a)
	}
	return s, hit, nil
}

// estimator scores join orders for one (query, database) pair.
type estimator struct {
	q      *query.Query
	atoms  []*atomStats
	byPred map[string]int
	// passes counts the atoms whose statistics took a pass over their
	// relation (all of them without a cache).
	passes int
}

// newEstimator builds q's estimator over db, reading atom statistics through
// cache when it is non-nil.
func newEstimator(db *relation.Database, q *query.Query, cache *Cache) (*estimator, error) {
	e := &estimator{q: q, byPred: make(map[string]int, len(q.Atoms))}
	for i := range q.Atoms {
		a := &q.Atoms[i]
		rel, err := db.Relation(a.Pred)
		if err != nil {
			return nil, err
		}
		s, hit, err := newAtomStats(rel, a, cache)
		if err != nil {
			return nil, err
		}
		if !hit {
			e.passes++
		}
		e.atoms = append(e.atoms, s)
		e.byPred[a.Pred] = i
	}
	return e, nil
}

// prefixState is the estimator's model of a join prefix: estimated rows,
// estimated uncertain rows (conditioning and dedup make rows certain, so
// this shrinks as the prefix grows), per-variable distinct estimates, and
// the offending and cost accumulators. While the prefix is still a single
// atom its key profiles are computed exactly (atom != nil); afterwards they
// fall back to independence-style products.
type prefixState struct {
	atom      *atomStats // non-nil while the prefix is one unprojected scan
	vars      []string   // attributes of the prefix, first-appearance order
	isVar     map[string]bool
	rows      float64
	unc       float64
	d         map[string]float64 // per-variable distinct estimate
	offending float64
	cost      float64 // total intermediate rows across joins
}

func (e *estimator) start(atom int) *prefixState {
	s := e.atoms[atom]
	st := &prefixState{
		atom:  s,
		vars:  append([]string(nil), s.vars...),
		isVar: make(map[string]bool, len(s.vars)),
		rows:  s.rows,
		unc:   s.unc,
		d:     make(map[string]float64, len(s.vars)),
		cost:  s.rows,
	}
	for _, v := range s.vars {
		st.isVar[v] = true
		st.d[v] = s.keys([]string{v}).distinct
	}
	return st
}

func (st *prefixState) clone() *prefixState {
	out := &prefixState{
		atom:      st.atom,
		vars:      append([]string(nil), st.vars...),
		isVar:     make(map[string]bool, len(st.isVar)),
		rows:      st.rows,
		unc:       st.unc,
		d:         make(map[string]float64, len(st.d)),
		offending: st.offending,
		cost:      st.cost,
	}
	for v := range st.isVar {
		out.isVar[v] = true
	}
	for v, c := range st.d {
		out.d[v] = c
	}
	return out
}

func clamp01(x float64) float64 { return math.Max(0, math.Min(1, x)) }

// extend joins the prefix with the given atom, updating the estimates in
// place. keep lists the variables still needed afterwards (the projection
// the physical plan inserts); nil keeps everything.
//
// The join model follows SafeJoin (Theorem 5.16): each side's uncertain
// tuples that match two or more rows of the other side are offending and
// get conditioned (becoming certain); surviving pairs multiply out into the
// result. The estimate of "matches ≥ 2 rows" is the other side's exact
// multi-key fraction when that side is a base atom, and a fanout-derived
// fraction for a joined prefix.
func (e *estimator) extend(st *prefixState, atom int, keep []string) {
	s := e.atoms[atom]
	var shared []string
	for _, v := range s.vars {
		if st.isVar[v] {
			shared = append(shared, v)
		}
	}
	// Key profile of the prefix side: exact while it is a single scan,
	// estimated (independence product, fanout-derived multi fraction) after.
	var dP, multiFracP float64
	if st.atom != nil {
		ks := st.atom.keys(shared)
		dP = math.Max(ks.distinct, 1)
		multiFracP = ks.multi / dP
	} else {
		dP = 1
		for _, v := range shared {
			dP *= st.d[v]
		}
		dP = math.Min(math.Max(dP, 1), math.Max(st.rows, 1))
		multiFracP = clamp01(math.Max(st.rows, 1)/dP - 1)
	}
	ksA := s.keys(shared)
	dA := math.Max(ksA.distinct, 1)
	multiFracA := ksA.multi / dA
	match := math.Min(dP, dA)
	fanP := math.Max(st.rows, 1) / dP
	fanA := math.Max(s.rows, 1) / dA
	svP := match / dP // fraction of each side's keys (≈ rows) that join
	svA := match / dA
	// Definition 5.14: an uncertain tuple joining ≥ 2 rows of the other side
	// is offending. Surviving uncertain tuples land on a multi key of the
	// other side with that side's multi-key frequency.
	offP := st.unc * svP * multiFracA
	offA := s.unc * svA * multiFracP
	st.offending += offP + offA
	// Conditioning makes the offending tuples certain before the join.
	uncP := math.Max(st.unc*svP-offP, 0)
	uncA := math.Max(s.unc*svA-offA, 0)
	rowsP := math.Max(st.rows*svP, 1)
	rowsA := math.Max(s.rows*svA, 1)
	rows := math.Max(match*fanP*fanA, 1)
	// An output pair is certain only when both inputs are.
	uncFrac := 1 - (1-clamp01(uncP/rowsP))*(1-clamp01(uncA/rowsA))
	st.atom = nil
	st.rows = rows
	st.unc = uncFrac * rows
	st.cost += rows
	for _, v := range s.vars {
		dv := s.keys([]string{v}).distinct
		if st.isVar[v] {
			st.d[v] = math.Min(st.d[v], dv)
		} else {
			st.isVar[v] = true
			st.vars = append(st.vars, v)
			st.d[v] = math.Min(dv, st.rows)
		}
	}
	if keep != nil {
		e.project(st, keep)
	}
}

// project narrows the prefix to the kept variables, re-estimating the row
// count as the (capped) product of the survivors' distinct counts. Dedup
// replaces every multi-row group with one certain tuple (Section 5.3.2), so
// only the estimated singleton groups keep their uncertainty.
func (e *estimator) project(st *prefixState, keep []string) {
	kept := make(map[string]bool, len(keep))
	for _, v := range keep {
		kept[v] = true
	}
	var vars []string
	groups := 1.0
	for _, v := range st.vars {
		if !kept[v] {
			delete(st.isVar, v)
			delete(st.d, v)
			continue
		}
		vars = append(vars, v)
		groups *= st.d[v]
	}
	st.vars = vars
	groups = math.Max(math.Min(groups, st.rows), 1)
	avgGroup := st.rows / groups
	singleton := clamp01(2 - avgGroup)
	st.unc = math.Min(st.unc, groups) * singleton
	st.rows = groups
}

// keepAfter returns the variables still needed after joining the atoms in
// order[:i+1]: head variables plus variables of the remaining atoms —
// mirroring the projections LeftDeepPlan inserts.
func (e *estimator) keepAfter(order []string, i int) []string {
	needed := make(map[string]bool, len(e.q.Head))
	for _, h := range e.q.Head {
		needed[h] = true
	}
	for j := i + 1; j < len(order); j++ {
		for _, v := range e.atoms[e.byPred[order[j]]].vars {
			needed[v] = true
		}
	}
	var keep []string
	for _, v := range e.q.Vars() {
		if needed[v] {
			keep = append(keep, v)
		}
	}
	return keep
}

// estimateOrder scores one full join order, returning the estimated
// offending-tuple count (rounded) and the total intermediate rows.
func (e *estimator) estimateOrder(order []string) (offending int, rows float64) {
	st := e.start(e.byPred[order[0]])
	for i := 1; i < len(order); i++ {
		var keep []string
		if i < len(order)-1 {
			keep = e.keepAfter(order, i)
		}
		e.extend(st, e.byPred[order[i]], keep)
	}
	return int(math.Round(st.offending)), st.cost
}

// greedyOrder builds one order from the given start atom, at each step
// joining the connected atom that minimizes (offending delta, resulting
// rows, predicate name). It returns nil when the query is disconnected from
// the start (some atom never becomes joinable).
func (e *estimator) greedyOrder(start int) []string {
	n := len(e.atoms)
	used := make([]bool, n)
	used[start] = true
	order := []string{e.atoms[start].pred}
	st := e.start(start)
	for len(order) < n {
		best := -1
		var bestSt *prefixState
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			connected := false
			for _, v := range e.atoms[i].vars {
				if st.isVar[v] {
					connected = true
					break
				}
			}
			if !connected {
				continue
			}
			cand := st.clone()
			e.extend(cand, i, nil)
			if best < 0 ||
				cand.offending < bestSt.offending ||
				(cand.offending == bestSt.offending && cand.rows < bestSt.rows) ||
				(cand.offending == bestSt.offending && cand.rows == bestSt.rows &&
					e.atoms[i].pred < e.atoms[best].pred) {
				best, bestSt = i, cand
			}
		}
		if best < 0 {
			return nil
		}
		used[best] = true
		order = append(order, e.atoms[best].pred)
		st = bestSt
	}
	return order
}
