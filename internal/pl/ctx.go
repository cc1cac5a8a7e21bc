package pl

import (
	"fmt"

	"repro/internal/aonet"
	"repro/internal/core"
	"repro/internal/tuple"
)

// This file holds the pL operators of Sections 5.3.1–5.3.3, each threaded
// through a core.ExecContext for cancellation and row/node budgets. A nil
// context is unbounded. Join and Dedup run in memory unless the context
// carries a memory budget, in which case the spill variants of spill.go
// produce the same bytes from bounded state.

// rowCharger batches ChargeRows calls so tight loops pay one atomic per
// core.CheckInterval rows instead of one per row.
type rowCharger struct {
	ec      *core.ExecContext
	pending int
}

func (c *rowCharger) add(n int) error {
	c.pending += n
	if c.pending >= core.CheckInterval {
		return c.flush()
	}
	return nil
}

func (c *rowCharger) flush() error {
	if c.pending == 0 {
		return nil
	}
	err := c.ec.ChargeRows(c.pending)
	c.pending = 0
	return err
}

// SelectCtx returns the tuples satisfying pred. Selection over pL-relations
// is always safe (Section 5.3.1).
func SelectCtx(ec *core.ExecContext, r *Relation, pred func(tuple.Tuple) bool) (*Relation, error) {
	out := &Relation{Attrs: r.Attrs.Clone()}
	chk := core.Check{EC: ec}
	charge := rowCharger{ec: ec}
	for _, t := range r.Tuples {
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		if pred(t.Vals) {
			if err := charge.add(1); err != nil {
				return nil, err
			}
			out.Tuples = append(out.Tuples, t)
		}
	}
	if err := charge.flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// IndProjectCtx performs the independent-project stage of Section 5.3.2:
// project onto cols but merge only tuples that share the same lineage node
// (projecting on A ∪ {l}), combining probabilities as p = 1 - ∏(1 - p_i).
// The network is not modified; the cost is one hash pass.
func IndProjectCtx(ec *core.ExecContext, r *Relation, cols []string) (*Relation, error) {
	return IndProjectStreamCtx(ec, r.Attrs, r.Iter(), cols)
}

// IndProjectStreamCtx is IndProjectCtx over a tuple stream: the hash pass
// consumes the iterator one tuple at a time, so a producer (the engine's
// grounding scan under a memory budget) can drive it without materializing
// its output first. The output is identical to IndProjectCtx on the
// materialized input — the grouping sees the same tuples in the same order.
func IndProjectStreamCtx(ec *core.ExecContext, attrs tuple.Schema, it Iterator, cols []string) (*Relation, error) {
	defer it.Close()
	idx, err := attrs.Indexes(cols)
	if err != nil {
		return nil, fmt.Errorf("pl: IndProject: %w", err)
	}
	out := &Relation{Attrs: tuple.Schema(cols).Clone()}
	kept := positions(len(idx)) // an output row holds exactly the key columns
	tab := getTable(ec, 0)
	defer putTable(ec, tab)
	var arena valArena
	chk := core.Check{EC: ec}
	charge := rowCharger{ec: ec}
	for {
		t, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		// The key is (values, lineage). A group's id is its output row's
		// number: both count first arrivals.
		g, fresh := tab.get(t.Vals.HashAt(idx)^uint64(t.Lin)*0x9E3779B97F4A7C15, func(id int32) bool {
			o := &out.Tuples[id]
			return o.Lin == t.Lin && o.Vals.KeyEqualAt(kept, t.Vals, idx)
		}, true)
		if !fresh {
			out.Tuples[g].P = 1 - (1-out.Tuples[g].P)*(1-t.P)
			continue
		}
		if err := charge.add(1); err != nil {
			return nil, err
		}
		vals := arena.take(len(idx), len(idx)*max(4, len(out.Tuples)))
		for k, i := range idx {
			vals[k] = t.Vals[i]
		}
		out.Tuples = append(out.Tuples, Tuple{Vals: vals, P: t.P, Lin: t.Lin})
	}
	if err := charge.flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// positions returns 0..n-1: the key positions of a tuple keyed on all of its
// values.
func positions(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// CondCtx is Cond with the new node charged to the node budget.
func CondCtx(ec *core.ExecContext, r *Relation, i int, net *aonet.Network) error {
	before := net.Len()
	Cond(r, i, net)
	return ec.ChargeNodes(net.Len() - before)
}

// joinMatch is what one index over r2 and one probe pass over r1 establish:
// enough for both cSets, the output size and the join itself, so every tuple
// is hashed once per join.
type joinMatch struct {
	tab        *groupTable // r2 grouped by join key; chained entry j is r2.Tuples[j]
	grp1, grp2 []int32     // each tuple's group; -1 for an r1 tuple matching nothing
	n1, n2     []int32     // per group: the r1 and the r2 tuples carrying its key
	rows       int         // size of the join
}

func matchJoin(ec *core.ExecContext, tab *groupTable, r1, r2 *Relation, idx1, idx2 []int) (joinMatch, error) {
	chk := core.Check{EC: ec}
	grp := make([]int32, len(r1.Tuples)+len(r2.Tuples))
	m := joinMatch{tab: tab, grp1: grp[:len(r1.Tuples)], grp2: grp[len(r1.Tuples):]}
	for j := range r2.Tuples {
		if err := chk.Tick(); err != nil {
			return m, err
		}
		vals := r2.Tuples[j].Vals
		g, fresh := tab.get(vals.HashAt(idx2), func(id int32) bool {
			return r2.Tuples[tab.ends[id].head].Vals.KeyEqualAt(idx2, vals, idx2)
		}, true)
		tab.chain(g, fresh)
		m.grp2[j] = g
	}
	n := make([]int32, 2*len(tab.ends))
	m.n1, m.n2 = n[:len(tab.ends)], n[len(tab.ends):]
	for _, g := range m.grp2 {
		m.n2[g]++
	}
	for i := range r1.Tuples {
		if err := chk.Tick(); err != nil {
			return m, err
		}
		vals := r1.Tuples[i].Vals
		g, _ := tab.get(vals.HashAt(idx1), func(id int32) bool {
			return r2.Tuples[tab.ends[id].head].Vals.KeyEqualAt(idx2, vals, idx1)
		}, false)
		m.grp1[i] = g
		if g >= 0 {
			m.n1[g]++
			m.rows += int(m.n2[g])
		}
	}
	return m, nil
}

// cSets returns both sides' offending tuples (Definition 5.14), ascending:
// the uncertain tuples whose key the other side carries at least twice.
func (m *joinMatch) cSets(r1, r2 *Relation) (c1, c2 []int) {
	for i, g := range m.grp1 {
		if g >= 0 && m.n2[g] >= 2 && r1.Tuples[i].P < 1 {
			c1 = append(c1, i)
		}
	}
	for j, g := range m.grp2 {
		if m.n1[g] >= 2 && r2.Tuples[j].P < 1 {
			c2 = append(c2, j)
		}
	}
	return c1, c2
}

// emit produces the join in r1 order, then ascending r2 index. The inputs
// may have been conditioned since the match: conditioning changes
// probabilities and lineage, never keys.
func (m *joinMatch) emit(ec *core.ExecContext, r1, r2 *Relation, net *aonet.Network, sh joinShape) (*Relation, error) {
	chk := core.Check{EC: ec}
	o := newJoinOut(ec, sh, net, m.rows)
	for i, g := range m.grp1 {
		if g < 0 {
			continue
		}
		for j := m.tab.ends[g].head; j >= 0; j = m.tab.next[j] {
			if err := chk.Tick(); err != nil {
				return nil, err
			}
			if err := o.add(r1.Tuples[i], r2.Tuples[j]); err != nil {
				return nil, err
			}
		}
	}
	return o.rel, o.charge.flush()
}

// joinShape is the compiled schema arithmetic shared by the in-memory and
// spill join paths.
type joinShape struct {
	idx1, idx2 []int
	outAttrs   tuple.Schema
	rest2      []int
}

func compileJoin(r1, r2 *Relation) (joinShape, error) {
	shared := r1.Attrs.Shared(r2.Attrs)
	idx1, err := r1.Attrs.Indexes(shared)
	if err != nil {
		return joinShape{}, err
	}
	idx2, err := r2.Attrs.Indexes(shared)
	if err != nil {
		return joinShape{}, err
	}
	outAttrs := r1.Attrs.Clone()
	var rest2 []int
	for j, a := range r2.Attrs {
		if r1.Attrs.Index(a) < 0 {
			outAttrs = append(outAttrs, a)
			rest2 = append(rest2, j)
		}
	}
	return joinShape{idx1: idx1, idx2: idx2, outAttrs: outAttrs, rest2: rest2}, nil
}

// joinOut collects a join's output rows, in memory and from the spill merge
// alike: rows is the join's size, counted before the first row is emitted, so
// the rows' values come from chunks cut to what is still to come.
type joinOut struct {
	rel    *Relation
	rows   int
	rest2  []int
	net    *aonet.Network
	arena  valArena
	charge rowCharger
}

func newJoinOut(ec *core.ExecContext, sh joinShape, net *aonet.Network, rows int) *joinOut {
	rel := &Relation{Attrs: sh.outAttrs, Tuples: make([]Tuple, 0, min(rows, maxChunk))}
	return &joinOut{rel: rel, rows: rows, rest2: sh.rest2, net: net, charge: rowCharger{ec: ec}}
}

// add appends one matching pair per Definition 5.13: probabilities multiply
// and the non-trivial lineage, if any, is inherited; a symbolic×symbolic pair
// gets a new And gate over both (lineage, probability) pairs and probability 1.
func (o *joinOut) add(t1, t2 Tuple) error {
	w := len(t1.Vals) + len(o.rest2)
	vals := o.arena.take(w, (o.rows-len(o.rel.Tuples))*w)
	copy(vals, t1.Vals)
	for k, p := range o.rest2 {
		vals[len(t1.Vals)+k] = t2.Vals[p]
	}
	nt := Tuple{Vals: vals, P: t1.P * t2.P, Lin: t1.Lin}
	if t1.Lin == aonet.Epsilon {
		nt.Lin = t2.Lin
	} else if t2.Lin != aonet.Epsilon {
		nt.P, nt.Lin = 1, o.net.AddGate(aonet.And, []aonet.Edge{{From: t1.Lin, P: t1.P}, {From: t2.Lin, P: t2.P}})
	}
	o.rel.Tuples = append(o.rel.Tuples, nt)
	return o.charge.add(1)
}

// JoinCtx computes r1 ⋈_pL r2 (Definition 5.13), the natural join on the
// shared attribute names. For tuple pairs where both lineages are
// non-trivial, a new And node over the two (lineage, probability) pairs is
// created and the output probability is 1; otherwise the probabilities
// multiply and the non-trivial lineage (if any) is inherited.
//
// JoinCtx does NOT condition its inputs; per Theorem 5.16 the caller must
// first condition both sides on their cSets for the result to obey the
// possible-worlds semantics. Use SafeJoinCtx for the conditioned combination.
//
// The join runs in memory unless the context carries a memory budget, which
// selects the spill join (docs/SPILL.md): same output, node IDs included, at
// any positive budget.
func JoinCtx(ec *core.ExecContext, r1, r2 *Relation, net *aonet.Network) (*Relation, error) {
	out, _, err := join(ec, r1, r2, net, false)
	return out, err
}

// SafeJoinCtx conditions both inputs on their cSets (Theorem 5.16) and then
// joins them. It returns the join result and the number of offending tuples
// conditioned, the per-operator distance from data-safety (Definition 3.4).
// The inputs are cloned, not modified.
func SafeJoinCtx(ec *core.ExecContext, r1, r2 *Relation, net *aonet.Network) (*Relation, int, error) {
	return join(ec, r1, r2, net, true)
}

// join is JoinCtx, preceded when safe is set by conditioning on the cSets,
// c1 ascending then c2. One match serves the cSets and the in-memory join;
// under a memory budget the join itself is joinSpill's.
func join(ec *core.ExecContext, r1, r2 *Relation, net *aonet.Network, safe bool) (*Relation, int, error) {
	sh, err := compileJoin(r1, r2)
	if err != nil {
		return nil, 0, err
	}
	spill := ec.MemBudget() > 0
	var m joinMatch
	if safe || !spill {
		tab := getTable(ec, len(r2.Tuples))
		defer putTable(ec, tab)
		if m, err = matchJoin(ec, tab, r1, r2, sh.idx1, sh.idx2); err != nil {
			return nil, 0, err
		}
	}
	conditioned := 0
	if safe {
		c1, c2 := m.cSets(r1, r2)
		if r1, err = condAll(ec, r1, c1, net); err != nil {
			return nil, 0, err
		}
		if r2, err = condAll(ec, r2, c2, net); err != nil {
			return nil, 0, err
		}
		conditioned = len(c1) + len(c2)
	}
	nodes0 := net.Len()
	var out *Relation
	if spill {
		out, err = joinSpill(ec, r1, r2, net, sh)
	} else {
		out, err = m.emit(ec, r1, r2, net, sh)
	}
	if err != nil {
		return nil, 0, err
	}
	if err := ec.ChargeNodes(net.Len() - nodes0); err != nil {
		return nil, 0, err
	}
	return out, conditioned, nil
}

// condAll conditions a copy of r on the tuples at c; r itself when c is empty.
func condAll(ec *core.ExecContext, r *Relation, c []int, net *aonet.Network) (*Relation, error) {
	if len(c) == 0 {
		return r, nil
	}
	r = r.Clone()
	for _, i := range c {
		if err := CondCtx(ec, r, i, net); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// DedupCtx performs the deduplication stage of Section 5.3.2: tuples with
// equal values are replaced by a single tuple with probability 1 whose
// lineage is a new Or node over the group members' (lineage, probability)
// pairs. Groups of size one pass through unchanged. Theorem 5.10 shows
// IndProjectCtx followed by DedupCtx equals the possible-worlds projection.
//
// Like JoinCtx, it runs in memory unless the context carries a memory
// budget, which selects the byte-identical spill dedup.
func DedupCtx(ec *core.ExecContext, r *Relation, net *aonet.Network) (*Relation, error) {
	nodes0 := net.Len()
	var out *Relation
	var err error
	if ec.MemBudget() > 0 {
		out, err = dedupSpill(ec, r.Attrs, r.Iter(), net)
	} else {
		out, err = dedupSerial(ec, r, net)
	}
	if err != nil {
		return nil, err
	}
	if err := ec.ChargeNodes(net.Len() - nodes0); err != nil {
		return nil, err
	}
	if err := ec.ChargeRows(out.Len()); err != nil {
		return nil, err
	}
	return out, nil
}

func dedupSerial(ec *core.ExecContext, r *Relation, net *aonet.Network) (*Relation, error) {
	out := &Relation{Attrs: r.Attrs.Clone()}
	all := positions(len(r.Attrs))
	tab := getTable(ec, len(r.Tuples))
	defer putTable(ec, tab)
	chk := core.Check{EC: ec}
	for i := range r.Tuples {
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		vals := r.Tuples[i].Vals
		tab.chain(tab.get(vals.HashAt(all), func(id int32) bool {
			return r.Tuples[tab.ends[id].head].Vals.KeyEqualAt(all, vals, all)
		}, true))
	}
	// Groups come out in first-occurrence order, members ascending; a group
	// of one passes through, a larger one becomes an Or gate over its
	// members' (lineage, probability) pairs.
	var edges []aonet.Edge
	for _, e := range tab.ends {
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		if e.head == e.tail {
			out.Tuples = append(out.Tuples, r.Tuples[e.head])
			continue
		}
		edges = edges[:0]
		for i := e.head; i >= 0; i = tab.next[i] {
			edges = append(edges, aonet.Edge{From: r.Tuples[i].Lin, P: r.Tuples[i].P})
		}
		lin := net.AddGate(aonet.Or, edges)
		out.Tuples = append(out.Tuples, Tuple{Vals: r.Tuples[e.head].Vals, P: 1, Lin: lin})
	}
	return out, nil
}

// ProjectCtx is the full projection of Section 5.3.2: IndProjectCtx then
// DedupCtx.
func ProjectCtx(ec *core.ExecContext, r *Relation, cols []string, net *aonet.Network) (*Relation, error) {
	return ProjectStreamCtx(ec, r.Attrs, r.Iter(), cols, net)
}

// ProjectStreamCtx is ProjectCtx over a tuple stream: independent project
// consumes the iterator directly, then the deduplication stage runs on the
// (already reduced) grouped output. Byte-identical to ProjectCtx on the
// materialized input.
func ProjectStreamCtx(ec *core.ExecContext, attrs tuple.Schema, it Iterator, cols []string, net *aonet.Network) (*Relation, error) {
	ind, err := IndProjectStreamCtx(ec, attrs, it, cols)
	if err != nil {
		return nil, err
	}
	return DedupCtx(ec, ind, net)
}
