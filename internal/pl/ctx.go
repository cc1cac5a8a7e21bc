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
	type groupKey struct {
		vals string
		lin  aonet.NodeID
	}
	pos := make(map[groupKey]int)
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
		k := groupKey{vals: t.Vals.KeyAt(idx), lin: t.Lin}
		if i, ok := pos[k]; ok {
			out.Tuples[i].P = 1 - (1-out.Tuples[i].P)*(1-t.P)
			continue
		}
		if err := charge.add(1); err != nil {
			return nil, err
		}
		pos[k] = len(out.Tuples)
		out.Tuples = append(out.Tuples, Tuple{Vals: t.Vals.Project(idx), P: t.P, Lin: t.Lin})
	}
	if err := charge.flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// CondCtx is Cond with the new node charged to the node budget.
func CondCtx(ec *core.ExecContext, r *Relation, i int, net *aonet.Network) error {
	before := net.Len()
	Cond(r, i, net)
	return ec.ChargeNodes(net.Len() - before)
}

// CSetCtx returns the indexes in r1 of the offending tuples with respect to
// a join with r2 (Definition 5.14): uncertain tuples (p < 1) that join two or
// more tuples of r2. joinCols names the join attributes (shared attribute
// names).
func CSetCtx(ec *core.ExecContext, r1, r2 *Relation, joinCols []string) ([]int, error) {
	idx1, err := r1.Attrs.Indexes(joinCols)
	if err != nil {
		return nil, fmt.Errorf("pl: CSet: %w", err)
	}
	idx2, err := r2.Attrs.Indexes(joinCols)
	if err != nil {
		return nil, fmt.Errorf("pl: CSet: %w", err)
	}
	chk := core.Check{EC: ec}
	fanout := make(map[string]int, len(r2.Tuples))
	for _, t := range r2.Tuples {
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		fanout[t.Vals.KeyAt(idx2)]++
	}
	var out []int
	for i, t := range r1.Tuples {
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		if t.P < 1 && fanout[t.Vals.KeyAt(idx1)] >= 2 {
			out = append(out, i)
		}
	}
	return out, nil
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

// joinTuple combines one matching pair per Definition 5.13; needGate is true
// for symbolic×symbolic pairs, whose And node the caller must allocate.
func joinTuple(t1, t2 Tuple, rest2 []int) (nt Tuple, needGate bool) {
	vals := t1.Vals.Concat(t2.Vals.Project(rest2))
	switch {
	case t1.Lin == aonet.Epsilon && t2.Lin == aonet.Epsilon:
		return Tuple{Vals: vals, P: t1.P * t2.P, Lin: aonet.Epsilon}, false
	case t2.Lin == aonet.Epsilon:
		return Tuple{Vals: vals, P: t1.P * t2.P, Lin: t1.Lin}, false
	case t1.Lin == aonet.Epsilon:
		return Tuple{Vals: vals, P: t1.P * t2.P, Lin: t2.Lin}, false
	default:
		return Tuple{Vals: vals, P: 1}, true
	}
}

// andEdges returns the And-gate edges of a symbolic×symbolic join pair.
func andEdges(t1, t2 Tuple) []aonet.Edge {
	return []aonet.Edge{
		{From: t1.Lin, P: t1.P},
		{From: t2.Lin, P: t2.P},
	}
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
	sh, err := compileJoin(r1, r2)
	if err != nil {
		return nil, err
	}
	nodes0 := net.Len()
	var out *Relation
	if ec.MemBudget() > 0 {
		out, err = joinSpill(ec, r1, r2, net, sh)
	} else {
		out, err = joinSerial(ec, r1, r2, net, sh)
	}
	if err != nil {
		return nil, err
	}
	if err := ec.ChargeNodes(net.Len() - nodes0); err != nil {
		return nil, err
	}
	return out, nil
}

func joinSerial(ec *core.ExecContext, r1, r2 *Relation, net *aonet.Network, sh joinShape) (*Relation, error) {
	chk := core.Check{EC: ec}
	charge := rowCharger{ec: ec}
	buckets := getJoinBuckets(ec)
	defer putJoinBuckets(ec, buckets)
	for j, t := range r2.Tuples {
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		k := t.Vals.KeyAt(sh.idx2)
		buckets[k] = append(buckets[k], int32(j))
	}
	out := &Relation{Attrs: sh.outAttrs}
	for _, t1 := range r1.Tuples {
		for _, j := range buckets[t1.Vals.KeyAt(sh.idx1)] {
			if err := chk.Tick(); err != nil {
				return nil, err
			}
			t2 := r2.Tuples[j]
			nt, needGate := joinTuple(t1, t2, sh.rest2)
			if needGate {
				nt.Lin = net.AddGate(aonet.And, andEdges(t1, t2))
			}
			if err := charge.add(1); err != nil {
				return nil, err
			}
			out.Tuples = append(out.Tuples, nt)
		}
	}
	if err := charge.flush(); err != nil {
		return nil, err
	}
	return out, nil
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
	groups := getDedupGroups(ec)
	defer putDedupGroups(ec, groups)
	var order []string
	chk := core.Check{EC: ec}
	for i, t := range r.Tuples {
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		k := t.Vals.Key()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	for _, k := range order {
		if err := chk.Tick(); err != nil {
			return nil, err
		}
		emitDedupGroup(out, r, groups[k], net)
	}
	return out, nil
}

// emitDedupGroup appends one deduplicated group per Section 5.3.2.
func emitDedupGroup(out *Relation, r *Relation, members []int, net *aonet.Network) {
	if len(members) == 1 {
		out.Tuples = append(out.Tuples, r.Tuples[members[0]])
		return
	}
	edges := make([]aonet.Edge, 0, len(members))
	for _, i := range members {
		edges = append(edges, aonet.Edge{From: r.Tuples[i].Lin, P: r.Tuples[i].P})
	}
	lin := net.AddGate(aonet.Or, edges)
	out.Tuples = append(out.Tuples, Tuple{Vals: r.Tuples[members[0]].Vals, P: 1, Lin: lin})
}

// ProjectCtx is the full projection of Section 5.3.2: IndProjectCtx then
// DedupCtx.
func ProjectCtx(ec *core.ExecContext, r *Relation, cols []string, net *aonet.Network) (*Relation, error) {
	ind, err := IndProjectCtx(ec, r, cols)
	if err != nil {
		return nil, err
	}
	return DedupCtx(ec, ind, net)
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

// SafeJoinCtx conditions both inputs on their cSets (Theorem 5.16) and then
// joins them. It returns the join result and the number of offending tuples
// conditioned, the per-operator distance from data-safety (Definition 3.4).
// The inputs are cloned, not modified.
func SafeJoinCtx(ec *core.ExecContext, r1, r2 *Relation, net *aonet.Network) (*Relation, int, error) {
	shared := r1.Attrs.Shared(r2.Attrs)
	c1, err := CSetCtx(ec, r1, r2, shared)
	if err != nil {
		return nil, 0, err
	}
	c2, err := CSetCtx(ec, r2, r1, shared)
	if err != nil {
		return nil, 0, err
	}
	if len(c1) > 0 {
		r1 = r1.Clone()
		for _, i := range c1 {
			if err := CondCtx(ec, r1, i, net); err != nil {
				return nil, 0, err
			}
		}
	}
	if len(c2) > 0 {
		r2 = r2.Clone()
		for _, i := range c2 {
			if err := CondCtx(ec, r2, i, net); err != nil {
				return nil, 0, err
			}
		}
	}
	joined, err := JoinCtx(ec, r1, r2, net)
	if err != nil {
		return nil, 0, err
	}
	return joined, len(c1) + len(c2), nil
}
