package query

import (
	"fmt"
	"strings"
)

// Op identifies a plan operator.
type Op uint8

// Plan operators. Selections (constant bindings and repeated variables
// within one atom) are folded into OpScan.
const (
	OpScan Op = iota
	OpJoin
	OpProject
)

// Plan is a query-plan node. Scans bind a relation to query variables via
// their Atom; joins are natural joins on shared variable names; projections
// are duplicate-eliminating projections onto Cols.
type Plan struct {
	Op Op

	// OpScan
	Atom *Atom

	// OpProject
	Cols []string

	// OpJoin (Left also used as the input of OpProject)
	Left, Right *Plan
}

// Attrs returns the output attribute (variable) names of the plan node.
func (p *Plan) Attrs() []string {
	switch p.Op {
	case OpScan:
		return p.Atom.Vars()
	case OpProject:
		return append([]string(nil), p.Cols...)
	default:
		left := p.Left.Attrs()
		out := append([]string(nil), left...)
		seen := make(map[string]bool, len(left))
		for _, a := range left {
			seen[a] = true
		}
		for _, a := range p.Right.Attrs() {
			if !seen[a] {
				out = append(out, a)
			}
		}
		return out
	}
}

// String renders the plan as a one-line algebra expression.
func (p *Plan) String() string {
	switch p.Op {
	case OpScan:
		return p.Atom.String()
	case OpProject:
		return fmt.Sprintf("π{%s}(%s)", strings.Join(p.Cols, ","), p.Left.String())
	default:
		return fmt.Sprintf("(%s ⋈ %s)", p.Left.String(), p.Right.String())
	}
}

// Scan builds a scan node for the atom.
func Scan(a *Atom) *Plan { return &Plan{Op: OpScan, Atom: a} }

// Join builds a natural-join node.
func Join(l, r *Plan) *Plan { return &Plan{Op: OpJoin, Left: l, Right: r} }

// Project builds a duplicate-eliminating projection onto cols. If cols
// equals the input attributes as a set, the input is returned unchanged.
func Project(in *Plan, cols []string) *Plan {
	attrs := in.Attrs()
	if sameSet(attrs, cols) {
		return in
	}
	return &Plan{Op: OpProject, Left: in, Cols: append([]string(nil), cols...)}
}

func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[string]bool, len(a))
	for _, x := range a {
		m[x] = true
	}
	for _, x := range b {
		if !m[x] {
			return false
		}
	}
	return true
}

// LeftDeepPlan builds the left-deep plan for q that joins atoms in the given
// predicate order, inserting a duplicate-eliminating projection after each
// join onto the variables still needed (head variables plus variables of
// remaining atoms) — the plan shape of Table 1, e.g. π_y(R ⋈ S) ⋈ T.
func LeftDeepPlan(q *Query, order []string) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(order) != len(q.Atoms) {
		return nil, fmt.Errorf("join order lists %d predicates, query has %d atoms", len(order), len(q.Atoms))
	}
	byPred := make(map[string]*Atom, len(q.Atoms))
	for i := range q.Atoms {
		byPred[q.Atoms[i].Pred] = &q.Atoms[i]
	}
	atoms := make([]*Atom, len(order))
	for i, pred := range order {
		a, ok := byPred[pred]
		if !ok {
			return nil, fmt.Errorf("join order mentions %s, which is not an atom of %s", pred, q.Name)
		}
		atoms[i] = a
		delete(byPred, pred)
	}
	cur := Scan(atoms[0])
	for i := 1; i < len(atoms); i++ {
		cur = Join(cur, Scan(atoms[i]))
		if i == len(atoms)-1 {
			break // the final projection onto the head follows
		}
		// Project away variables no atom after position i needs.
		needed := make(map[string]bool, len(q.Head))
		for _, h := range q.Head {
			needed[h] = true
		}
		for j := i + 1; j < len(atoms); j++ {
			for _, v := range atoms[j].Vars() {
				needed[v] = true
			}
		}
		var cols []string
		for _, a := range cur.Attrs() {
			if needed[a] {
				cols = append(cols, a)
			}
		}
		cur = Project(cur, cols)
	}
	return forceProject(cur, q.Head), nil
}

// BodyOrder returns q's predicates in the order its body writes them.
func BodyOrder(q *Query) []string {
	order := make([]string, len(q.Atoms))
	for i := range q.Atoms {
		order[i] = q.Atoms[i].Pred
	}
	return order
}

// FixedPlan returns the plan that is a function of the query text alone: the
// safe plan when q has one, else the left-deep plan in body order. It never
// reads the data, so it is the same at every call: what a materialized view
// needs for a recompute to be comparable bit for bit with the first
// evaluation, and the plan the planner's data-aware choice is measured
// against.
func FixedPlan(q *Query) (*Plan, error) {
	if plan, err := SafePlan(q); err == nil {
		return plan, nil
	}
	return LeftDeepPlan(q, BodyOrder(q))
}

// forceProject ends the plan with a projection onto cols even when the
// attribute set already matches (the final duplicate elimination is what
// aggregates each answer's probability) — unless the plan already ends in a
// projection onto the same columns, which would make the second one a no-op.
func forceProject(in *Plan, cols []string) *Plan {
	if in.Op == OpProject && sameSet(in.Cols, cols) {
		return in
	}
	return &Plan{Op: OpProject, Left: in, Cols: append([]string(nil), cols...)}
}

// Walk visits the plan tree in post-order.
func (p *Plan) Walk(visit func(*Plan)) {
	if p.Left != nil {
		p.Left.Walk(visit)
	}
	if p.Right != nil {
		p.Right.Walk(visit)
	}
	visit(p)
}
