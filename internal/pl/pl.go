// Package pl implements relations with partial lineage (pL-relations,
// Section 5 of the paper) and the relational operators over them.
//
// A pL-relation (R, p, l, N) pairs each tuple with a probability p(t) and a
// lineage node l(t) of a shared AND-OR network N (Definition 5.2). The
// represented distribution over subsets ω ⊆ R is
//
//	ρ(ω) = Σ_z N(z) · ∏_{t∈ω} z_{l(t)}·p(t) · ∏_{t∉ω} (1 - z_{l(t)}·p(t))
//
// Tuples with the trivial lineage ε are handled purely extensionally
// (numbers); tuples pointing at real network nodes carry symbolic state. The
// operators below grow the shared network exactly as Sections 5.3.1–5.3.3
// prescribe: selection is relational selection; projection is an independent
// project followed by deduplication (Or augmentation, Theorem 5.10); joins
// require conditioning on the cSets (Definition 5.14, Theorem 5.16) and
// introduce And nodes for symbolic×symbolic matches.
package pl

import (
	"fmt"
	"math"

	"repro/internal/aonet"
	"repro/internal/relation"
	"repro/internal/tuple"
)

// Tuple is one row of a pL-relation: values, probability, and the lineage
// node (aonet.Epsilon for trivial lineage).
type Tuple struct {
	Vals tuple.Tuple
	P    float64
	Lin  aonet.NodeID
}

// Relation is a pL-relation sharing an AND-OR network with the rest of the
// query's intermediate state. Operators treat relations as immutable and
// return new ones.
type Relation struct {
	Attrs  tuple.Schema
	Tuples []Tuple
}

// FromBase converts a tuple-independent base relation into a pL-relation
// with the given attribute names (renaming positions to query variables).
// Tuples with probability zero are dropped (they are present in no world).
func FromBase(r *relation.Relation, attrs tuple.Schema) (*Relation, error) {
	if len(attrs) != len(r.Attrs) {
		return nil, fmt.Errorf("pl: renaming %d attributes of %s to %d names", len(r.Attrs), r.Name, len(attrs))
	}
	out := &Relation{Attrs: attrs.Clone(), Tuples: make([]Tuple, 0, len(r.Rows))}
	for _, row := range r.Rows {
		if row.P == 0 {
			continue
		}
		out.Tuples = append(out.Tuples, Tuple{Vals: row.Tuple, P: row.P, Lin: aonet.Epsilon})
	}
	return out, nil
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Clone returns a copy sharing tuple values (immutable by convention) but
// with independent row storage.
func (r *Relation) Clone() *Relation {
	out := &Relation{Attrs: r.Attrs.Clone(), Tuples: make([]Tuple, len(r.Tuples))}
	copy(out.Tuples, r.Tuples)
	return out
}

// Cond conditions the relation on the tuple at index i (Section 5.3.3): its
// probability becomes 1 and its lineage a node carrying the old probability.
// Lemma 5.12 shows the distribution is unchanged. For trivial lineage the
// node is a fresh leaf with P = p(t); for non-trivial lineage it is a single
// And gate with the one edge (l(t), p(t)), whose CPD φ(v=1 | x_l) = x_l·p(t)
// is exactly the represented factor z_l(t)·p(t). The one-edge encoding
// matters: a leaf-plus-And encoding costs two nodes per conditioned tuple,
// which doubles the network growth of conditioning-heavy joins (and pushed
// the possible-worlds cross-checks past their enumeration limit).
// Sub-unit edge probabilities keep the gate out of the hash-consing table,
// so repeated conditionings stay independent coins. Conditioning a tuple
// whose probability is already 1 is a no-op. The relation is modified in
// place.
func Cond(r *Relation, i int, net *aonet.Network) {
	t := &r.Tuples[i]
	if t.P == 1 {
		return
	}
	if t.Lin == aonet.Epsilon {
		t.Lin = net.AddLeaf(t.P)
	} else {
		t.Lin = net.AddGate(aonet.And, []aonet.Edge{{From: t.Lin, P: t.P}})
	}
	t.P = 1
}

// Validate checks structural invariants: probabilities in [0,1], lineage
// nodes inside the network, schema well-formed.
func (r *Relation) Validate(net *aonet.Network) error {
	if err := r.Attrs.Validate(); err != nil {
		return err
	}
	for i, t := range r.Tuples {
		if math.IsNaN(t.P) || t.P < 0 || t.P > 1 {
			return fmt.Errorf("pl: tuple %d probability %v outside [0,1]", i, t.P)
		}
		if t.Lin < 0 || int(t.Lin) >= net.Len() {
			return fmt.Errorf("pl: tuple %d lineage node %d outside network", i, t.Lin)
		}
		if len(t.Vals) != len(r.Attrs) {
			return fmt.Errorf("pl: tuple %d width %d, schema width %d", i, len(t.Vals), len(r.Attrs))
		}
	}
	return nil
}

// String renders the relation for debugging.
func (r *Relation) String() string {
	s := fmt.Sprintf("%v\n", []string(r.Attrs))
	for _, t := range r.Tuples {
		lin := "ε"
		if t.Lin != aonet.Epsilon {
			lin = fmt.Sprintf("n%d", t.Lin)
		}
		s += fmt.Sprintf("  %v p=%.6g l=%s\n", t.Vals, t.P, lin)
	}
	return s
}
