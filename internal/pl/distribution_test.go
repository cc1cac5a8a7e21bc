package pl

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/aonet"
	"repro/internal/tuple"
)

// This file provides exhaustive evaluation of the distribution a
// pL-relation represents (Eq. 5 / Definition 5.2). It exists so the test
// suite can check the operator implementations directly against the
// possible-worlds semantics of Definition 2.1: an operator is correct when
// the distribution of its output equals the pushforward of its input
// distribution under the deterministic operator. Everything here is
// exponential and intended for small test instances only.

// maxEnumBits bounds 2^(network nodes + tuples) enumeration.
const maxEnumBits = 22

// WorldKey returns a canonical key for a set of tuples: sorted distinct
// value keys joined. Two tuple multisets with the same distinct values get
// the same key (worlds are sets).
func WorldKey(ts []tuple.Tuple) string {
	keys := make([]string, 0, len(ts))
	seen := make(map[string]bool, len(ts))
	for _, t := range ts {
		k := t.Key()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, "#")
}

// DistributionMapped enumerates the distribution represented by r
// (Definition 5.2) and pushes each world through f, returning the resulting
// distribution keyed by WorldKey. With the identity transform it yields the
// distribution of r itself.
func DistributionMapped(r *Relation, net *aonet.Network, f func([]tuple.Tuple) []tuple.Tuple) (map[string]float64, error) {
	return jointMapped([]*Relation{r}, net, func(worlds [][]tuple.Tuple) []tuple.Tuple {
		return f(worlds[0])
	})
}

// Distribution returns the distribution represented by r, keyed by WorldKey.
func Distribution(r *Relation, net *aonet.Network) (map[string]float64, error) {
	return DistributionMapped(r, net, func(ts []tuple.Tuple) []tuple.Tuple { return ts })
}

// JointDistributionMapped enumerates the joint distribution of r1 and r2
// (which share the network and may be correlated through it) and pushes each
// pair of worlds through f.
func JointDistributionMapped(r1, r2 *Relation, net *aonet.Network, f func(w1, w2 []tuple.Tuple) []tuple.Tuple) (map[string]float64, error) {
	return jointMapped([]*Relation{r1, r2}, net, func(worlds [][]tuple.Tuple) []tuple.Tuple {
		return f(worlds[0], worlds[1])
	})
}

func jointMapped(rels []*Relation, net *aonet.Network, f func([][]tuple.Tuple) []tuple.Tuple) (map[string]float64, error) {
	// Only the ancestors of the tuples' lineage nodes influence the
	// distribution; the rest of the network marginalizes to one. The
	// ancestor set is parent-closed, so the restricted product of CPDs is a
	// valid joint over it.
	relSet := make(map[aonet.NodeID]bool)
	var relevant []aonet.NodeID
	for _, r := range rels {
		for _, t := range r.Tuples {
			for _, v := range net.Ancestors(t.Lin) {
				if !relSet[v] {
					relSet[v] = true
					relevant = append(relevant, v)
				}
			}
		}
	}
	sort.Slice(relevant, func(i, j int) bool { return relevant[i] < relevant[j] })
	nNodes := len(relevant)
	total := 0
	for _, r := range rels {
		total += len(r.Tuples)
	}
	if nNodes+total > maxEnumBits {
		return nil, fmt.Errorf("pl: %d relevant nodes + %d tuples exceeds enumeration limit %d", nNodes, total, maxEnumBits)
	}
	out := make(map[string]float64)
	z := make([]bool, net.Len())
	worlds := make([][]tuple.Tuple, len(rels))
	for zMask := 0; zMask < 1<<uint(nNodes); zMask++ {
		for i, v := range relevant {
			z[v] = zMask&(1<<uint(i)) != 0
		}
		nz := 1.0
		for _, v := range relevant {
			pt := net.CondProbTrue(v, z)
			if z[v] {
				nz *= pt
			} else {
				nz *= 1 - pt
			}
			if nz == 0 {
				break
			}
		}
		if nz == 0 {
			continue
		}
		// Conditional presence probability of each tuple slot given z.
		var probs []float64
		for _, r := range rels {
			for _, t := range r.Tuples {
				p := t.P
				if !z[t.Lin] {
					p = 0
				}
				probs = append(probs, p)
			}
		}
		for wMask := 0; wMask < 1<<uint(total); wMask++ {
			w := nz
			for b := 0; b < total; b++ {
				if wMask&(1<<uint(b)) != 0 {
					w *= probs[b]
				} else {
					w *= 1 - probs[b]
				}
				if w == 0 {
					break
				}
			}
			if w == 0 {
				continue
			}
			// Materialize the per-relation worlds.
			b := 0
			for ri, r := range rels {
				worlds[ri] = worlds[ri][:0]
				for _, t := range r.Tuples {
					if wMask&(1<<uint(b)) != 0 {
						worlds[ri] = append(worlds[ri], t.Vals)
					}
					b++
				}
			}
			out[WorldKey(f(worlds))] += w
		}
	}
	return out, nil
}

// ProjectWorld is the deterministic projection of a world: the set of
// projected tuples (duplicates collapse via WorldKey downstream).
func ProjectWorld(ts []tuple.Tuple, idx []int) []tuple.Tuple {
	out := make([]tuple.Tuple, 0, len(ts))
	for _, t := range ts {
		out = append(out, t.Project(idx))
	}
	return out
}

// JoinWorlds is the deterministic natural join of two worlds given the join
// attribute positions on each side and the positions of the right-hand
// non-shared attributes.
func JoinWorlds(w1, w2 []tuple.Tuple, idx1, idx2, rest2 []int) []tuple.Tuple {
	buckets := make(map[string][]tuple.Tuple)
	for _, t := range w2 {
		k := t.KeyAt(idx2)
		buckets[k] = append(buckets[k], t)
	}
	var out []tuple.Tuple
	for _, t1 := range w1 {
		for _, t2 := range buckets[t1.KeyAt(idx1)] {
			out = append(out, t1.Concat(t2.Project(rest2)))
		}
	}
	return out
}

// MarginalProb returns, for each distinct tuple value of r, the marginal
// probability that some tuple with that value is present — computed by
// exhaustive enumeration. Used to validate the engine's final probabilities.
func MarginalProb(r *Relation, net *aonet.Network) (map[string]float64, error) {
	dist, err := Distribution(r, net)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, i := range r.sortTupleIndexes() {
		k := r.Tuples[i].Vals.Key()
		if _, ok := out[k]; ok {
			continue
		}
		total := 0.0
		for wk, p := range dist {
			if worldContains(wk, k) {
				total += p
			}
		}
		out[k] = total
	}
	return out, nil
}

func worldContains(worldKey, tupleKey string) bool {
	for _, part := range strings.Split(worldKey, "#") {
		if part == tupleKey {
			return true
		}
	}
	return false
}

// sortTupleIndexes returns 0..n-1 sorted by tuple value, for canonical
// iteration in Distribution.
func (r *Relation) sortTupleIndexes() []int {
	idx := make([]int, len(r.Tuples))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return r.Tuples[idx[a]].Vals.Compare(r.Tuples[idx[b]].Vals) < 0
	})
	return idx
}
