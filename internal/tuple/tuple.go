package tuple

import (
	"fmt"
	"strings"
)

// Tuple is a fixed-width sequence of values. Tuples are treated as immutable
// once constructed; operators build new tuples rather than mutating.
type Tuple []Value

// Of builds a tuple from the given values.
func Of(vs ...Value) Tuple { return Tuple(vs) }

// Ints builds a tuple of integer values, a convenience for tests and
// generators whose domains are [1..m].
func Ints(vs ...int64) Tuple {
	t := make(Tuple, len(vs))
	for i, v := range vs {
		t[i] = Int(v)
	}
	return t
}

// Equal reports whether two tuples have the same width and values.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically.
func (t Tuple) Compare(u Tuple) int {
	n := min(len(t), len(u))
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// Key returns a canonical string key for the tuple, for display, answer maps
// and reference code; the operators key on HashAt and KeyEqualAt instead.
// Distinct tuples produce distinct keys.
func (t Tuple) Key() string {
	b := make([]byte, 0, 8*len(t))
	for _, v := range t {
		b = v.AppendKey(b)
		b = append(b, '|')
	}
	return string(b)
}

// KeyAt returns a canonical key for the projection of t onto the given
// positions, without materializing the projected tuple.
func (t Tuple) KeyAt(idx []int) string {
	b := make([]byte, 0, 8*len(idx))
	for _, i := range idx {
		b = t[i].AppendKey(b)
		b = append(b, '|')
	}
	return string(b)
}

// HashAt returns a 64-bit hash of the values at the given positions, the
// operators' join and grouping key. Projections that are key-equal
// (KeyEqualAt) hash equally; the converse does not hold, so every user
// verifies a hash match with KeyEqualAt.
func (t Tuple) HashAt(idx []int) uint64 {
	h := uint64(len(idx))
	for _, i := range idx {
		h = t[i].hash(h)
	}
	return h
}

// KeyEqualAt reports whether t at positions idx and u at positions jdx are
// key-equal value by value: exactly when t.KeyAt(idx) == u.KeyAt(jdx).
func (t Tuple) KeyEqualAt(idx []int, u Tuple, jdx []int) bool {
	if len(idx) != len(jdx) {
		return false
	}
	for k, i := range idx {
		if !t[i].KeyEqual(u[jdx[k]]) {
			return false
		}
	}
	return true
}

// Project returns a new tuple holding the values at the given positions.
func (t Tuple) Project(idx []int) Tuple {
	out := make(Tuple, len(idx))
	for i, j := range idx {
		out[i] = t[j]
	}
	return out
}

// Concat returns the concatenation of t and u as a fresh tuple.
func (t Tuple) Concat(u Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(u))
	out = append(out, t...)
	out = append(out, u...)
	return out
}

// String renders the tuple as (v1, v2, ...).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Schema names the positions of a tuple. Attribute names must be unique.
type Schema []string

// Index returns the position of attribute name, or -1 if absent.
func (s Schema) Index(name string) int {
	for i, a := range s {
		if a == name {
			return i
		}
	}
	return -1
}

// Indexes resolves a list of attribute names to positions. It returns an
// error naming the first attribute that is not part of the schema.
func (s Schema) Indexes(names []string) ([]int, error) {
	idx := make([]int, len(names))
	for i, n := range names {
		j := s.Index(n)
		if j < 0 {
			return nil, fmt.Errorf("attribute %q not in schema %v", n, []string(s))
		}
		idx[i] = j
	}
	return idx, nil
}

// Shared returns the attribute names present in both schemas, in s's order.
// These are the natural-join attributes.
func (s Schema) Shared(t Schema) []string {
	var out []string
	for _, a := range s {
		if t.Index(a) >= 0 {
			out = append(out, a)
		}
	}
	return out
}

// Validate reports an error if the schema contains duplicate attributes.
func (s Schema) Validate() error {
	seen := make(map[string]bool, len(s))
	for _, a := range s {
		if a == "" {
			return fmt.Errorf("schema %v contains an empty attribute name", []string(s))
		}
		if seen[a] {
			return fmt.Errorf("schema %v contains duplicate attribute %q", []string(s), a)
		}
		seen[a] = true
	}
	return nil
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}
