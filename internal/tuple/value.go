// Package tuple provides the typed value, tuple and schema layer shared by
// every relational component of the engine.
//
// Values are small immutable scalars (int64, float64 or string). Tuples are
// fixed-width sequences of values, and schemas name the positions of a tuple.
// The package also provides ordering, and the key the executor joins and
// groups on: a 64-bit hash over typed values (Tuple.HashAt) plus the equality
// it must be verified with (Tuple.KeyEqualAt). The canonical key strings
// (Tuple.Key, Value.AppendKey) define that equality and stay for display,
// cache keys and reference code.
package tuple

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindInt Kind = iota
	KindFloat
	KindString
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is an immutable scalar: an int64, a float64 or a string.
// The zero Value is the integer 0.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a floating-point value. Negative zero is canonicalized to
// zero so that equal values render identically.
func Float(f float64) Value {
	if f == 0 {
		f = 0
	}
	return Value{kind: KindFloat, f: f}
}

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// AsInt returns the integer payload. It panics if v is not an int.
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		panic("tuple: AsInt on " + v.kind.String())
	}
	return v.i
}

// AsFloat returns the float payload. It panics if v is not a float.
func (v Value) AsFloat() float64 {
	if v.kind != KindFloat {
		panic("tuple: AsFloat on " + v.kind.String())
	}
	return v.f
}

// AsString returns the string payload. It panics if v is not a string.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic("tuple: AsString on " + v.kind.String())
	}
	return v.s
}

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(w Value) bool { return v == w }

// Compare orders values: first by kind, then by payload.
// It returns -1, 0 or +1.
func (v Value) Compare(w Value) int {
	if v.kind != w.kind {
		if v.kind < w.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindInt:
		switch {
		case v.i < w.i:
			return -1
		case v.i > w.i:
			return 1
		}
	case KindFloat:
		switch {
		case v.f < w.f:
			return -1
		case v.f > w.f:
			return 1
		}
	case KindString:
		return strings.Compare(v.s, w.s)
	}
	return 0
}

// String renders the value for display and CSV output. Floats always carry
// a decimal point or exponent so they round-trip as floats through
// ParseValue (5.0 renders as "5.0", not "5").
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		s := strconv.FormatFloat(v.f, 'g', -1, 64)
		if isPlainInteger(s) {
			s += ".0"
		}
		return s
	default:
		return v.s
	}
}

// isPlainInteger reports whether s is an optional sign followed by digits
// only (no point, exponent, Inf or NaN).
func isPlainInteger(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= '0' && c <= '9' {
			continue
		}
		if i == 0 && (c == '-' || c == '+') {
			continue
		}
		return false
	}
	return true
}

// AppendKey appends an unambiguous, kind-tagged encoding of v to b: the unit
// canonical tuple keys (Tuple.Key, Tuple.KeyAt) and the planner's cache keys
// are built from. Int 1, float 1 and string "1" encode differently.
func (v Value) AppendKey(b []byte) []byte {
	switch v.kind {
	case KindInt:
		b = append(b, 'i')
		b = strconv.AppendInt(b, v.i, 10)
	case KindFloat:
		b = append(b, 'f')
		b = strconv.AppendFloat(b, v.f, 'g', -1, 64)
	default:
		b = append(b, 's')
		b = strconv.AppendInt(b, int64(len(v.s)), 10)
		b = append(b, ':')
		b = append(b, v.s...)
	}
	return b
}

// KeyEqual reports whether v and w have the same AppendKey encoding. It is
// Equal except that NaN is key-equal to NaN, as the encodings are; negative
// zero needs no case because Float never stores one.
func (v Value) KeyEqual(w Value) bool {
	return v == w || (v.kind == KindFloat && w.kind == KindFloat && v.f != v.f && w.f != w.f)
}

// hashMul is 2^64 divided by the golden ratio: multiplying by it spreads
// consecutive integers over the high bits.
const hashMul = 0x9E3779B97F4A7C15

func mix(h, x uint64) uint64 {
	h = (h ^ x) * hashMul
	return h ^ h>>32
}

// kindSalt keeps Int 1, Float 1 and "1" apart in the hash as they are in the
// key; arbitrary odd constants, so no small payload undoes the difference.
var kindSalt = [...]uint64{KindInt: 0xC2B2AE3D27D4EB4F, KindFloat: 0x165667B19E3779F9, KindString: 0xD6E8FEB86659FD93}

// hash folds v into h so that key-equal values fold equally: the kind is
// part of the hash, every NaN hashes as one, and strings go in eight bytes
// at a time with their length.
func (v Value) hash(h uint64) uint64 {
	h ^= kindSalt[v.kind]
	switch v.kind {
	case KindInt:
		return mix(h, uint64(v.i))
	case KindFloat:
		if v.f != v.f {
			return mix(h, math.Float64bits(math.NaN()))
		}
		return mix(h, math.Float64bits(v.f))
	}
	s := v.s
	h = mix(h, uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h = mix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	var tail uint64
	for i := 0; i < len(s); i++ {
		tail |= uint64(s[i]) << (8 * i)
	}
	return mix(h, tail)
}

// ParseValue interprets s as an int, then a float, then falls back to a
// string. It is used by the CSV loader and the query parser for constants.
func ParseValue(s string) Value {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return Float(f)
	}
	return String(s)
}
