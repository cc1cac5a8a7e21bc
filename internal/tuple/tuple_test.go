package tuple

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if Int(7).AsInt() != 7 {
		t.Errorf("Int(7).AsInt() = %d", Int(7).AsInt())
	}
	if Float(2.5).AsFloat() != 2.5 {
		t.Errorf("Float(2.5).AsFloat() = %g", Float(2.5).AsFloat())
	}
	if String("ab").AsString() != "ab" {
		t.Errorf("String(ab).AsString() = %q", String("ab").AsString())
	}
	if Int(1).Kind() != KindInt || Float(1).Kind() != KindFloat || String("").Kind() != KindString {
		t.Error("Kind() mismatch")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	cases := []func(){
		func() { Int(1).AsFloat() },
		func() { Float(1).AsString() },
		func() { String("x").AsInt() },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Float(1.5), Float(2.5), -1},
		{Float(2.5), Float(2.5), 0},
		{String("a"), String("b"), -1},
		{String("b"), String("b"), 0},
		{Int(100), Float(0.5), -1}, // kinds ordered: int < float < string
		{Float(9), String(""), -1},
		{String("z"), Int(0), 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(-3), "-3"},
		{Float(0.25), "0.25"},
		{String("hi"), "hi"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestParseValue(t *testing.T) {
	if v := ParseValue("42"); v != Int(42) {
		t.Errorf("ParseValue(42) = %v", v)
	}
	if v := ParseValue("2.5"); v != Float(2.5) {
		t.Errorf("ParseValue(2.5) = %v", v)
	}
	if v := ParseValue("abc"); v != String("abc") {
		t.Errorf("ParseValue(abc) = %v", v)
	}
}

// TestFloatRenderingRoundTrips covers the fuzz findings: float values must
// render to text that ParseValue reads back as the same float.
func TestFloatRenderingRoundTrips(t *testing.T) {
	for _, f := range []float64{0, 5, -3, 2.5, 1e6, 2.5e-3, -0.0} {
		v := Float(f)
		back := ParseValue(v.String())
		if back != v {
			t.Errorf("Float(%g) renders %q, parses back as %v", f, v.String(), back)
		}
	}
	if Float(-0.0) != Float(0) {
		t.Error("negative zero not canonicalized")
	}
	if s := Float(5).String(); s != "5.0" {
		t.Errorf("Float(5) renders %q, want 5.0", s)
	}
}

func TestTupleEqualAndCompare(t *testing.T) {
	a := Ints(1, 2, 3)
	b := Ints(1, 2, 3)
	c := Ints(1, 2, 4)
	d := Ints(1, 2)
	if !a.Equal(b) {
		t.Error("a should equal b")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("a should not equal c or d")
	}
	if a.Compare(c) != -1 || c.Compare(a) != 1 || a.Compare(b) != 0 {
		t.Error("Compare ordering wrong")
	}
	if d.Compare(a) != -1 || a.Compare(d) != 1 {
		t.Error("prefix ordering wrong")
	}
}

func TestTupleKeyDistinct(t *testing.T) {
	// Keys must be injective, including across kinds and adjacent strings.
	tuples := []Tuple{
		Ints(1, 23),
		Ints(12, 3),
		Of(Int(1), Int(23)),
		Of(String("1"), Int(23)),
		Of(String("a"), String("bc")),
		Of(String("ab"), String("c")),
		Of(String("ab|c")),
		Of(String("ab"), String("|c")),
		Of(Float(1), Int(1)),
	}
	seen := make(map[string]Tuple)
	for _, tp := range tuples {
		k := tp.Key()
		if prev, ok := seen[k]; ok && !prev.Equal(tp) {
			t.Errorf("key collision: %v and %v -> %q", prev, tp, k)
		}
		seen[k] = tp
	}
	if len(seen) != len(tuples)-1 { // Ints(1,23) repeats as Of(Int(1),Int(23))
		t.Errorf("expected %d distinct keys, got %d", len(tuples)-1, len(seen))
	}
}

func TestTupleKeyAtMatchesProjectKey(t *testing.T) {
	f := func(a, b, c int64) bool {
		tp := Ints(a, b, c)
		idx := []int{2, 0}
		return tp.KeyAt(idx) == tp.Project(idx).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleProjectAndConcat(t *testing.T) {
	tp := Ints(10, 20, 30)
	got := tp.Project([]int{2, 0})
	if !got.Equal(Ints(30, 10)) {
		t.Errorf("Project = %v", got)
	}
	cc := Ints(1).Concat(Ints(2, 3))
	if !cc.Equal(Ints(1, 2, 3)) {
		t.Errorf("Concat = %v", cc)
	}
	// Concat must not alias its inputs.
	a := Ints(1, 2)
	_ = a.Concat(Ints(9))
	if !a.Equal(Ints(1, 2)) {
		t.Error("Concat mutated its receiver")
	}
}

func TestTupleString(t *testing.T) {
	if s := Ints(1, 2).String(); s != "(1, 2)" {
		t.Errorf("String() = %q", s)
	}
}

func TestSchemaIndexAndIndexes(t *testing.T) {
	s := Schema{"h", "x", "y"}
	if s.Index("x") != 1 || s.Index("z") != -1 {
		t.Error("Index wrong")
	}
	idx, err := s.Indexes([]string{"y", "h"})
	if err != nil {
		t.Fatal(err)
	}
	if idx[0] != 2 || idx[1] != 0 {
		t.Errorf("Indexes = %v", idx)
	}
	if _, err := s.Indexes([]string{"nope"}); err == nil {
		t.Error("expected error for unknown attribute")
	}
}

func TestSchemaShared(t *testing.T) {
	s := Schema{"h", "x", "y"}
	u := Schema{"y", "h", "z"}
	got := s.Shared(u)
	want := []string{"h", "y"}
	if len(got) != len(want) {
		t.Fatalf("Shared = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Shared = %v, want %v", got, want)
		}
	}
	if sh := s.Shared(Schema{"q"}); sh != nil {
		t.Errorf("Shared with disjoint = %v", sh)
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := (Schema{"a", "b"}).Validate(); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
	if err := (Schema{"a", "a"}).Validate(); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if err := (Schema{""}).Validate(); err == nil {
		t.Error("empty attribute accepted")
	}
}

func TestSchemaClone(t *testing.T) {
	s := Schema{"a", "b"}
	c := s.Clone()
	c[0] = "z"
	if s[0] != "a" {
		t.Error("Clone aliases original")
	}
}

func TestTupleCompareIsTotalOrder(t *testing.T) {
	f := func(xs []int64) bool {
		tuples := make([]Tuple, 0, len(xs))
		for i := range xs {
			tuples = append(tuples, Ints(xs[:i+1]...))
		}
		sort.Slice(tuples, func(i, j int) bool { return tuples[i].Compare(tuples[j]) < 0 })
		for i := 1; i < len(tuples); i++ {
			if tuples[i-1].Compare(tuples[i]) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// keyPalette is the crosscheck generator's value domain (small ints) as all
// three kinds, plus the values a typed key is most likely to get wrong: NaN
// (key-equal to itself though not ==), both zeros, the empty string, and
// strings around the hash's eight-byte word.
func keyPalette() []Value {
	nan := math.NaN()
	vs := []Value{
		Float(nan), Float(math.Float64frombits(math.Float64bits(nan) ^ 1)), ParseValue("NaN"),
		Float(0), Float(math.Copysign(0, -1)), ParseValue("-0.0"), Int(0), Int(-1), Float(-1),
		Float(math.Inf(1)), Float(math.Inf(-1)), Int(math.MinInt64), Int(math.MaxInt64),
		String(""), String("|"), String("i1"), String("1|"), String("NaN"),
		String("abcdefg"), String("abcdefgh"), String("abcdefgh\x00"), String("abcdefghi"),
		String("abcdefghabcdefgh"), String("\x00"), String("\x00\x00"),
	}
	for i := int64(0); i < 8; i++ {
		vs = append(vs, Int(i), Float(float64(i)), String(strconv.FormatInt(i, 10)))
	}
	return vs
}

// TestKeyEqualityContract: key-equal ⇔ equal AppendKey encodings, and
// key-equal ⇒ equal hash, for every pair of palette values and for random
// tuples over the palette at random positions on either side.
func TestKeyEqualityContract(t *testing.T) {
	vs := keyPalette()
	for _, v := range vs {
		for _, w := range vs {
			enc := string(v.AppendKey(nil)) == string(w.AppendKey(nil))
			if v.KeyEqual(w) != enc {
				t.Errorf("KeyEqual(%v %v, %v %v) = %v, encodings equal = %v", v.Kind(), v, w.Kind(), w, !enc, enc)
			}
			if enc && v.hash(7) != w.hash(7) {
				t.Errorf("%v %v and %v %v are key-equal but hash apart", v.Kind(), v, w.Kind(), w)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	randTuple := func(n int) Tuple {
		out := make(Tuple, n)
		for i := range out {
			out[i] = vs[rng.Intn(len(vs))]
		}
		return out
	}
	equal := 0
	for trial := 0; trial < 20000; trial++ {
		a, b := randTuple(1+rng.Intn(4)), randTuple(1+rng.Intn(4))
		idx, jdx := rng.Perm(len(a))[:rng.Intn(len(a)+1)], rng.Perm(len(b))[:rng.Intn(len(b)+1)]
		if trial%2 == 0 && len(idx) <= len(b) {
			// Make the sides agree half the time, or equality is never hit.
			jdx = rng.Perm(len(b))[:len(idx)]
			for k, i := range idx {
				b[jdx[k]] = a[i]
			}
		}
		enc := a.KeyAt(idx) == b.KeyAt(jdx)
		if got := a.KeyEqualAt(idx, b, jdx); got != enc {
			t.Fatalf("%v at %v, %v at %v: KeyEqualAt = %v, KeyAt equal = %v", a, idx, b, jdx, got, enc)
		}
		if enc {
			equal++
			if a.HashAt(idx) != b.HashAt(jdx) {
				t.Fatalf("%v at %v, %v at %v: key-equal but HashAt differs", a, idx, b, jdx)
			}
		}
	}
	if equal < 1000 {
		t.Fatalf("only %d key-equal pairs drawn: the hash half of the contract went unexercised", equal)
	}
}

// TestHashSpreads: the hash is only speed, but it has to be some: distinct
// palette tuples rarely share one, and consecutive integers do not crowd the
// high bits an open-addressing table indexes by.
func TestHashSpreads(t *testing.T) {
	vs := keyPalette()
	seen := make(map[uint64]string)
	all := []int{0, 1}
	for _, v := range vs {
		for _, w := range vs {
			tp := Of(v, w)
			h, k := tp.HashAt(all), tp.Key()
			if prev, ok := seen[h]; ok && prev != k {
				t.Errorf("%q and %q share hash %x", prev, k, h)
			}
			seen[h] = k
		}
	}
	var buckets [256]int
	for i := int64(0); i < 256*64; i++ {
		buckets[Ints(i).HashAt(all[:1])>>56]++
	}
	for b, n := range buckets {
		if n < 16 || n > 256 {
			t.Errorf("bucket %d of 256 holds %d of %d consecutive ints (64 expected)", b, n, 256*64)
		}
	}
}
