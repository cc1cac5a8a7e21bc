package pl

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/aonet"
	"repro/internal/tuple"
)

var update = flag.Bool("update", false, "rewrite golden files")

// mixedPalette is a join-key domain whose members are easy to confuse under a
// sloppy key: the same number as int, float and string, NaN (which must join
// NaN), zero, the empty string, and strings on either side of an 8-byte word.
var mixedPalette = []tuple.Value{
	tuple.Int(1), tuple.Float(1), tuple.String("1"),
	tuple.Int(0), tuple.Float(0), tuple.Float(math.Copysign(0, -1)), tuple.String(""),
	tuple.Float(math.NaN()), tuple.Float(2.5), tuple.Int(-7),
	tuple.String("abcdefg"), tuple.String("abcdefgh"), tuple.String("abcdefghi"),
}

// randomMixedRelation is randomWideRelation with column 0 drawn from the first
// keyDomain members of mixedPalette.
func randomMixedRelation(rng *rand.Rand, net *aonet.Network, attrs tuple.Schema, n, keyDomain int) *Relation {
	r := randomWideRelation(rng, net, attrs, n, keyDomain)
	for i := range r.Tuples {
		r.Tuples[i].Vals[0] = mixedPalette[r.Tuples[i].Vals[0].AsInt()]
	}
	return r
}

// goldenPipeline runs SafeJoinCtx then ProjectCtx on the seed's instance under
// the given memory budget and renders everything a caller can observe: row
// order, values, probability bits, lineage node ids, the conditioned count
// and the network, byte for byte.
func goldenPipeline(t *testing.T, seed, mem int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := aonet.New()
	gen := randomWideRelation
	domain := 6 + rng.Intn(20)
	if seed%2 == 1 {
		gen, domain = randomMixedRelation, 4+rng.Intn(len(mixedPalette)-3)
	}
	r1 := gen(rng, net, tuple.Schema{"a", "b"}, 60+rng.Intn(120), domain)
	r2 := gen(rng, net, tuple.Schema{"a", "c"}, 60+rng.Intn(120), domain)
	ec := memEC(mem)
	joined, conditioned, err := SafeJoinCtx(ec, r1, r2, net)
	if err != nil {
		t.Fatalf("seed %d mem %d: SafeJoinCtx: %v", seed, mem, err)
	}
	proj, err := ProjectCtx(ec, joined, []string{"b", "a"}, net)
	if err != nil {
		t.Fatalf("seed %d mem %d: ProjectCtx: %v", seed, mem, err)
	}
	h := sha256.New()
	for _, r := range []*Relation{joined, proj} {
		fmt.Fprintln(h, r.Attrs)
		for _, tp := range r.Tuples {
			fmt.Fprintf(h, "%s %016x %d\n", tp.Vals.Key(), math.Float64bits(tp.P), tp.Lin)
		}
	}
	h.Write(encodeNet(t, net))
	return fmt.Sprintf("%d joined %d conditioned %d projected %d nodes %d digest %x\n",
		seed, joined.Len(), conditioned, proj.Len(), net.Len(), h.Sum(nil)[:12])
}

// TestOperatorGolden pins what SafeJoinCtx and ProjectCtx produce on 20 seeded
// instances (ten all-integer, ten over mixedPalette), in memory and at the
// one-byte floor budget. The file was written before the operators moved from
// string keys to hashed keys; a change to keying, indexing or value storage
// that moves a row, a probability bit or a node id fails here. Regenerate
// with -update only for a change that is meant to move them.
func TestOperatorGolden(t *testing.T) {
	var buf bytes.Buffer
	for seed := int64(0); seed < 20; seed++ {
		line := goldenPipeline(t, seed, 0)
		if floor := goldenPipeline(t, seed, 1); floor != line {
			t.Errorf("seed %d: floor budget diverged from in-memory:\n mem   %s floor %s", seed, line, floor)
		}
		buf.WriteString(line)
	}
	path := filepath.Join("testdata", "operators.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, exp := bytes.SplitAfter(buf.Bytes(), []byte("\n")), bytes.SplitAfter(want, []byte("\n"))
	for i := range got {
		if i >= len(exp) {
			t.Fatalf("operators.golden ends before line %d: %s", i+1, got[i])
		}
		if !bytes.Equal(got[i], exp[i]) {
			t.Fatalf("operators moved at line %d:\n got  %s want %s", i+1, got[i], exp[i])
		}
	}
}
