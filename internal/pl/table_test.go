package pl

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/aonet"
	"repro/internal/core"
	"repro/internal/tuple"
)

// TestGroupTable: ids are dense in first-arrival order through several
// growths, absent keys read -1, chains list members ascending, and a reset
// table has forgotten everything.
func TestGroupTable(t *testing.T) {
	var g groupTable
	for round := 0; round < 2; round++ {
		g.reset(0)
		keys := make([]int, 0, 1000)
		eq := func(k int) func(int32) bool { return func(id int32) bool { return keys[g.ends[id].head] == k } }
		for e := 0; e < 1000; e++ {
			// 300 keys, all distinct over the first 300 entries (7 and 300
			// are coprime), then met again in the same order.
			k := (e * 7) % 300
			keys = append(keys, k)
			id, fresh := g.get(uint64(k%50), eq(k), true) // 50 distinct hashes: collisions throughout
			if id != int32(e%300) || fresh != (e < 300) {
				t.Fatalf("round %d entry %d key %d: id %d fresh %v, want id %d", round, e, k, id, fresh, e%300)
			}
			g.chain(id, fresh)
		}
		if len(g.ends) != 300 || len(g.next) != 1000 {
			t.Fatalf("round %d: %d groups, %d entries", round, len(g.ends), len(g.next))
		}
		for id, ends := range g.ends {
			n, last := 0, int32(-1)
			for e := ends.head; e >= 0; e = g.next[e] {
				if e <= last || keys[e] != keys[ends.head] {
					t.Fatalf("group %d: entry %d after %d, key %d in a chain of key %d", id, e, last, keys[e], keys[ends.head])
				}
				n, last = n+1, e
			}
			if last != ends.tail || n < 3 {
				t.Fatalf("group %d: %d members ending at %d, tail %d", id, n, last, ends.tail)
			}
		}
		if id, _ := g.get(7, eq(1000), false); id != -1 {
			t.Fatalf("absent key found as group %d", id)
		}
	}
}

// TestCollidingHashes clears hashMask so that every key of every table
// shares one hash: join, cSet, independent project and dedup must still
// produce the golden outputs, in memory and through the spill path, because
// equality is verified on every probe and the hash is only speed.
func TestCollidingHashes(t *testing.T) {
	// Every operator entry point on one mixed-kind instance, inputs and
	// network rebuilt per run so that node ids are comparable.
	ops := func(mem int64) string {
		rng := rand.New(rand.NewSource(5))
		net := aonet.New()
		r1 := randomMixedRelation(rng, net, tuple.Schema{"a", "b"}, 150, len(mixedPalette))
		r2 := randomMixedRelation(rng, net, tuple.Schema{"a", "c"}, 150, len(mixedPalette))
		ec := memEC(mem)
		c, err := CSetCtx(ec, r1, r2, []string{"a"})
		if err != nil {
			t.Fatal(err)
		}
		fanout := make(map[string]int) // Definition 5.14 from the reference string keys
		for _, tp := range r2.Tuples {
			fanout[tp.Vals.KeyAt([]int{0})]++
		}
		var want []int
		for i, tp := range r1.Tuples {
			if tp.P < 1 && fanout[tp.Vals.KeyAt([]int{0})] >= 2 {
				want = append(want, i)
			}
		}
		if !reflect.DeepEqual(c, want) {
			t.Errorf("mem %d: CSetCtx = %v, want %v", mem, c, want)
		}
		joined, err := JoinCtx(ec, r1, r2, net)
		if err != nil {
			t.Fatal(err)
		}
		ind, err := IndProjectCtx(ec, joined, []string{"c", "a"})
		if err != nil {
			t.Fatal(err)
		}
		dedup, err := DedupCtx(ec, ind, net)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v\n%v\n%v\n%x", joined, ind, dedup, encodeNet(t, net))
	}
	normal := make([]string, 4)
	for seed := range normal {
		normal[seed] = goldenPipeline(t, int64(seed), 0)
	}
	normalOps := ops(0)

	hashMask = 0
	defer func() { hashMask = ^uint64(0) }()
	for seed, want := range normal {
		for _, mem := range []int64{0, 1} {
			if got := goldenPipeline(t, int64(seed), mem); got != want {
				t.Errorf("seed %d mem %d: colliding hashes moved the pipeline:\n got  %s want %s", seed, mem, got, want)
			}
		}
	}
	for _, mem := range []int64{0, 1} {
		if ops(mem) != normalOps {
			t.Errorf("mem %d: colliding hashes moved join, independent project or dedup", mem)
		}
	}
}

// benchInput is a join input of n rows a side with about four rows per key
// and side: r1 uncertain, r2 certain, all of trivial lineage, so r1's
// offending tuples are conditioned but no pair is symbolic on both sides.
// joined is their join with its lineage made trivial again. No operator run
// on the three builds a gate, so what is allocated is the operators' own
// scratch and output (and the conditioned tuples' leaves).
func benchInput(tb testing.TB, n int) (r1, r2, joined *Relation) {
	rng := rand.New(rand.NewSource(int64(n)))
	gen := func(attrs tuple.Schema, p float64) *Relation {
		r := &Relation{Attrs: attrs}
		for i := 0; i < n; i++ {
			vals := tuple.Ints(int64(rng.Intn(max(n/4, 1))), int64(rng.Intn(8)))
			r.Tuples = append(r.Tuples, Tuple{Vals: vals, P: p, Lin: aonet.Epsilon})
		}
		return r
	}
	r1, r2 = gen(tuple.Schema{"a", "b"}, 0.5), gen(tuple.Schema{"a", "c"}, 1)
	joined, _, err := SafeJoinCtx(nil, r1, r2, aonet.New())
	if err != nil {
		tb.Fatal(err)
	}
	for i := range joined.Tuples {
		joined.Tuples[i].P, joined.Tuples[i].Lin = 0.5, aonet.Epsilon
	}
	return r1, r2, joined
}

// TestOperatorAllocs holds the operators to a constant number of
// allocations plus one per 64 rows handled (input and output). With string
// keys it was several per row.
func TestOperatorAllocs(t *testing.T) {
	r1, r2, joined := benchInput(t, 2000)
	ec := core.NewExecContext(context.Background(), core.ExecConfig{Pooling: true})
	proj, err := ProjectCtx(ec, joined, []string{"b", "c"}, aonet.New())
	if err != nil {
		t.Fatal(err)
	}
	const fixed = 48 // tables, index arrays, output headers, slice growth steps
	join := testing.AllocsPerRun(5, func() {
		if _, _, err := SafeJoinCtx(ec, r1, r2, aonet.New()); err != nil {
			t.Fatal(err)
		}
	})
	if rows := r1.Len() + r2.Len() + joined.Len(); join > float64(fixed+rows/64) {
		t.Errorf("SafeJoinCtx: %.0f allocations for %d rows, want at most %d", join, rows, fixed+rows/64)
	}
	project := testing.AllocsPerRun(5, func() {
		if _, err := ProjectCtx(ec, joined, []string{"b", "c"}, aonet.New()); err != nil {
			t.Fatal(err)
		}
	})
	if rows := joined.Len() + proj.Len(); project > float64(fixed+rows/64) {
		t.Errorf("ProjectCtx: %.0f allocations for %d rows, want at most %d", project, rows, fixed+rows/64)
	}
	t.Logf("SafeJoinCtx %.0f allocations (%d rows out), ProjectCtx %.0f (%d rows out)", join, joined.Len(), project, proj.Len())
}

// The 10-row case is there for the small-query floor: scratch has to be
// proportional to the input, not to a chunk size.
func BenchmarkSafeJoin(b *testing.B) {
	for _, n := range []int{10, 2000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			r1, r2, _ := benchInput(b, n)
			ec := core.NewExecContext(context.Background(), core.ExecConfig{Pooling: true})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, _, err := SafeJoinCtx(ec, r1, r2, aonet.New())
				if err != nil {
					b.Fatal(err)
				}
				benchSink = out
			}
		})
	}
}

func BenchmarkProject(b *testing.B) {
	for _, n := range []int{10, 2000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			_, _, joined := benchInput(b, n)
			ec := core.NewExecContext(context.Background(), core.ExecConfig{Pooling: true})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := ProjectCtx(ec, joined, []string{"b", "c"}, aonet.New())
				if err != nil {
					b.Fatal(err)
				}
				benchSink = out
			}
		})
	}
}

var benchSink *Relation
