package pl

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/aonet"
	"repro/internal/core"
	"repro/internal/tuple"
)

// The memory-adversarial tier: the spill paths must be byte-identical to the
// in-memory operators at every budget — unlimited, 75%, 25% of the measured
// working set, and the one-byte floor — and the charged-bytes peak must track
// the budget (peak <= budget + slack, where slack is the largest single
// charge the pipeline can make: one dedup group record).

func memEC(mem int64) *core.ExecContext {
	return core.NewExecContext(context.Background(), core.ExecConfig{Budget: core.Budget{Mem: mem}})
}

// spillPipeline runs the canonical grounding pipeline — conditioned join then
// projection — under the given memory budget (0 = legacy in-memory paths)
// with inputs regenerated from the seed, and returns the result, the
// network's canonical encoding, and the ExecContext for its accounting.
func spillPipeline(t *testing.T, seed int64, mem int64) (*Relation, *Relation, []byte, *core.ExecContext, error) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := aonet.New()
	r1 := randomWideRelation(rng, net, tuple.Schema{"a", "b"}, 90+rng.Intn(80), 8+rng.Intn(20))
	r2 := randomWideRelation(rng, net, tuple.Schema{"a", "c"}, 90+rng.Intn(80), 8+rng.Intn(20))
	ec := memEC(mem)
	joined, _, err := SafeJoinCtx(ec, r1, r2, net)
	if err != nil {
		return nil, nil, nil, ec, err
	}
	proj, err := ProjectCtx(ec, joined, []string{"b"}, net)
	if err != nil {
		return nil, nil, nil, ec, err
	}
	return joined, proj, encodeNet(t, net), ec, nil
}

// spillSlack returns the pipeline's irreducible budget overshoot on this
// data — the floor formula of docs/SPILL.md: the largest single group record
// (one whole group entering the group buffer in one charge) plus the largest
// recursion-capped sub-partition group table (a sub-partition at the dedup
// recursion cap is grouped in memory regardless of the budget). Every other
// charge is per-entry and small.
func spillSlack(joined *Relation) int64 {
	ind, err := IndProjectCtx(nil, joined, []string{"b"})
	if err != nil {
		return 0
	}
	counts := make(map[string]int)
	bytesOf := make(map[string]int64)
	hashOf := make(map[string]uint64)
	for _, tp := range ind.Tuples {
		k := tp.Vals.Key()
		counts[k]++
		hashOf[k] = tp.Vals.HashAt(positions(len(tp.Vals)))
		if _, ok := bytesOf[k]; !ok {
			var vb int64
			for _, v := range tp.Vals {
				vb += approxValueBytes(v)
			}
			bytesOf[k] = vb
		}
	}
	var maxGroup int64
	bins := make(map[[3]int]int64)
	for k, n := range counts {
		group := 48 + 16*int64(n) + bytesOf[k]
		if group > maxGroup {
			maxGroup = group
		}
		// A key's recursion-capped bin: level-0 partition, then the two
		// salted sub-splits. Its at-cap table entry mirrors the charges of
		// dedupGroupPartition: the group header plus one edge per member.
		bin := [3]int{
			hashPart(hashOf[k], spillFanout, 0),
			hashPart(hashOf[k], dedupSubFanout, 1),
			hashPart(hashOf[k], dedupSubFanout, 2),
		}
		bins[bin] += 56 + (40 + bytesOf[k]) + 16*int64(n)
	}
	var maxBin int64
	for _, b := range bins {
		if b > maxBin {
			maxBin = b
		}
	}
	return maxGroup + maxBin
}

// TestSpillPropertyIdentical is the memory-adversarial property suite: 200
// seeded random pipelines, each run at MemBudget ∈ {in-memory, effectively
// unlimited, 75% of peak, 25% of peak, floor}, asserting bit-identical
// results (relations and network encodings, node IDs included), that
// constrained budgets actually spill, and that the charged-bytes peak stays
// within budget + slack at the fractional budgets.
func TestSpillPropertyIdentical(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	spilledSomewhere := false
	for seed := int64(0); seed < int64(seeds); seed++ {
		refJoin, refProj, refNet, _, err := spillPipeline(t, seed, 0)
		if err != nil {
			t.Fatalf("seed %d: in-memory pipeline: %v", seed, err)
		}
		// An effectively unlimited budget exercises the spill operators with
		// everything resident; its peak is the pipeline's working set.
		_, _, _, big, err := spillPipeline(t, seed, 1<<40)
		if err != nil {
			t.Fatalf("seed %d: unbounded spill pipeline: %v", seed, err)
		}
		peak := big.MemPeakBytes()
		if peak <= 0 {
			t.Fatalf("seed %d: no memory charged by spill pipeline", seed)
		}
		slack := 512 + spillSlack(refJoin)
		budgets := []struct {
			mem       int64
			checkPeak bool
		}{
			{1 << 40, false},
			{maxInt64(1, peak*3/4), true},
			{maxInt64(1, peak/4), true},
			{1, false}, // floor: identical output; peak bounded by data, not budget
		}
		for _, b := range budgets {
			j, p, n, ec, err := spillPipeline(t, seed, b.mem)
			if err != nil {
				t.Fatalf("seed %d mem=%d: %v", seed, b.mem, err)
			}
			if !sameRelation(refJoin, j) || !sameRelation(refProj, p) || !bytes.Equal(refNet, n) {
				t.Fatalf("seed %d mem=%d: spill pipeline diverged from in-memory", seed, b.mem)
			}
			if b.checkPeak && ec.MemPeakBytes() > b.mem+slack {
				t.Fatalf("seed %d mem=%d: peak %d exceeds budget+slack %d",
					seed, b.mem, ec.MemPeakBytes(), b.mem+slack)
			}
			if b.mem == 1 && ec.SpilledPartitions() == 0 {
				t.Fatalf("seed %d: floor budget run spilled no partitions", seed)
			}
			if ec.SpilledPartitions() > 0 {
				spilledSomewhere = true
				if ec.SpillBytes() <= 0 {
					t.Fatalf("seed %d mem=%d: spilled %d partitions but recorded no spill bytes",
						seed, b.mem, ec.SpilledPartitions())
				}
			}
			if ec.MemCharged() != 0 {
				t.Fatalf("seed %d mem=%d: %d bytes still charged after pipeline completed",
					seed, b.mem, ec.MemCharged())
			}
		}
	}
	if !spilledSomewhere {
		t.Fatal("no run spilled — the adversarial tier exercised nothing")
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestSpillPooledIdentical: the spill paths draw group tables from the
// scratch pools like the in-memory paths; pooling must not perturb results.
func TestSpillPooledIdentical(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		refJoin, refProj, refNet, _, err := spillPipeline(t, seed, 0)
		if err != nil {
			t.Fatalf("seed %d: in-memory pipeline: %v", seed, err)
		}
		for pass := 0; pass < 2; pass++ {
			rng := rand.New(rand.NewSource(seed))
			net := aonet.New()
			r1 := randomWideRelation(rng, net, tuple.Schema{"a", "b"}, 90+rng.Intn(80), 8+rng.Intn(20))
			r2 := randomWideRelation(rng, net, tuple.Schema{"a", "c"}, 90+rng.Intn(80), 8+rng.Intn(20))
			ec := core.NewExecContext(context.Background(), core.ExecConfig{
				Budget:  core.Budget{Mem: 4096},
				Pooling: true,
			})
			joined, _, err := SafeJoinCtx(ec, r1, r2, net)
			if err != nil {
				t.Fatalf("seed %d pass %d: %v", seed, pass, err)
			}
			proj, err := ProjectCtx(ec, joined, []string{"b"}, net)
			if err != nil {
				t.Fatalf("seed %d pass %d: %v", seed, pass, err)
			}
			if !sameRelation(refJoin, joined) || !sameRelation(refProj, proj) || !bytes.Equal(refNet, encodeNet(t, net)) {
				t.Fatalf("seed %d pass %d: pooled spill run diverged", seed, pass)
			}
			if got := PoolCheckouts(); got != 0 {
				t.Fatalf("seed %d pass %d: %d pooled objects still checked out", seed, pass, got)
			}
		}
	}
}

// TestSpillFaultInjection: an injected temp-file write failure surfaces as a
// typed ErrSpill — never a corrupt result — from both the join and the dedup
// spill paths.
func TestSpillFaultInjection(t *testing.T) {
	defer FailSpillAfter(0)
	rng := rand.New(rand.NewSource(42))
	net := aonet.New()
	r1 := randomWideRelation(rng, net, tuple.Schema{"a", "b"}, 300, 12)
	r2 := randomWideRelation(rng, net, tuple.Schema{"a", "c"}, 300, 12)

	FailSpillAfter(1)
	_, err := JoinCtx(memEC(1), r1, r2, net)
	if !errors.Is(err, ErrSpill) {
		t.Fatalf("join with injected fault: err = %v, want ErrSpill", err)
	}

	FailSpillAfter(1)
	_, err = DedupCtx(memEC(1), r1, net)
	if !errors.Is(err, ErrSpill) {
		t.Fatalf("dedup with injected fault: err = %v, want ErrSpill", err)
	}

	// Disarmed, the same pipelines succeed and match the in-memory result.
	FailSpillAfter(0)
	rng = rand.New(rand.NewSource(42))
	netRef := aonet.New()
	p1 := randomWideRelation(rng, netRef, tuple.Schema{"a", "b"}, 300, 12)
	p2 := randomWideRelation(rng, netRef, tuple.Schema{"a", "c"}, 300, 12)
	ref, err := JoinCtx(nil, p1, p2, netRef)
	if err != nil {
		t.Fatalf("reference join: %v", err)
	}
	rng = rand.New(rand.NewSource(42))
	net2 := aonet.New()
	q1 := randomWideRelation(rng, net2, tuple.Schema{"a", "b"}, 300, 12)
	q2 := randomWideRelation(rng, net2, tuple.Schema{"a", "c"}, 300, 12)
	got, err := JoinCtx(memEC(1), q1, q2, net2)
	if err != nil {
		t.Fatalf("spill join after disarm: %v", err)
	}
	if !sameRelation(ref, got) {
		t.Fatal("spill join after disarm diverged from in-memory join")
	}
}

// TestSpillFaultInjectionCountdown: FailSpillAfter(n) fails exactly the n-th
// write, so a fault can be planted deep inside a long spill run.
func TestSpillFaultInjectionCountdown(t *testing.T) {
	defer FailSpillAfter(0)
	FailSpillAfter(3)
	if err := spillWriteGate(); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if err := spillWriteGate(); err != nil {
		t.Fatalf("write 2: %v", err)
	}
	if err := spillWriteGate(); !errors.Is(err, ErrSpill) {
		t.Fatalf("write 3: err = %v, want ErrSpill", err)
	}
	if err := spillWriteGate(); err != nil {
		t.Fatalf("write 4 (after injection): %v", err)
	}
}

// TestSpillCancellation: cancellation surfaces promptly from the spill paths
// too, with all charged memory released on the way out.
func TestSpillCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := aonet.New()
	r1 := randomWideRelation(rng, net, tuple.Schema{"a", "b"}, 4*core.CheckInterval, 40)
	r2 := randomWideRelation(rng, net, tuple.Schema{"a", "c"}, 4*core.CheckInterval, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ec := core.NewExecContext(ctx, core.ExecConfig{Budget: core.Budget{Mem: 1}})
	if _, err := JoinCtx(ec, r1, r2, net); !errors.Is(err, context.Canceled) {
		t.Errorf("spill join: err = %v, want context.Canceled", err)
	}
	if got := ec.MemCharged(); got != 0 {
		t.Errorf("spill join: %d bytes still charged after cancellation", got)
	}
	ec = core.NewExecContext(ctx, core.ExecConfig{Budget: core.Budget{Mem: 1}})
	if _, err := DedupCtx(ec, r1, net); !errors.Is(err, context.Canceled) {
		t.Errorf("spill dedup: err = %v, want context.Canceled", err)
	}
	if got := ec.MemCharged(); got != 0 {
		t.Errorf("spill dedup: %d bytes still charged after cancellation", got)
	}
}

// TestSpillRowBudget: the row budget still binds under spill execution.
func TestSpillRowBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := aonet.New()
	r1 := randomWideRelation(rng, net, tuple.Schema{"a", "b"}, 2000, 4)
	r2 := randomWideRelation(rng, net, tuple.Schema{"a", "c"}, 2000, 4)
	ec := core.NewExecContext(context.Background(), core.ExecConfig{
		Budget: core.Budget{Rows: 100, Mem: 4096},
	})
	if _, err := JoinCtx(ec, r1, r2, net); !errors.Is(err, core.ErrRowBudget) {
		t.Errorf("spill join: err = %v, want ErrRowBudget", err)
	}
}

// TestSpillTracePartitions: with tracing enabled, the spill operators emit
// one sub-span per partition with the spill kinds.
func TestSpillTracePartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := aonet.New()
	r1 := randomWideRelation(rng, net, tuple.Schema{"a", "b"}, 200, 16)
	r2 := randomWideRelation(rng, net, tuple.Schema{"a", "c"}, 200, 16)
	ec := core.NewExecContext(context.Background(), core.ExecConfig{
		Budget: core.Budget{Mem: 2048},
		Trace:  true,
	})
	joined, err := JoinCtx(ec, r1, r2, net)
	if err != nil {
		t.Fatalf("spill join: %v", err)
	}
	if _, err := DedupCtx(ec, joined, net); err != nil {
		t.Fatalf("spill dedup: %v", err)
	}
	kinds := make(map[string]int)
	for _, op := range ec.Ops() {
		kinds[op.Kind]++
	}
	if kinds["join.spill"] != spillFanout {
		t.Errorf("join.spill sub-spans = %d, want %d", kinds["join.spill"], spillFanout)
	}
	if kinds["project.spill"] != spillFanout {
		t.Errorf("project.spill sub-spans = %d, want %d", kinds["project.spill"], spillFanout)
	}
}

// TestSpillReadFault: a spill file that comes back short surfaces as a typed
// ErrSpill from the buffer's iterator, for every record kind, and closing
// the buffer leaves nothing charged.
func TestSpillReadFault(t *testing.T) {
	vals := tuple.Tuple{tuple.Int(-7), tuple.String("spill"), tuple.Float(0.25)}
	edges := []aonet.Edge{{From: 3, P: 0.5}, {From: 9, P: 0.75}}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"index", func(t *testing.T) { truncatedReadCase(t, indexCodec, []int32{1, 300, 70000}) }},
		{"pair", func(t *testing.T) { truncatedReadCase(t, pairCodec, []pairRec{{1, 2}, {3, 400}, {5, 70000}}) }},
		{"tuple", func(t *testing.T) {
			truncatedReadCase(t, tupleCodec, []tupleRec{{0, Tuple{Vals: vals, P: 0.5, Lin: 4}}, {1, Tuple{Vals: vals, P: 1}}})
		}},
		{"group", func(t *testing.T) {
			truncatedReadCase(t, groupCodec, []groupRec{{0, vals, edges}, {2, vals, edges}})
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

func truncatedReadCase[R any](t *testing.T, c *recCodec[R], recs []R) {
	ec := memEC(1)
	b := newSpillBuf(ec, c)
	for _, r := range recs {
		if err := b.add(r); err != nil {
			t.Fatalf("add: %v", err)
		}
	}
	if err := b.flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if b.file == nil {
		t.Fatal("buffer did not spill at a one-byte budget")
	}
	if err := b.file.w.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := b.file.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if err := b.file.f.Truncate(st.Size() - 1); err != nil {
		t.Fatal(err)
	}
	it, err := b.iter()
	if err != nil {
		t.Fatalf("iter: %v", err)
	}
	n := 0
	for {
		_, ok, err := it.next()
		if err != nil {
			if !errors.Is(err, ErrSpill) {
				t.Errorf("err = %v, want ErrSpill", err)
			}
			break
		}
		if !ok {
			t.Errorf("truncated stream ended cleanly after %d of %d records", n, len(recs))
			break
		}
		n++
	}
	it.close()
	if got := ec.MemCharged(); got != 0 {
		t.Errorf("%d bytes still charged after close", got)
	}
}
