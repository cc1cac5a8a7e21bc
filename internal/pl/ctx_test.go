package pl

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/aonet"
	"repro/internal/core"
	"repro/internal/tuple"
)

// Tests for the operators' ExecContext behaviour: a Parallelism grant must
// not change a single byte (networks compared through aonet's canonical
// encoding), and cancellation/budget errors must surface promptly.

// randomWideRelation builds a relation a few hundred rows wide, with a small
// key domain in column 0 so joins fan out and dedup groups collide, and a
// mix of trivial and symbolic lineages so And/Or gates are actually
// allocated.
func randomWideRelation(rng *rand.Rand, net *aonet.Network, attrs tuple.Schema, n, keyDomain int) *Relation {
	leaves := make([]aonet.NodeID, 16)
	for i := range leaves {
		leaves[i] = net.AddLeaf(rng.Float64())
	}
	r := &Relation{Attrs: attrs}
	for i := 0; i < n; i++ {
		vals := make(tuple.Tuple, len(attrs))
		vals[0] = tuple.Int(int64(rng.Intn(keyDomain)))
		for j := 1; j < len(vals); j++ {
			vals[j] = tuple.Int(int64(rng.Intn(64)))
		}
		t := Tuple{Vals: vals, P: rng.Float64(), Lin: aonet.Epsilon}
		if rng.Intn(2) == 0 {
			t.Lin = leaves[rng.Intn(len(leaves))]
		}
		if rng.Intn(5) == 0 {
			t.P = 1
		}
		r.Tuples = append(r.Tuples, t)
	}
	return r
}

func encodeNet(t *testing.T, net *aonet.Network) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := net.Encode(&b); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return b.Bytes()
}

func sameRelation(a, b *Relation) bool {
	if len(a.Attrs) != len(b.Attrs) || a.Len() != b.Len() {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Tuples {
		x, y := a.Tuples[i], b.Tuples[i]
		if !x.Vals.Equal(y.Vals) || x.P != y.P || x.Lin != y.Lin {
			return false
		}
	}
	return true
}

func parallelEC(workers int) *core.ExecContext {
	return core.NewExecContext(context.Background(), core.ExecConfig{Parallelism: workers})
}

// TestQuickSafeJoinCtxIdentical: the full conditioned join (cSets,
// conditioning order and the join itself) ignores the Parallelism grant.
func TestQuickSafeJoinCtxIdentical(t *testing.T) {
	run := func(seed int64, ec *core.ExecContext) (*Relation, int, []byte, error) {
		rng := rand.New(rand.NewSource(seed))
		net := aonet.New()
		r1 := randomWideRelation(rng, net, tuple.Schema{"a", "b"}, 150, 30)
		r2 := randomWideRelation(rng, net, tuple.Schema{"a", "c"}, 150, 30)
		out, cond, err := SafeJoinCtx(ec, r1, r2, net)
		if err != nil {
			return nil, 0, nil, err
		}
		return out, cond, encodeNet(t, net), nil
	}
	f := func(seed int64) bool {
		serial, condS, serialNet, err := run(seed, nil)
		if err != nil {
			t.Logf("serial SafeJoin: %v", err)
			return false
		}
		par, condP, parNet, err := run(seed, parallelEC(4))
		if err != nil {
			t.Logf("parallel SafeJoin: %v", err)
			return false
		}
		return condS == condP && sameRelation(serial, par) && bytes.Equal(serialNet, parNet)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestJoinCtxCancellation: a cancelled context surfaces as context.Canceled
// from the join, with or without a Parallelism grant, within one check
// interval (the inputs are a few check intervals long, so the poll must
// fire).
func TestJoinCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := aonet.New()
	r1 := randomWideRelation(rng, net, tuple.Schema{"a", "b"}, 4*core.CheckInterval, 40)
	r2 := randomWideRelation(rng, net, tuple.Schema{"a", "c"}, 4*core.CheckInterval, 40)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ec := core.NewExecContext(ctx, core.ExecConfig{Parallelism: workers})
		if _, err := JoinCtx(ec, r1, r2, net); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: JoinCtx err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestDedupCtxCancellation: same for Dedup.
func TestDedupCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := aonet.New()
	r := randomWideRelation(rng, net, tuple.Schema{"a", "b"}, 4*core.CheckInterval, 20)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ec := core.NewExecContext(ctx, core.ExecConfig{Parallelism: workers})
		if _, err := DedupCtx(ec, r, net); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: DedupCtx err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestJoinCtxRowBudget: a join that would emit more rows than the budget
// fails with ErrRowBudget instead of materializing the blow-up.
func TestJoinCtxRowBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := aonet.New()
	r1 := randomWideRelation(rng, net, tuple.Schema{"a", "b"}, 2000, 4)
	r2 := randomWideRelation(rng, net, tuple.Schema{"a", "c"}, 2000, 4)
	ec := core.NewExecContext(context.Background(), core.ExecConfig{Budget: core.Budget{Rows: 100}})
	if _, err := JoinCtx(ec, r1, r2, net); !errors.Is(err, core.ErrRowBudget) {
		t.Errorf("JoinCtx err = %v, want ErrRowBudget", err)
	}
}

// TestDedupCtxNodeBudget: Or-node growth during dedup is charged against the
// node budget.
func TestDedupCtxNodeBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := aonet.New()
	r := randomWideRelation(rng, net, tuple.Schema{"a"}, 400, 8)
	ec := core.NewExecContext(context.Background(), core.ExecConfig{Budget: core.Budget{Nodes: 2}})
	if _, err := DedupCtx(ec, r, net); !errors.Is(err, core.ErrNodeBudget) {
		t.Errorf("DedupCtx err = %v, want ErrNodeBudget", err)
	}
}

// TestSelectCtxCancellation: even the cheapest operator polls the context.
func TestSelectCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := aonet.New()
	r := randomWideRelation(rng, net, tuple.Schema{"a"}, 2*core.CheckInterval, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ec := core.NewExecContext(ctx, core.ExecConfig{})
	_, err := SelectCtx(ec, r, func(tuple.Tuple) bool { return true })
	if !errors.Is(err, context.Canceled) {
		t.Errorf("SelectCtx err = %v, want context.Canceled", err)
	}
}
