package pl

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"repro/internal/aonet"
	"repro/internal/core"
	"repro/internal/tuple"
)

// TestPoolingByteIdentical: Join and Dedup through pooled scratch tables
// produce the same relation and the same network as plain allocation, across
// repeated runs (so later runs actually draw reused maps from the pools).
func TestPoolingByteIdentical(t *testing.T) {
	run := func(seed int64, ec *core.ExecContext) (*Relation, *Relation, []byte, error) {
		rng := rand.New(rand.NewSource(seed))
		net := aonet.New()
		r1 := randomWideRelation(rng, net, tuple.Schema{"a", "b"}, 300, 30)
		r2 := randomWideRelation(rng, net, tuple.Schema{"a", "c"}, 300, 30)
		joined, err := JoinCtx(ec, r1, r2, net)
		if err != nil {
			return nil, nil, nil, err
		}
		dedup, err := DedupCtx(ec, joined, net)
		if err != nil {
			return nil, nil, nil, err
		}
		return joined, dedup, encodeNet(t, net), nil
	}
	for seed := int64(0); seed < 6; seed++ {
		refJoin, refDedup, refNet, err := run(seed, nil)
		if err != nil {
			t.Fatalf("seed %d: unpooled run: %v", seed, err)
		}
		// Two passes: the second one reuses maps the first one returned to
		// the pools.
		for pass := 0; pass < 2; pass++ {
			ec := core.NewExecContext(context.Background(), core.ExecConfig{Pooling: true})
			j, d, n, err := run(seed, ec)
			if err != nil {
				t.Fatalf("seed %d pass %d: pooled run: %v", seed, pass, err)
			}
			if !sameRelation(refJoin, j) || !sameRelation(refDedup, d) || !bytes.Equal(refNet, n) {
				t.Errorf("seed %d pass %d: pooled run diverged from unpooled", seed, pass)
			}
		}
	}
}
