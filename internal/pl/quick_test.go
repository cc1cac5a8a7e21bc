package pl

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tuple"
)

// Property-based checks (testing/quick) over the pL operator algebra.

// TestQuickProjectIdempotent: projecting twice onto the same columns equals
// projecting once (Dedup output has distinct values and certain groups).
func TestQuickProjectIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, r := randomPLRelation(rng, 2)
		once, err := ProjectCtx(nil, r, []string{r.Attrs[0]}, net)
		if err != nil {
			return false
		}
		twice, err := ProjectCtx(nil, once, []string{r.Attrs[0]}, net)
		if err != nil {
			return false
		}
		if once.Len() != twice.Len() {
			return false
		}
		for i := range once.Tuples {
			a, b := once.Tuples[i], twice.Tuples[i]
			if !a.Vals.Equal(b.Vals) || a.P != b.P || a.Lin != b.Lin {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickSelectPartition: a selection and its complement partition the
// relation.
func TestQuickSelectPartition(t *testing.T) {
	f := func(seed int64, pivot int8) bool {
		rng := rand.New(rand.NewSource(seed))
		_, r := randomPLRelation(rng, 1)
		pred := func(v tuple.Tuple) bool { return v[0].AsInt() <= int64(pivot%3) }
		yes, err := SelectCtx(nil, r, pred)
		if err != nil {
			return false
		}
		no, err := SelectCtx(nil, r, func(v tuple.Tuple) bool { return !pred(v) })
		if err != nil {
			return false
		}
		return yes.Len()+no.Len() == r.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickCondIdempotent: conditioning the same tuple twice changes
// nothing after the first time (p becomes 1, so Cond is a no-op).
func TestQuickCondIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, r := randomPLRelation(rng, 1)
		i := rng.Intn(r.Len())
		Cond(r, i, net)
		nodes := net.Len()
		lin := r.Tuples[i].Lin
		Cond(r, i, net)
		return net.Len() == nodes && r.Tuples[i].Lin == lin && r.Tuples[i].P == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickDistributionMass: every pL-relation's represented distribution
// sums to one.
func TestQuickDistributionMass(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, r := randomPLRelation(rng, 2)
		dist, err := Distribution(r, net)
		if err != nil {
			return false
		}
		total := 0.0
		for _, p := range dist {
			total += p
		}
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickSafeJoinMass: the distribution represented by a conditioned join
// also sums to one (closure of the representation, Prop. 5.7).
func TestQuickSafeJoinMass(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, r1, r2 := randomPLPair(rng)
		joined, _, err := SafeJoinCtx(nil, r1, r2, net)
		if err != nil {
			return false
		}
		if err := joined.Validate(net); err != nil {
			return false
		}
		dist, err := Distribution(joined, net)
		if err != nil {
			return false
		}
		total := 0.0
		for _, p := range dist {
			total += p
		}
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickDedupPreservesMarginals: each distinct value's marginal presence
// probability is unchanged by deduplication.
func TestQuickDedupPreservesMarginals(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, r := randomPLRelation(rng, 1)
		before, err := MarginalProb(r, net)
		if err != nil {
			return false
		}
		d, err := DedupCtx(nil, r, net)
		if err != nil {
			return false
		}
		after, err := MarginalProb(d, net)
		if err != nil {
			return false
		}
		for k, want := range before {
			if math.Abs(after[k]-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
