package crosscheck

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/pdb"
)

// TestMemoBitIdentical sweeps seeded random instances and asserts that every
// exact strategy computes bit-identical answer probabilities with the
// shared memo tables on and off — memoization is pure work-avoidance, so the
// comparison is to ±0, not to a tolerance. Both serial and parallel
// evaluations are held to it. (NoCons is deliberately not compared this way
// — disabling hash-consing changes the network *shape*, which is a benchmark
// dimension, not an equivalence. Pooled against unpooled scratch is
// pl.TestPoolingByteIdentical.)
func TestMemoBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		in := Generate(seed, GenConfig{})
		db, err := toPDB(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		q, err := pdb.ParseQuery(in.Q.String())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, s := range ExactStrategies() {
			for _, par := range []int{0, 4} {
				base := pdb.Options{Strategy: s, Parallelism: par, NoFallback: true}
				ref, errRef := db.Evaluate(q, base)
				opts := base
				opts.NoMemo = true
				got, errGot := db.Evaluate(q, opts)
				if (errRef == nil) != (errGot == nil) {
					t.Fatalf("seed %d strategy %v par %d no-memo: outcome changed: %v vs %v",
						seed, s, par, errRef, errGot)
				}
				if errRef != nil {
					continue // e.g. safe declining a non-data-safe instance
				}
				if len(ref.Rows) != len(got.Rows) {
					t.Fatalf("seed %d strategy %v par %d no-memo: answer count %d vs %d",
						seed, s, par, len(ref.Rows), len(got.Rows))
				}
				for _, row := range ref.Rows {
					if p := got.Prob(row.Vals...); p != row.P {
						t.Fatalf("seed %d strategy %v par %d no-memo: answer %v: %v vs %v (must be bit-identical)",
							seed, s, par, row.Vals, row.P, p)
					}
				}
			}
		}
	}
}

// TestKarpLubySeedReproducibleWithMemo: the sampler's answer is a function
// of the seed alone — repeated runs, memo-ablated runs and parallel runs all
// reproduce it bit for bit.
func TestKarpLubySeedReproducibleWithMemo(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		in := Generate(seed, GenConfig{})
		db, err := toPDB(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		q, err := pdb.ParseQuery(in.Q.String())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		base := pdb.Options{Strategy: core.MonteCarlo, Seed: seed, Samples: 500}
		ref, err := db.Evaluate(q, base)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		variants := []pdb.Options{
			base, // plain repeat
			{Strategy: core.MonteCarlo, Seed: seed, Samples: 500, NoMemo: true},
			{Strategy: core.MonteCarlo, Seed: seed, Samples: 500, Parallelism: 4},
		}
		for i, opts := range variants {
			got, err := db.Evaluate(q, opts)
			if err != nil {
				t.Fatalf("seed %d variant %d: %v", seed, i, err)
			}
			for _, row := range ref.Rows {
				if p := got.Prob(row.Vals...); p != row.P {
					t.Fatalf("seed %d variant %d: answer %v: %v vs %v (same seed must be bit-identical)",
						seed, i, row.Vals, row.P, p)
				}
			}
		}
	}
}

// TestServedCacheHitMatchesCold extends the served-vs-direct oracle to the
// result cache: the same sweep posted twice against one server — the second
// pass served from cache — must match direct evaluation both times.
func TestServedCacheHitMatchesCold(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 20; seed++ {
		in := Generate(seed, GenConfig{})
		ts := serveFor(t, in)
		for pass := 0; pass < 2; pass++ {
			rep, err := CheckServed(ctx, in, ts.URL, Options{Samples: 2000, Seed: seed})
			if err != nil {
				t.Fatalf("seed %d pass %d: %v\ninstance:\n%s", seed, pass, err, in)
			}
			if rep.Failed() {
				t.Fatalf("seed %d pass %d: served diverged: %v\ninstance:\n%s",
					seed, pass, rep.Divergences[0], in)
			}
		}
		ts.Close()
	}
}

// maskRunState strips what belongs to the run rather than to the evaluation —
// wall-clock measurements, and which tier of the planning cache answered
// (the first run fills it, the second hits it) — so that two runs of the
// same evaluation can be compared byte for byte. The plan itself stays in.
func maskRunState(tr *obs.Trace) {
	tr.PlanTime, tr.InferenceTime = 0, 0
	tr.PlanCache = ""
	var walk func([]*obs.Span)
	walk = func(spans []*obs.Span) {
		for _, sp := range spans {
			sp.Time = 0
			walk(sp.Children)
		}
	}
	walk(tr.Roots)
}

// TestTraceDeterministicWithMemo is the map-iteration-order regression
// check: two same-seed evaluations with memoization on must produce
// byte-identical execution traces (wall times masked) — any nondeterministic
// iteration over a memo table or pooled map would scramble span order,
// network growth attribution or answer ordering.
func TestTraceDeterministicWithMemo(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		in := Generate(seed, GenConfig{})
		db, err := toPDB(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		q, err := pdb.ParseQuery(in.Q.String())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, s := range []core.Strategy{core.PartialLineage, core.FullNetwork, core.DNFLineage} {
			for _, par := range []int{0, 4} {
				render := func() []byte {
					res, err := db.Evaluate(q, pdb.Options{Strategy: s, Parallelism: par, Trace: true, NoFallback: true})
					if err != nil {
						t.Fatalf("seed %d strategy %v par %d: %v", seed, s, par, err)
					}
					tr := res.Trace()
					maskRunState(tr)
					data, err := json.Marshal(tr)
					if err != nil {
						t.Fatal(err)
					}
					return data
				}
				first := render()
				if second := render(); string(first) != string(second) {
					t.Fatalf("seed %d strategy %v par %d: trace not deterministic:\n%s\nvs\n%s",
						seed, s, par, first, second)
				}
			}
		}
	}
}
