// Package repro holds the benchmark harness regenerating the paper's
// evaluation section: one benchmark per table and figure, plus ablations of
// the design choices called out in DESIGN.md §6.
//
// Run everything with
//
//	go test -bench=. -benchmem
//
// Benchmark sizes are reduced from the paper's (see EXPERIMENTS.md for the
// mapping and for full-scale instructions via cmd/pdbbench -scale paper);
// the comparisons preserve the paper's qualitative shapes.
package repro

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/aonet"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/inference"
	"repro/internal/pl"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/treewidth"
	"repro/internal/tuple"
	"repro/internal/workload"
)

// benchStrategies are the two systems Section 6 compares.
var benchStrategies = []core.Strategy{core.PartialLineage, core.DNFLineage}

// runSpec evaluates one generated instance once; used inside b.N loops.
func runSpec(b *testing.B, spec workload.Spec, db *relation.Database, strat core.Strategy) *engine.Result {
	b.Helper()
	plan, err := spec.Plan()
	if err != nil {
		b.Fatal(err)
	}
	res, err := engine.Evaluate(db, spec.Query(), plan, engine.Options{
		Strategy:  strat,
		Samples:   10000,
		Inference: inference.Options{MaxFactorVars: 18},
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable1 measures plan construction and safety classification for
// every Table 1 query (the catalog itself).
func BenchmarkTable1(b *testing.B) {
	for _, spec := range workload.Table1() {
		b.Run(spec.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := spec.Query()
				if q.IsHierarchical() {
					b.Fatal("Table 1 queries are unsafe")
				}
				if _, err := spec.Plan(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5 is the scalability experiment (Section 6.3): 1% offending
// tuples, every tuple uncertain, partial lineage vs the MayBMS-style DNF
// baseline, per Table 1 query.
func BenchmarkFig5(b *testing.B) {
	params := workload.Params{N: 4, M: 250, Fanout: 4, RF: 0.01, RD: 1, Seed: 1}
	for _, spec := range workload.Table1() {
		db, err := workload.GenerateFor(spec, params)
		if err != nil {
			b.Fatal(err)
		}
		for _, strat := range benchStrategies {
			b.Run(fmt.Sprintf("%s/%v", spec.Name, strat), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runSpec(b, spec, db, strat)
				}
			})
		}
	}
}

// BenchmarkFig6 varies the fraction of offending tuples r_f (Section 6.4)
// on query P1.
func BenchmarkFig6(b *testing.B) {
	spec, err := workload.SpecByName("P1")
	if err != nil {
		b.Fatal(err)
	}
	for _, rf := range []float64{0, 0.1, 0.3, 0.6, 1} {
		params := workload.Params{N: 3, M: 60, Fanout: 3, RF: rf, RD: 1, Seed: 2}
		db, err := workload.GenerateFor(spec, params)
		if err != nil {
			b.Fatal(err)
		}
		for _, strat := range benchStrategies {
			b.Run(fmt.Sprintf("rf=%g/%v", rf, strat), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runSpec(b, spec, db, strat)
				}
			})
		}
	}
}

// BenchmarkFig7 varies the fraction of deterministic tuples r_d with
// r_f = 1 (Section 6.5) on query P1.
func BenchmarkFig7(b *testing.B) {
	spec, err := workload.SpecByName("P1")
	if err != nil {
		b.Fatal(err)
	}
	for _, rd := range []float64{0, 0.1, 0.2, 0.3} {
		params := workload.Params{N: 3, M: 60, Fanout: 3, RF: 1, RD: rd, Seed: 3}
		db, err := workload.GenerateFor(spec, params)
		if err != nil {
			b.Fatal(err)
		}
		for _, strat := range benchStrategies {
			b.Run(fmt.Sprintf("rd=%g/%v", rd, strat), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					runSpec(b, spec, db, strat)
				}
			})
		}
	}
}

// BenchmarkFig1NetworkConstruction measures full intensional network
// construction for the two plans of Figure 1 (Example 3.6's query) at a
// larger domain.
func BenchmarkFig1NetworkConstruction(b *testing.B) {
	db := relation.NewDatabase()
	r := relation.New("R", "a", "b")
	s := relation.New("S", "a", "b")
	rng := rand.New(rand.NewSource(4))
	for i := 1; i <= 12; i++ {
		for j := 1; j <= 5; j++ {
			r.MustAdd(tuple.Ints(int64(i), int64(j)), rng.Float64())
			s.MustAdd(tuple.Ints(int64(i), int64(j)), rng.Float64())
		}
	}
	db.AddRelation(r)
	db.AddRelation(s)
	for _, order := range [][]string{{"R", "S"}, {"S", "R"}} {
		b.Run(fmt.Sprintf("plan=%s-first", order[0]), func(b *testing.B) {
			b.ReportAllocs()
			q := query.MustParse("q :- R(x, y), S(y, z)")
			plan, err := query.LeftDeepPlan(q, order)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := engine.Evaluate(db, q, plan, engine.Options{
					Strategy:  core.FullNetwork,
					Samples:   5000,
					Inference: inference.Options{MaxFactorVars: 16},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2Decomposition contrasts inference with and without the D(G)
// gate decomposition of Figure 2 on wide gates.
func BenchmarkFig2Decomposition(b *testing.B) {
	net := aonet.New()
	rng := rand.New(rand.NewSource(5))
	var edges []aonet.Edge
	for i := 0; i < 14; i++ {
		edges = append(edges, aonet.Edge{From: net.AddLeaf(rng.Float64()), P: rng.Float64()})
	}
	top := net.AddGate(aonet.Or, edges)
	for name, opts := range map[string]inference.Options{
		"decomposed": {},
		"raw":        {NoDecompose: true},
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := inference.Exact(net, top, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTheorem42LineageTreewidth measures the treewidth computation on
// lineages of a strictly hierarchical vs a non-strict query as instances
// grow (Theorem 4.2's separation).
func BenchmarkTheorem42LineageTreewidth(b *testing.B) {
	for _, n := range []int{8, 16} {
		b.Run(fmt.Sprintf("K%dx%d", n, n), func(b *testing.B) {
			g := treewidth.NewGraph(2 * n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					g.AddEdge(i, n+j)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ub := treewidth.UpperBound(g); ub < n {
					b.Fatalf("K_{%d,%d} treewidth bound %d", n, n, ub)
				}
			}
		})
	}
}

// BenchmarkAblationHashConsing reproduces the Section 5.4 example: with S
// deterministic and complete bipartite, hash-consing collapses every dedup
// Or gate into one shared node and keeps inference linear; without it the
// network's moralized width grows with n.
func BenchmarkAblationHashConsing(b *testing.B) {
	build := func(n int, consing bool) (final pl.Tuple, net *aonet.Network) {
		b.Helper()
		net = aonet.New()
		net.SetHashConsing(consing)
		rng := rand.New(rand.NewSource(6))
		r := &pl.Relation{Attrs: tuple.Schema{"x"}}
		s := &pl.Relation{Attrs: tuple.Schema{"x", "y"}}
		t := &pl.Relation{Attrs: tuple.Schema{"y"}}
		for i := 1; i <= n; i++ {
			r.Tuples = append(r.Tuples, pl.Tuple{Vals: tuple.Ints(int64(i)), P: rng.Float64(), Lin: aonet.Epsilon})
			t.Tuples = append(t.Tuples, pl.Tuple{Vals: tuple.Ints(int64(i)), P: rng.Float64(), Lin: aonet.Epsilon})
			for j := 1; j <= n; j++ {
				s.Tuples = append(s.Tuples, pl.Tuple{Vals: tuple.Ints(int64(i), int64(j)), P: 1, Lin: aonet.Epsilon})
			}
		}
		rs, _, err := pl.SafeJoinCtx(nil, r, s, net)
		if err != nil {
			b.Fatal(err)
		}
		proj, err := pl.ProjectCtx(nil, rs, []string{"y"}, net)
		if err != nil {
			b.Fatal(err)
		}
		rst, _, err := pl.SafeJoinCtx(nil, proj, t, net)
		if err != nil {
			b.Fatal(err)
		}
		out, err := pl.ProjectCtx(nil, rst, nil, net)
		if err != nil {
			b.Fatal(err)
		}
		if out.Len() != 1 {
			b.Fatalf("expected one Boolean answer, got %d", out.Len())
		}
		return out.Tuples[0], net
	}
	const n = 12
	var probs [2]float64
	for i, consing := range []bool{true, false} {
		name := "consing"
		if !consing {
			name = "no-consing"
		}
		idx := i
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				final, net := build(n, consing)
				res, err := inference.Exact(net, final.Lin, inference.Options{MaxFactorVars: 26})
				if err != nil {
					b.Fatal(err)
				}
				probs[idx] = final.P * res.P
			}
		})
	}
	if probs[0] != 0 && probs[1] != 0 && math.Abs(probs[0]-probs[1]) > 1e-9 {
		b.Fatalf("consing changed the answer: %g vs %g", probs[0], probs[1])
	}
}

// BenchmarkAblationConditionAll contrasts partial lineage (condition only
// offending tuples) with the full intensional network (condition all), the
// FullNetwork strategy — the paper's central claim in microcosm.
func BenchmarkAblationConditionAll(b *testing.B) {
	spec, err := workload.SpecByName("P1")
	if err != nil {
		b.Fatal(err)
	}
	params := workload.Params{N: 3, M: 120, Fanout: 3, RF: 0.05, RD: 1, Seed: 7}
	db, err := workload.GenerateFor(spec, params)
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []core.Strategy{core.PartialLineage, core.FullNetwork} {
		b.Run(strat.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runSpec(b, spec, db, strat)
			}
		})
	}
}

// BenchmarkAblationInferenceBackend compares the three exact inference
// backends on the same partial-lineage network: partial-lineage expansion +
// Shannon solver (the engine default), variable elimination with cutset
// conditioning, and junction-tree message passing (the Theorem 5.17 shape).
func BenchmarkAblationInferenceBackend(b *testing.B) {
	spec, err := workload.SpecByName("P1")
	if err != nil {
		b.Fatal(err)
	}
	params := workload.Params{N: 1, M: 150, Fanout: 3, RF: 0.15, RD: 1, Seed: 10}
	db, err := workload.GenerateFor(spec, params)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := spec.Plan()
	if err != nil {
		b.Fatal(err)
	}
	res, err := engine.Evaluate(db, spec.Query(), plan, engine.Options{
		Strategy:      core.PartialLineage,
		SkipInference: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Recover the answer's lineage node: rebuild with inference enabled once
	// to locate it, then benchmark the backends directly on the network.
	full, err := engine.Evaluate(db, spec.Query(), plan, engine.Options{Strategy: core.PartialLineage})
	if err != nil {
		b.Fatal(err)
	}
	if full.Stats.Approximate {
		b.Fatal("instance unexpectedly intractable")
	}
	net := res.Net
	// The final dedup node is the last Or gate added to the network.
	var target aonet.NodeID = -1
	for v := net.Len() - 1; v >= 0; v-- {
		if net.Label(aonet.NodeID(v)) == aonet.Or {
			target = aonet.NodeID(v)
			break
		}
	}
	if target < 0 {
		b.Fatal("no Or node in network")
	}
	var ref float64
	b.Run("expansion", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := inference.ExactViaExpansion(net, target, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			ref = p
		}
	})
	b.Run("ve-conditioning", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := inference.Exact(net, target, inference.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if ref != 0 && math.Abs(r.P-ref) > 1e-9 {
				b.Fatalf("backends disagree: %g vs %g", r.P, ref)
			}
		}
	})
	b.Run("junction-tree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := inference.ExactJT(net, target, inference.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if ref != 0 && math.Abs(r.P-ref) > 1e-9 {
				b.Fatalf("backends disagree: %g vs %g", r.P, ref)
			}
		}
	})
}

// BenchmarkAblationPlanChoice quantifies data-aware plan selection: on an
// instance where one join direction follows a satisfied functional
// dependency and the other violates it, the optimizer's order evaluates
// with zero symbolic work while the bad order conditions hundreds of
// tuples.
func BenchmarkAblationPlanChoice(b *testing.B) {
	db := relation.NewDatabase()
	ra := relation.New("A", "x")
	rb := relation.New("B", "x", "y")
	rc := relation.New("C", "y")
	rng := rand.New(rand.NewSource(11))
	for x := int64(1); x <= 300; x++ {
		ra.MustAdd(tuple.Ints(x), rng.Float64())
		rb.MustAdd(tuple.Ints(x, x%20), rng.Float64()) // x→y holds, y→x violated
	}
	for y := int64(0); y < 20; y++ {
		rc.MustAdd(tuple.Ints(y), rng.Float64())
	}
	db.AddRelation(ra)
	db.AddRelation(rb)
	db.AddRelation(rc)
	q := query.MustParse("q :- A(x), B(x, y), C(y)")
	best, _, err := planner.Choose(db, q, planner.Options{})
	if err != nil {
		b.Fatal(err)
	}
	bad, err := query.LeftDeepPlan(q, []string{"C", "B", "A"})
	if err != nil {
		b.Fatal(err)
	}
	for name, plan := range map[string]*query.Plan{"optimized": best.Plan, "pessimal": bad} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Evaluate(db, q, plan, engine.Options{
					Strategy: core.PartialLineage,
					Samples:  10000,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationOrdering compares the min-fill and min-degree
// elimination heuristics inside exact inference.
func BenchmarkAblationOrdering(b *testing.B) {
	net := aonet.New()
	rng := rand.New(rand.NewSource(8))
	var layer []aonet.NodeID
	for i := 0; i < 30; i++ {
		layer = append(layer, net.AddLeaf(rng.Float64()))
	}
	for l := 0; l < 3; l++ {
		var next []aonet.NodeID
		for i := 0; i+1 < len(layer); i += 2 {
			lab := aonet.Or
			if rng.Intn(2) == 0 {
				lab = aonet.And
			}
			next = append(next, net.AddGate(lab, []aonet.Edge{
				{From: layer[i], P: rng.Float64()},
				{From: layer[i+1], P: rng.Float64()},
				{From: layer[rng.Intn(len(layer))], P: rng.Float64()},
			}))
		}
		layer = next
	}
	target := layer[0]
	for _, h := range []treewidth.Heuristic{treewidth.MinFill, treewidth.MinDegree} {
		b.Run(h.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := inference.Exact(net, target, inference.Options{Heuristic: h}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAncestorPrune measures the effect of restricting
// inference to the queried node's ancestors.
func BenchmarkAblationAncestorPrune(b *testing.B) {
	net := aonet.New()
	rng := rand.New(rand.NewSource(9))
	target := net.AddGate(aonet.Or, []aonet.Edge{
		{From: net.AddLeaf(0.4), P: 0.7},
		{From: net.AddLeaf(0.6), P: 0.9},
	})
	// A large unrelated region that pruning skips.
	for i := 0; i < 200; i++ {
		net.AddGate(aonet.Or, []aonet.Edge{{From: net.AddLeaf(rng.Float64()), P: rng.Float64()}})
	}
	for name, opts := range map[string]inference.Options{
		"pruned":   {},
		"unpruned": {NoAncestorPrune: true},
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := inference.Exact(net, target, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
