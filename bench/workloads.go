package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/lineage"
	"repro/internal/relation"
	gen "repro/internal/workload"
	"repro/pdb"
)

// config is what one run of one workload is given.
type config struct {
	seed int64
	// seconds is the length of the measured window. With trace on, the
	// untraced window and the traced pass get half of it each.
	seconds float64
	trace   bool
	// scale multiplies every data size; 1 is the benchmark, the smoke test
	// runs at 1/50.
	scale  float64
	outDir string
}

// scaled shrinks a size by cfg.scale, never below floor.
func (c config) scaled(n, floor int) int {
	return max(int(float64(n)*c.scale), floor)
}

// window is one measured stretch of operations and what was observed.
type window struct {
	seconds float64
	// lat holds, per operation that succeeded, how long it took, and
	// disturbed how far from quiet the probes around it found the core
	// (quiet.go).
	lat       []time.Duration
	disturbed []float64
	attempted int
	failures  []string // every failed operation, first messages kept
	failed    int
	wall      time.Duration
	objects   uint64 // heap objects allocated during the operations
	bytes     uint64
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.failures) < 5 {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

// loop runs op on one goroutine until the window's time is up, timing each
// call and counting the allocations made during it. prep, when set, runs
// before each op outside both: it is the harness making inputs.
func (w *window) loop(prep func(i int) error, op func(i int) error) {
	mem := newAllocReader()
	g := newGate()
	var flanks [][2]int
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < w.seconds; i++ {
		w.attempted++
		if prep != nil {
			if err := prep(i); err != nil {
				w.fail("op %d: preparing inputs: %v", i, err)
				continue
			}
		}
		before := g.probe()
		o0, b0, _ := mem.read()
		t0 := time.Now()
		err := op(i)
		d := time.Since(t0)
		o1, b1, _ := mem.read()
		after := g.probe()
		w.objects += o1 - o0
		w.bytes += b1 - b0
		if err != nil {
			w.fail("op %d: %v", i, err)
			continue
		}
		w.lat = append(w.lat, d)
		flanks = append(flanks, [2]int{before, after})
	}
	w.wall = time.Since(start)
	d := g.disturbance()
	for _, f := range flanks {
		w.disturbed = append(w.disturbed, between(d, f[0], f[1]))
	}
}

// workload is one named set of inputs and the operations run on it.
type workload interface {
	// setup builds the inputs from the seed, loads them into the system and
	// warms it up. It is timed, and called again after close.
	setup(ctx context.Context, cfg config) error
	// run measures operations for w.seconds.
	run(ctx context.Context, w *window)
	// traced runs operations for w.seconds with a span around every call
	// into a layer, adding per-operation layer figures to acc. firstOp is
	// the number of operations run so far, so that inputs are not reused.
	traced(ctx context.Context, w *window, tr *tracer, acc samples, firstOp int) error
	// finish runs the checks that need the whole run, failing w's operations.
	finish(ctx context.Context, w *window)
	// close releases what setup started; it is safe before the first setup.
	close()
}

// workloads lists the workloads in the order of BENCHMARK.json, which also
// records why each was chosen.
var workloads = []struct {
	name string
	// repeats says that one goroutine runs the same operation over and over,
	// so that with one seed allocations per operation are the same in every
	// run however many operations fit the window (sameSeedAllocBound).
	repeats bool
	// gated says that the timings are taken over the operations measured
	// with a quiet core (quiet.go). Leaving operations out must not change
	// the mix, so they have to be alike (fig5-partial) or drawn in their
	// thousands from one distribution (served-zipf). The few hundred
	// instances of a fig6-cold window all differ, and of write-churn's rounds
	// the long structural ones are disturbed, and left out, more often than
	// the short ones: gating moved both workloads' figures by more than the
	// neighbours did, so their timings are taken over every operation.
	gated bool
	new   func() workload
}{
	{"fig5-partial", true, true, func() workload { return &fig5{} }},
	{"fig6-cold", false, false, func() workload { return &fig6{} }},
	{"served-zipf", false, true, func() workload { return &zipf{} }},
	{"write-churn", false, false, func() workload { return &churn{} }},
}

// table1 is the paper's query catalog; every workload draws its query shapes
// from it.
var table1 = gen.Table1()

// genAll generates the nine relations the five Table 1 queries read, in one
// database, as gen.GenerateFor does for a single query.
func genAll(p gen.Params) *relation.Database {
	rng := rand.New(rand.NewSource(p.Seed))
	rdb := relation.NewDatabase()
	for _, name := range []string{"R1", "R2", "R3", "R4"} {
		rdb.AddRelation(gen.GenR(name, p, rng))
	}
	for _, name := range []string{"S1", "S2", "S3"} {
		rdb.AddRelation(gen.GenHier(name, 1, p, rng))
	}
	rdb.AddRelation(gen.GenHier("T1", 2, p, rng))
	rdb.AddRelation(gen.GenHier("T2", 3, p, rng))
	return rdb
}

// load copies generated relations into a fresh pdb.Database through the
// public API. The generated database stays as it is: the replay reads it.
func load(rdb *relation.Database) (*pdb.Database, error) {
	db := pdb.NewDatabase()
	for _, name := range rdb.Names() {
		rel, err := rdb.Relation(name)
		if err != nil {
			return nil, err
		}
		h := db.CreateRelation(name, rel.Attrs...)
		for _, row := range rel.Rows {
			if err := h.Add(row.P, row.Tuple...); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

func parseAll(texts []string) ([]*pdb.Query, error) {
	out := make([]*pdb.Query, len(texts))
	for i, t := range texts {
		q, err := pdb.ParseQuery(t)
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	return out, nil
}

// exact evaluates q and rejects an answer the engine had to approximate: the
// workloads are sized so that no operation falls back to sampling.
func exact(ctx context.Context, db *pdb.Database, q *pdb.Query, strat pdb.Strategy) (*pdb.Result, error) {
	res, err := db.EvaluateContext(ctx, q, pdb.Options{Strategy: strat})
	if err != nil {
		return nil, err
	}
	if res.Stats.Approximate {
		return nil, fmt.Errorf("%s under %s fell back to sampling: %s", q, strat, res.Stats.FallbackReason)
	}
	return res, nil
}

// tracedOp runs one traced operation under a root span and, when it
// succeeds, files its layer samples.
func tracedOp(tr *tracer, acc samples, op int, body func(root int, c *counts) error) error {
	from := len(tr.spans)
	root := tr.begin("op", op, -1)
	var c counts
	err := body(root, &c)
	tr.end(root)
	if err == nil {
		addLayerSamples(acc, tr, from, &c)
	}
	return err
}

// useEvalAsTracedOp makes the traced operation time of a replayed workload the
// sum of its pdb.eval spans: they are the calls the untraced operation makes,
// so their time against the untraced operation's is what tracing cost.
func useEvalAsTracedOp(acc samples) {
	acc["trace.op_ms"] = slices.Clone(acc["pdb.eval_ms"])
}

// addLayerSamples turns the spans and counts of one traced operation into
// per-operation samples of the replay-derived layer metrics. A metric whose
// span the operation never opened gets no sample.
func addLayerSamples(acc samples, tr *tracer, from int, c *counts) {
	self, allocs := tr.selfSince(from)
	for _, s := range tr.spans[from:] {
		if s.Name == "query.parse" {
			acc.add("query.parse_us", float64(s.End-s.Start)/1e3)
		}
	}
	for name, metric := range map[string]string{
		"planner.plan": "planner.plan_ms", "pl.scan": "pl.scan_ms", "pl.join": "pl.join_ms", "pl.project": "pl.project_ms",
		"inference.expand": "inference.expand_ms", "lineage.solve": "lineage.solve_ms",
		"engine.eval": "engine.eval_ms", "engine.ground": "engine.ground_ms", "pdb.eval": "pdb.eval_ms",
	} {
		if ns, ok := self[name]; ok {
			acc.add(metric, ns/1e6)
		}
	}
	children := self["pl.scan"] + self["pl.join"] + self["pl.project"] + self["inference.expand"] + self["lineage.solve"] + self["engine.ground"]
	acc.add("engine.self_ms", (self["engine.eval"]-children)/1e6)
	acc.add("pdb.self_ms", (self["pdb.eval"]-self["planner.plan"]-self["engine.eval"])/1e6)
	acc.add("pl.allocs", allocs["pl.scan"]+allocs["pl.join"]+allocs["pl.project"])
	for metric, v := range map[string]float64{
		"planner.candidates": float64(c.candidates), "pl.rows": float64(c.rows), "pl.offending": float64(c.offending),
		"aonet.nodes": float64(c.nodes), "aonet.edges": float64(c.edges), "aonet.cons_hits": float64(c.consHits),
		"inference.expand_clauses": float64(c.expandClauses),
		"lineage.compiles":         float64(c.circuit.Compiles), "lineage.hits": float64(c.circuit.Hits), "lineage.evals": float64(c.circuit.Evals),
		"engine.plan_exec_ms": ms(c.planExec), "engine.infer_ms": ms(c.infer),
	} {
		acc.add(metric, v)
	}
	if _, grounded := self["engine.ground"]; grounded {
		acc.add("lineage.dnf_clauses", float64(c.dnfClauses))
		acc.add("lineage.dnf_vars", float64(c.dnfVars))
	}
}

// ---------------------------------------------------------------------------
// fig5-partial

// fig5 holds all nine Table 1 relations at the repo's small Fig. 5 point in
// one database and cycles P1, P2, P3, S2, S3 through pdb.EvaluateContext
// under the partial strategy on one goroutine. An operation is one cycle.
type fig5 struct {
	rdb     *relation.Database
	db      *pdb.Database
	queries []*pdb.Query
	// first holds the warm-up cycle's answers: every measured cycle must
	// reproduce them bit for bit, and finish checks them against dnf.
	first []answers
	// The replay and the engine span each keep a circuit cache for the
	// database's lifetime, as pdb.Database does, so repeats hit in all three.
	replayCache, engineCache *lineage.CircuitCache
}

func fig5Params(cfg config) gen.Params {
	return gen.Params{N: 10, M: cfg.scaled(400, 8), Fanout: 4, RF: 0.01, RD: 1, Seed: cfg.seed}
}

func table1Texts() []string {
	out := make([]string, len(table1))
	for i, s := range table1 {
		out[i] = s.QueryText
	}
	return out
}

func (f *fig5) setup(ctx context.Context, cfg config) (err error) {
	f.rdb = genAll(fig5Params(cfg))
	if f.db, err = load(f.rdb); err != nil {
		return err
	}
	if f.queries, err = parseAll(table1Texts()); err != nil {
		return err
	}
	f.first = make([]answers, len(f.queries))
	for i, q := range f.queries {
		res, err := exact(ctx, f.db, q, pdb.PartialLineage)
		if err != nil {
			return err
		}
		f.first[i] = pdbAnswers(res)
	}
	f.replayCache = lineage.NewCircuitCache(lineage.CircuitCacheConfig{})
	f.engineCache = lineage.NewCircuitCache(lineage.CircuitCacheConfig{})
	return nil
}

func (f *fig5) run(ctx context.Context, w *window) {
	w.loop(nil, func(int) error {
		for i, q := range f.queries {
			res, err := exact(ctx, f.db, q, pdb.PartialLineage)
			if err != nil {
				return err
			}
			if d := f.first[i].diff(pdbAnswers(res), 0); d != "" {
				return fmt.Errorf("%s changed between cycles: %s", table1[i].Name, d)
			}
		}
		return nil
	})
}

func (f *fig5) traced(ctx context.Context, w *window, tr *tracer, acc samples, firstOp int) error {
	l := &layered{ctx: ctx, tr: tr}
	w.loop(nil, func(i int) error {
		op := firstOp + i
		return tracedOp(tr, acc, op, func(root int, c *counts) error {
			for qi, s := range table1 {
				pres, err := l.eval(op, root, f.rdb, f.db, s.QueryText, core.PartialLineage, f.replayCache, f.engineCache, c)
				if err != nil {
					return err
				}
				if d := f.first[qi].diff(pdbAnswers(pres), 0); d != "" {
					return fmt.Errorf("%s changed between cycles: %s", s.Name, d)
				}
			}
			return nil
		})
	})
	useEvalAsTracedOp(acc)
	return l.check()
}

// finish checks the answers every cycle reproduced against dnf: the paper's
// equivalence. It runs after the windows, so that the dnf evaluations' circuits
// are not in the database's cache while partial is measured.
func (f *fig5) finish(ctx context.Context, w *window) {
	for i, q := range f.queries {
		res, err := exact(ctx, f.db, q, pdb.DNFLineage)
		if err != nil {
			w.fail("%s under dnf: %v", table1[i].Name, err)
		} else if d := f.first[i].diff(pdbAnswers(res), tol); d != "" {
			w.fail("%s: partial against dnf: %s", table1[i].Name, d)
		}
	}
}

func (f *fig5) close() {}

// ---------------------------------------------------------------------------
// fig6-cold

// fig6 evaluates instances nobody has seen: operation i generates one fresh
// Fig. 6 instance per Table 1 query, loads each into two fresh databases and
// evaluates the five queries under partial, then the same five under dnf.
// Every database starts with an empty circuit cache, so every answer is a
// cold expand + compile + evaluate. Generating and loading is the harness
// making inputs, outside the operation's time.
type fig6 struct {
	cfg     config
	queries []*pdb.Query
	// The instances of the operation about to run, made by prep.
	rdbs           []*relation.Database
	partials, dnfs []*pdb.Database
}

// fig6Params returns the instance parameters for operation index idx and
// query qi. The seed mixes the run's seed with both, so that no two
// operations of a run, and no two runs, share an instance.
func fig6Params(cfg config, idx, qi int) gen.Params {
	return gen.Params{N: 6, M: cfg.scaled(30, 6), Fanout: 3, RF: 0.3, RD: 1,
		Seed: cfg.seed*1_000_003 + int64(idx)*7 + int64(qi)}
}

func (f *fig6) setup(ctx context.Context, cfg config) (err error) {
	f.cfg = cfg
	if f.queries, err = parseAll(table1Texts()); err != nil {
		return err
	}
	// One throw-away index, and no other warm-up: a new query on new data
	// is what the caller pays.
	if err := f.prep(-1); err != nil {
		return err
	}
	return f.op(ctx)
}

// prep makes operation i's inputs. Index -1 is the throw-away one.
func (f *fig6) prep(i int) error {
	n := len(table1)
	f.rdbs, f.partials, f.dnfs = make([]*relation.Database, n), make([]*pdb.Database, n), make([]*pdb.Database, n)
	for qi, s := range table1 {
		rdb, err := gen.GenerateFor(s, fig6Params(f.cfg, i+1, qi))
		if err != nil {
			return err
		}
		f.rdbs[qi] = rdb
		if f.partials[qi], err = load(rdb); err != nil {
			return err
		}
		if f.dnfs[qi], err = load(rdb); err != nil {
			return err
		}
	}
	return nil
}

// op evaluates the prepared instances and checks the paper's equivalence:
// partial and dnf agree on every answer of every instance.
func (f *fig6) op(ctx context.Context) error {
	got := make([]answers, len(f.queries))
	for qi, q := range f.queries {
		res, err := exact(ctx, f.partials[qi], q, pdb.PartialLineage)
		if err != nil {
			return err
		}
		got[qi] = pdbAnswers(res)
	}
	for qi, q := range f.queries {
		res, err := exact(ctx, f.dnfs[qi], q, pdb.DNFLineage)
		if err != nil {
			return err
		}
		if d := got[qi].diff(pdbAnswers(res), tol); d != "" {
			return fmt.Errorf("%s: partial against dnf: %s", table1[qi].Name, d)
		}
	}
	return nil
}

func (f *fig6) run(ctx context.Context, w *window) {
	w.loop(f.prep, func(int) error { return f.op(ctx) })
}

func (f *fig6) traced(ctx context.Context, w *window, tr *tracer, acc samples, firstOp int) error {
	l := &layered{ctx: ctx, tr: tr}
	w.loop(func(i int) error { return f.prep(firstOp + i) }, func(i int) error {
		op := firstOp + i
		return tracedOp(tr, acc, op, func(root int, c *counts) error {
			got := make([]answers, len(table1))
			for qi, s := range table1 {
				pres, err := l.eval(op, root, f.rdbs[qi], f.partials[qi], s.QueryText, core.PartialLineage, freshCache(), freshCache(), c)
				if err != nil {
					return err
				}
				got[qi] = pdbAnswers(pres)
			}
			for qi, s := range table1 {
				pres, err := l.eval(op, root, f.rdbs[qi], f.dnfs[qi], s.QueryText, core.DNFLineage, freshCache(), freshCache(), c)
				if err != nil {
					return err
				}
				if d := got[qi].diff(pdbAnswers(pres), tol); d != "" {
					return fmt.Errorf("%s: partial against dnf: %s", s.Name, d)
				}
			}
			return nil
		})
	})
	useEvalAsTracedOp(acc)
	return l.check()
}

func freshCache() *lineage.CircuitCache {
	return lineage.NewCircuitCache(lineage.CircuitCacheConfig{})
}

func (f *fig6) finish(context.Context, *window) {}
func (f *fig6) close()                          {}
