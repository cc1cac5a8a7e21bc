package crosscheck

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/tuple"
	"repro/pdb"
)

// Options configures one differential check.
type Options struct {
	// Strategies to compare against the oracle; nil means all six. Point
	// strategies must agree to within Tol (plus the Hoeffding band for mc);
	// the bounds-valued dissociation strategy must bracket the oracle.
	Strategies []core.Strategy
	// Tol is the absolute agreement tolerance for the exact strategies
	// (default 1e-9 — the strategies and the oracle compute the same reals,
	// so only summation order separates them).
	Tol float64
	// Samples drives the MonteCarlo strategy (default 5000).
	Samples int
	// Delta is the per-answer failure probability of the Monte-Carlo
	// confidence band (default 1e-9). The Karp–Luby estimate is
	// M·mean(indicator) for clause-weight total M, so by Hoeffding the
	// estimate lies within M·sqrt(ln(2/Delta)/(2·Samples)) of the truth with
	// probability 1-Delta.
	Delta float64
	// Seed drives the samplers (default 1).
	Seed int64
	// Parallelism is passed through to the engine (0 = sequential).
	Parallelism int
	// Perturb injects an artificial divergence: the named strategies' answer
	// probabilities are shifted by the given amount before comparison. Used
	// to test that the harness, the shrinker and pdbfuzz actually catch and
	// minimize failures.
	Perturb map[core.Strategy]float64
}

func (o Options) withDefaults() Options {
	if len(o.Strategies) == 0 {
		o.Strategies = core.Strategies()
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.Samples <= 0 {
		o.Samples = 5000
	}
	if o.Delta <= 0 {
		o.Delta = 1e-9
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ExactStrategies are the paths that must agree with the oracle to within
// Options.Tol: everything except the Monte-Carlo sampler.
func ExactStrategies() []core.Strategy {
	return []core.Strategy{core.PartialLineage, core.SafePlanOnly, core.FullNetwork, core.DNFLineage}
}

// Divergence is one disagreement between a strategy and the oracle.
type Divergence struct {
	Strategy core.Strategy
	// Vals is the diverging answer tuple (empty for Boolean queries).
	Vals tuple.Tuple
	// Got is the strategy's probability, Want the oracle's, Bound the
	// tolerance that was exceeded.
	Got, Want, Bound float64
}

func (d Divergence) String() string {
	return fmt.Sprintf("strategy %v answer %v: got %.12g, oracle %.12g (|diff| %.3g > %.3g)",
		d.Strategy, d.Vals, d.Got, d.Want, math.Abs(d.Got-d.Want), d.Bound)
}

// Report is the outcome of one check.
type Report struct {
	Oracle *Oracle
	// Divergences lists every disagreement found, ordered by strategy then
	// answer.
	Divergences []Divergence
	// Skipped records strategies that declined the instance for a legitimate
	// reason — SafePlanOnly on instances that are not data-safe.
	Skipped map[core.Strategy]error
}

// Failed reports whether any strategy diverged.
func (r *Report) Failed() bool { return len(r.Divergences) > 0 }

// Check computes the instance's oracle and compares every requested strategy
// against it through the public pdb.EvaluateContext entry point. It returns
// an error only for infrastructure failures (oracle too large, unexpected
// evaluation error); divergences are data, reported in the Report.
func Check(ctx context.Context, in *Instance, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	oracle, err := ComputeOracle(in)
	if err != nil {
		return nil, fmt.Errorf("crosscheck: oracle: %w", err)
	}
	db, err := toPDB(in)
	if err != nil {
		return nil, fmt.Errorf("crosscheck: %w", err)
	}
	q, err := pdb.ParseQuery(in.Q.String())
	if err != nil {
		return nil, fmt.Errorf("crosscheck: re-parsing query %q: %w", in.Q.String(), err)
	}
	rep := &Report{Oracle: oracle, Skipped: make(map[core.Strategy]error)}
	for _, s := range opts.Strategies {
		popts := pdb.Options{
			Strategy:    s,
			Seed:        opts.Seed,
			Samples:     opts.Samples,
			Parallelism: opts.Parallelism,
			NoFallback:  s != core.MonteCarlo,
		}
		res, err := db.EvaluateContext(ctx, q, popts)
		if err != nil {
			if s == core.SafePlanOnly && errors.Is(err, engine.ErrNotDataSafe) {
				// The safe-plan-only path is allowed to decline instances
				// where some join needs conditioning; that is its contract,
				// not a divergence.
				rep.Skipped[s] = err
				continue
			}
			return nil, fmt.Errorf("crosscheck: strategy %v: %w", s, err)
		}
		if s == core.Dissociation {
			// Bounds-valued: the obligation is bracketing, not point
			// agreement — the oracle must lie inside every [Lo, Hi].
			rep.Divergences = append(rep.Divergences, compareBounds(s, res, oracle, opts.Tol, opts.Perturb[s])...)
			continue
		}
		bound := func(key string) float64 { return opts.Tol }
		if s == core.MonteCarlo {
			bounds, err := mcBounds(in, opts)
			if err != nil {
				return nil, fmt.Errorf("crosscheck: Monte-Carlo bounds: %w", err)
			}
			bound = func(key string) float64 {
				if b, ok := bounds[key]; ok {
					return b + opts.Tol
				}
				return opts.Tol
			}
		}
		rep.Divergences = append(rep.Divergences, compareAnswers(s, res, oracle, bound, opts.Perturb[s])...)
	}
	return rep, nil
}

// compareBounds checks a bounds-valued strategy against the oracle: the
// answer sets must match and every oracle probability must fall inside the
// answer's [Lo, Hi] interval (widened by tol for summation order). A missing
// answer is a zero-width interval at 0, so it diverges unless the oracle
// agrees it is absent.
func compareBounds(s core.Strategy, res *pdb.Result, oracle *Oracle, tol, perturb float64) []Divergence {
	type iv struct {
		lo, hi float64
		vals   tuple.Tuple
	}
	got := make(map[string]iv, len(res.Rows))
	for _, row := range res.Rows {
		got[tuple.Tuple(row.Vals).Key()] = iv{row.Lo + perturb, row.Hi + perturb, tuple.Tuple(row.Vals)}
	}
	keys := make(map[string]bool, len(got)+len(oracle.Probs))
	for k := range got {
		keys[k] = true
	}
	for k := range oracle.Probs {
		keys[k] = true
	}
	ordered := make([]string, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	var out []Divergence
	for _, k := range ordered {
		g, w := got[k], oracle.Probs[k]
		if w < g.lo-tol || w > g.hi+tol || math.IsNaN(g.lo) || math.IsNaN(g.hi) {
			v := g.vals
			if v == nil {
				v = oracle.Vals[k]
			}
			// Report the violated endpoint so the shrinker has a scalar diff
			// to minimize against.
			end := g.lo
			if w > g.hi {
				end = g.hi
			}
			out = append(out, Divergence{Strategy: s, Vals: v, Got: end, Want: w, Bound: tol})
		}
	}
	return out
}

// compareAnswers diffs one strategy's answers against the oracle over the
// union of both answer sets (a missing answer counts as probability 0).
func compareAnswers(s core.Strategy, res *pdb.Result, oracle *Oracle, bound func(key string) float64, perturb float64) []Divergence {
	got := make(map[string]float64, len(res.Rows))
	vals := make(map[string]tuple.Tuple, len(res.Rows))
	for _, row := range res.Rows {
		k := tuple.Tuple(row.Vals).Key()
		got[k] = row.P + perturb
		vals[k] = tuple.Tuple(row.Vals)
	}
	keys := make(map[string]bool, len(got)+len(oracle.Probs))
	for k := range got {
		keys[k] = true
	}
	for k := range oracle.Probs {
		keys[k] = true
	}
	ordered := make([]string, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	var out []Divergence
	for _, k := range ordered {
		g, w, b := got[k], oracle.Probs[k], bound(k)
		if math.Abs(g-w) > b || math.IsNaN(g) {
			v, ok := vals[k]
			if !ok {
				v = oracle.Vals[k]
			}
			out = append(out, Divergence{Strategy: s, Vals: v, Got: g, Want: w, Bound: b})
		}
	}
	return out
}

// mcBounds computes the per-answer Hoeffding band of the Karp–Luby
// estimator: the estimate is M·mean of a {0,1} indicator over
// Options.Samples draws, where M is the answer's total clause weight
// Σ_clauses Π p(var), so |estimate − truth| ≤ M·sqrt(ln(2/δ)/(2n)) with
// probability at least 1−δ. Answers whose lineage is certain (a clause of
// only-certain tuples) or empty are computed exactly by the sampler's
// shortcut paths and get a zero-width band.
func mcBounds(in *Instance, opts Options) (map[string]float64, error) {
	plan, err := query.LeftDeepPlan(in.Q, query.BodyOrder(in.Q))
	if err != nil {
		return nil, err
	}
	g, err := engine.Ground(in.DB, in.Q, plan)
	if err != nil {
		return nil, err
	}
	halfWidth := math.Sqrt(math.Log(2/opts.Delta) / (2 * float64(opts.Samples)))
	out := make(map[string]float64, len(g.Answers))
	for _, ans := range g.Answers {
		// Mirror the sampler's own weight total over the raw (unsimplified)
		// clauses — the estimator scales its indicator mean by exactly this M.
		f := ans.F
		if len(f.Clauses) == 0 || f.IsTrue() {
			out[ans.Vals.Key()] = 0
			continue
		}
		m := 0.0
		for _, c := range f.Clauses {
			w := 1.0
			for _, v := range c {
				w *= g.Probs[v]
			}
			m += w
		}
		out[ans.Vals.Key()] = m * halfWidth
	}
	return out, nil
}

// toPDB rebuilds the instance's database behind the public facade, so the
// check exercises the exact code path applications use.
func toPDB(in *Instance) (*pdb.Database, error) {
	db := pdb.NewDatabase()
	for _, name := range in.DB.Names() {
		src, err := in.DB.Relation(name)
		if err != nil {
			return nil, err
		}
		dst := db.CreateRelation(name, src.Attrs...)
		for _, row := range src.Rows {
			if err := dst.Add(row.P, row.Tuple...); err != nil {
				return nil, fmt.Errorf("relation %s: %w", name, err)
			}
		}
	}
	return db, nil
}

func writeQueryFile(dir, text string) error {
	return os.WriteFile(filepath.Join(dir, "query.txt"), []byte(text+"\n"), 0o644)
}
