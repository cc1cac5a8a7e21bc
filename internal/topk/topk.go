// Package topk computes the k most probable answers of a query without
// computing every answer probability exactly — the multisimulation approach
// of Ré, Dalvi & Suciu, "Efficient top-k query evaluation on probabilistic
// data" (ICDE 2007), reference [21] of the paper, seeded with guaranteed
// dissociation bounds (Gatterbauer & Suciu; see internal/inference).
//
// Every answer starts with a probability interval. Small lineage is
// computed exactly up front; everything else is routed by the planner cost
// model: answers the model sends to the dissociation evaluator are seeded
// with its guaranteed [lo, hi] interval in one extensional pass (collapsing
// to a point on read-once lineage), the rest get a cheap exact Shannon
// attempt first. Only answers whose intervals still straddle the k-th
// boundary pay for Karp–Luby sampling: rounds of simulation refine the
// *critical* answers — intersecting each Hoeffding interval with the
// answer's guaranteed bounds — until the top-k set separates from the rest
// (or the interval widths drop below a tolerance, or a round budget is
// hit). Seeding is the difference between "simulate every answer" and
// "simulate the handful the ranking actually depends on"; disable it with
// Options.NoSeedBounds to get the cold multisimulation for comparison
// (pdbbench -experiment topk measures exactly that).
package topk

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/engine"
	"repro/internal/inference"
	"repro/internal/lineage"
	"repro/internal/planner"
	"repro/internal/tuple"
)

// Options tunes the multisimulation.
type Options struct {
	// K is the number of answers wanted (required, ≥ 1).
	K int
	// Eps stops refining an answer whose interval is narrower than this
	// (default 1e-3). The returned set is then a best-effort split.
	Eps float64
	// Batch is the number of samples added to a critical answer per round
	// (default 1024).
	Batch int
	// MaxRounds bounds the refinement loop (default 1000).
	MaxRounds int
	// ExactClauseLimit: answers with at most this many clauses are computed
	// exactly instead of simulated (default 64).
	ExactClauseLimit int
	// Seed drives the samplers.
	Seed int64
	// NoSeedBounds disables dissociation seeding: every non-exact answer
	// starts from the cold [0, min(1, union bound)] interval and must be
	// separated by sampling alone. Ablation knob for benchmarks; serving
	// always seeds.
	NoSeedBounds bool
}

func (o Options) withDefaults() Options {
	if o.Eps <= 0 {
		o.Eps = 1e-3
	}
	if o.Batch <= 0 {
		o.Batch = 1024
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 1000
	}
	if o.ExactClauseLimit <= 0 {
		o.ExactClauseLimit = 64
	}
	return o
}

// shannonBudget bounds the exact Shannon attempt on answers the cost model
// ranks ahead of the bounds evaluator (mirrors the engine's default exact
// budget). Overruns fall back to dissociation seeding.
const shannonBudget = 500000

// Answer is one ranked answer with its probability bounds. Exact answers
// have Lo == Hi.
type Answer struct {
	Vals    tuple.Tuple
	Lo, Hi  float64
	Exact   bool
	Samples int
	// Seeded reports the interval was initialized from dissociation bounds
	// (guaranteed, so refinement intersects with it).
	Seeded bool
}

// mid returns the interval midpoint used for final ordering.
func (a Answer) mid() float64 { return (a.Lo + a.Hi) / 2 }

// Result reports the chosen top-k plus the state of every answer.
type Result struct {
	// Top is the chosen k answers; All holds every answer's final state.
	Top []Answer
	All []Answer
	// Separated reports whether the top-k set was provably separated from
	// the rest (up to the estimators' confidence); false means the ranking
	// at the boundary relied on interval midpoints after Eps/round budget.
	Separated bool
	// Rounds is the number of refinement rounds run.
	Rounds int
	// SeededExact counts answers whose dissociation interval collapsed to a
	// point (read-once lineage) — ranked for free, never simulated.
	SeededExact int
	// Sampled counts answers that drew at least one Karp–Luby sample.
	Sampled int
}

// FromGrounding runs bounds-seeded multisimulation over a query grounding. It
// checks ctx between answers while seeding and between refinement rounds, and
// returns ctx's error as soon as it is done: a round is at most Batch samples
// for each critical answer, so that is the latency of a cancellation.
func FromGrounding(ctx context.Context, g *engine.Grounding, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if opts.K < 1 {
		return nil, fmt.Errorf("topk: K must be at least 1 (got %d)", opts.K)
	}
	probOf := func(v lineage.Var) float64 { return g.Probs[v] }
	model := planner.DefaultCostModel()
	states := make([]*state, len(g.Answers))
	rng := rand.New(rand.NewSource(opts.Seed))
	res := &Result{}
	for i, ans := range g.Answers {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		st := &state{vals: ans.Vals, probOf: probOf}
		st.f = ans.F.Simplify()
		st.seedRNG = rng.Int63()
		switch {
		case len(st.f.Clauses) <= opts.ExactClauseLimit:
			p := lineage.Prob(st.f, probOf)
			st.lo, st.hi, st.exact = p, p, true
		case !opts.NoSeedBounds:
			st.seed(model, res)
		default:
			st.cold()
		}
		states[i] = st
	}
	if len(states) <= opts.K {
		// Everything is in the top-k; refine nothing.
		res.Separated = true
		res.All = snapshot(states)
		res.Top = res.All
		sortAnswers(res.Top)
		return res, nil
	}
	for round := 0; round < opts.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Rounds = round
		critical := criticalSet(states, opts.K, opts.Eps)
		if len(critical) == 0 {
			break
		}
		for _, i := range critical {
			states[i].refine(opts.Batch)
		}
	}
	res.All = snapshot(states)
	sorted := snapshot(states)
	sortAnswers(sorted)
	res.Top = sorted[:opts.K]
	res.Separated = separated(states, opts.K)
	for _, s := range states {
		if s.samples > 0 {
			res.Sampled++
		}
	}
	return res, nil
}

// state is one answer's simulation state.
type state struct {
	vals    tuple.Tuple
	f       *lineage.DNF
	probOf  func(lineage.Var) float64
	seedRNG int64
	sampler *sampler
	// seedLo/seedHi are the guaranteed dissociation bounds (valid only when
	// seeded); sampled intervals are intersected with them.
	seeded         bool
	seedLo, seedHi float64
	lo, hi         float64
	exact          bool
	samples        int
}

// seed initializes the interval along the cost model's ranking: a cheap
// exact Shannon pass when the model ranks it first (mid-size lineage),
// dissociation bounds otherwise — collapsing to exact on read-once lineage.
func (s *state) seed(model planner.CostModel, res *Result) {
	prof := planner.Profile{
		Expanded:   true,
		Clauses:    len(s.f.Clauses),
		Vars:       len(s.f.Vars()),
		WantBounds: true,
	}
	if !model.BoundsFirst(prof) {
		if p, err := lineage.ProbBudget(s.f, s.probOf, shannonBudget); err == nil {
			s.lo, s.hi, s.exact = p, p, true
			return
		} else if !errors.Is(err, lineage.ErrBudget) {
			// Structural failure: fall through to bounds, which cannot fail.
			_ = err
		}
	}
	b := inference.Dissociate(s.f, s.probOf)
	s.seeded = true
	s.seedLo, s.seedHi = b.Lo, b.Hi
	s.lo, s.hi = b.Lo, b.Hi
	if b.Exact() {
		s.exact = true
		res.SeededExact++
	}
}

// cold initializes the interval the pre-seeding way: [0, union bound].
func (s *state) cold() {
	s.ensureSampler()
	s.lo, s.hi = 0, math.Min(1, s.sampler.total)
}

func (s *state) ensureSampler() {
	if s.sampler == nil {
		s.sampler = newSampler(s.f, s.probOf, rand.New(rand.NewSource(s.seedRNG)))
	}
}

// refine adds a batch of samples and recomputes the Hoeffding interval,
// intersected with the guaranteed dissociation bounds when seeded.
func (s *state) refine(batch int) {
	if s.exact {
		return
	}
	s.ensureSampler()
	s.sampler.draw(batch)
	s.samples = s.sampler.n
	mean := float64(s.sampler.hits) / float64(s.sampler.n)
	// 99.9%-per-evaluation Hoeffding radius on the indicator mean.
	radius := math.Sqrt(math.Log(2/0.001) / (2 * float64(s.sampler.n)))
	s.lo = math.Max(0, s.sampler.total*(mean-radius))
	s.hi = math.Min(1, s.sampler.total*(mean+radius))
	if s.seeded {
		s.lo = math.Max(s.lo, s.seedLo)
		s.hi = math.Min(s.hi, s.seedHi)
	}
	if s.hi < s.lo {
		s.hi = s.lo
	}
}

// criticalSet returns the indexes whose top-k membership is still ambiguous
// and whose intervals are wider than eps. Membership is judged against the
// current candidate set T (the k largest lower bounds): a candidate is
// ambiguous while some outsider's upper bound exceeds its lower bound, an
// outsider while its upper bound exceeds the k-th lower bound. Once every
// outsider's hi drops below every candidate's lo the set is empty — in
// particular a provably-in k-th answer is NOT refined to eps just for
// sitting on the boundary.
func criticalSet(states []*state, k int, eps float64) []int {
	idx := make([]int, len(states))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if states[idx[a]].lo != states[idx[b]].lo {
			return states[idx[a]].lo > states[idx[b]].lo
		}
		return idx[a] < idx[b]
	})
	member := make([]bool, len(states))
	for _, i := range idx[:k] {
		member[i] = true
	}
	boundaryLo := states[idx[k-1]].lo
	outHiMax := math.Inf(-1)
	for _, i := range idx[k:] {
		if h := states[i].hi; h > outHiMax {
			outHiMax = h
		}
	}
	var out []int
	for i, s := range states {
		if s.exact || s.hi-s.lo <= eps {
			continue
		}
		if member[i] && s.lo < outHiMax {
			out = append(out, i)
		} else if !member[i] && s.hi > boundaryLo {
			out = append(out, i)
		}
	}
	return out
}

// separated reports whether the k-th and (k+1)-th answers' intervals are
// disjoint under the midpoint ordering.
func separated(states []*state, k int) bool {
	sorted := append([]*state(nil), states...)
	sort.Slice(sorted, func(i, j int) bool {
		mi := (sorted[i].lo + sorted[i].hi) / 2
		mj := (sorted[j].lo + sorted[j].hi) / 2
		if mi != mj {
			return mi > mj
		}
		return sorted[i].vals.Compare(sorted[j].vals) < 0
	})
	boundary := sorted[k-1].lo
	for _, s := range sorted[k:] {
		if s.hi > boundary {
			return false
		}
	}
	return true
}

func snapshot(states []*state) []Answer {
	out := make([]Answer, len(states))
	for i, s := range states {
		out[i] = Answer{Vals: s.vals, Lo: s.lo, Hi: s.hi, Exact: s.exact, Samples: s.samples, Seeded: s.seeded}
	}
	return out
}

func sortAnswers(as []Answer) {
	sort.Slice(as, func(i, j int) bool {
		if as[i].mid() != as[j].mid() {
			return as[i].mid() > as[j].mid()
		}
		return as[i].Vals.Compare(as[j].Vals) < 0
	})
}

// sampler is an incremental Karp–Luby estimator over one monotone DNF.
type sampler struct {
	f       *lineage.DNF
	p       func(lineage.Var) float64
	rng     *rand.Rand
	vars    []lineage.Var
	cum     []float64
	total   float64
	n, hits int
}

func newSampler(f *lineage.DNF, p func(lineage.Var) float64, rng *rand.Rand) *sampler {
	s := &sampler{f: f, p: p, rng: rng, vars: f.Vars()}
	acc := 0.0
	for _, c := range f.Clauses {
		w := 1.0
		for _, v := range c {
			w *= p(v)
		}
		acc += w
		s.cum = append(s.cum, acc)
	}
	s.total = acc
	return s
}

// draw adds n Karp–Luby samples.
func (s *sampler) draw(n int) {
	if s.total == 0 {
		s.n += n
		return
	}
	assign := make(map[lineage.Var]bool, len(s.vars))
	for t := 0; t < n; t++ {
		x := s.rng.Float64() * s.total
		i := sort.SearchFloat64s(s.cum, x)
		if i == len(s.cum) {
			i = len(s.cum) - 1
		}
		forced := s.f.Clauses[i]
		fi := 0
		for _, v := range s.vars {
			if fi < len(forced) && forced[fi] == v {
				assign[v] = true
				fi++
				continue
			}
			assign[v] = s.rng.Float64() < s.p(v)
		}
		first := -1
		for j, c := range s.f.Clauses {
			sat := true
			for _, v := range c {
				if !assign[v] {
					sat = false
					break
				}
			}
			if sat {
				first = j
				break
			}
		}
		if first == i {
			s.hits++
		}
	}
	s.n += n
}
