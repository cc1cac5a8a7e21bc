// Package engine evaluates conjunctive queries over tuple-independent
// probabilistic databases under the five strategies of core.Strategy,
// bridging extensional and intensional evaluation exactly as the paper
// prescribes: plans run over pL-relations, conditioning only the offending
// tuples, and a final inference pass over the resulting partial-lineage
// AND-OR network produces the answer probabilities.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/aonet"
	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/lineage"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/tuple"
)

// Options configures an evaluation.
type Options struct {
	Strategy core.Strategy
	// Inference configures exact inference over AND-OR networks.
	Inference inference.Options
	// Samples is the sample count for the MonteCarlo strategy and for the
	// sampling fallback when exact inference exceeds its width limit.
	// Zero means the default of 100000.
	Samples int
	// Epsilon and Delta request an (ε, δ) accuracy guarantee from the
	// Karp–Luby sampler instead of a fixed sample count: when both are set
	// (each in (0,1)), every sampled answer uses the zero-one estimator
	// theorem's count n = ⌈4·m·ln(2/δ)/ε²⌉ for its m-clause DNF, which
	// bounds the relative error by ε with probability at least 1−δ (see
	// lineage.KarpLubyGuarantee). Samples is ignored on the Karp–Luby paths
	// while both are set. Setting exactly one of the two is an error.
	Epsilon, Delta float64
	// Seed seeds the sampler (approximate paths only). Approximate answers
	// derive a per-answer RNG from Seed and the answer identity, so a fixed
	// Seed makes Karp–Luby and the sampling fallbacks fully reproducible,
	// at any Parallelism.
	Seed int64
	// NoFallback makes the engine return inference.ErrTooWide (network
	// strategies) or lineage.ErrBudget (DNFLineage) instead of falling back
	// to sampling when exact computation is intractable.
	NoFallback bool
	// ExactBudget caps the DNFLineage solver's Shannon expansions per
	// answer before the sampling fallback engages. Zero means the default
	// of 500000; negative means unlimited.
	ExactBudget int
	// Parallelism is the number of goroutines granted to the evaluation:
	// per-answer probability computations (inference or lineage confidence)
	// fan out across it. Answers are independent, so inference scales
	// near-linearly; the pL operators always run on one goroutine, so the
	// network is the same at every setting.
	// 0 or 1 means sequential; results are deterministic either way
	// (approximate paths derive their seed from Seed and the answer
	// identity).
	Parallelism int
	// Budget caps the rows emitted, network nodes grown and wall time of
	// one evaluation (zero fields = unlimited); exceeding it surfaces
	// core.ErrRowBudget, core.ErrNodeBudget or context.DeadlineExceeded.
	// Budget.Mem instead degrades gracefully: join/dedup switch to
	// partitioned spill-to-disk execution and stay byte-identical to the
	// unbounded result at any positive budget (docs/SPILL.md).
	Budget core.Budget
	// SkipInference stops the network strategies after plan execution: the
	// result carries statistics (offending tuples, network size) but no
	// rows. Used by the data-aware plan optimizer to cost candidate plans.
	SkipInference bool
	// Trace records a per-operator execution trace (output cardinality,
	// network growth, own wall time) into Stats.Operators (network
	// strategies only).
	Trace bool
	// Evidence conditions the database on observations about specific base
	// tuples before evaluation: each answer probability becomes
	// P(answer | evidence) — the conditioning of probabilistic databases of
	// Koch & Olteanu [16]. Network strategies only; evidence of probability
	// zero (e.g. asserting a certain tuple absent) is an error.
	Evidence []Evidence
	// MeasureWidth computes a greedy treewidth upper bound of the final
	// AND-OR network into Stats.NetworkWidthBound (network strategies).
	// Opt-in: the bound costs a quadratic pass over the network.
	MeasureWidth bool
	// Validate makes the executor check structural invariants (schema
	// integrity, probability ranges, lineage references, network
	// well-formedness) after every operator. Intended for tests and
	// debugging; adds a linear pass per operator.
	Validate bool
	// NoExpansion disables the default partial-lineage inference path
	// (expand the answer's network into a DNF over offending tuples and
	// anonymous coins, then run the Shannon solver — Section 4.2's "run any
	// general-purpose inference algorithm" on the partial lineage), forcing
	// variable elimination with cutset conditioning instead. For the
	// inference-backend ablation benchmark.
	NoExpansion bool
	// NoMemo disables the per-evaluation shared inference memo tables
	// (Shannon subproblems keyed on canonical clause fingerprints, VE
	// component solves keyed on factor fingerprints). Exact results are
	// bit-identical with and without them; the flag exists for the
	// performance ablation and the crosscheck equivalence tests.
	NoMemo bool
	// NoCons disables AND-OR network hash-consing of deterministic gates.
	// Always sound (fresh nodes are never wrong, only more numerous); for
	// the node-count benchmark and the Section 5.4 ablation.
	NoCons bool
	// PlannerSink, when set, accumulates per-backend attempt outcomes from
	// the ranked inference dispatch. The sink feeds observability
	// exclusively — metrics, EXPLAIN, calibration reports — and never
	// influences backend ranking; see planner.Sink.
	PlannerSink *planner.Sink
	// Circuits, when set, enables the compiled-circuit inference backend:
	// expanded DNF lineage is compiled once to a d-DNNF circuit cached in
	// this table on its canonical fingerprint, and confidence becomes one
	// linear bottom-up pass — repeated answers, cross-query shared cores and
	// prob-update refreshes all reuse the compiled structure. The evaluator
	// replays the Shannon solver's recursion exactly, so results are
	// bit-identical with the backend on or off; as with the shared memo,
	// only the number of Shannon expansions charged against ExactBudget can
	// shrink on cache hits. The pdb layer attaches one cache per database;
	// materialized views carry their own.
	Circuits *lineage.CircuitCache
	// Plans, when set, is the planning cache EvaluateQuery plans through:
	// relation statistics and chosen plans remembered per relation version, so
	// a repeated query plans in a lookup. Plans are the same with and without
	// it (see planner.Cache). The pdb layer attaches one per database, and the
	// cache reads relation versions under the read lock the evaluation holds.
	// Evaluate and EvaluateContext, whose caller supplies the plan, never
	// consult it.
	Plans *planner.Cache
	// NoCircuit disables the compiled-circuit backend even when a cache is
	// attached — the ablation knob mirrored by pdb.Options.NoCircuit and the
	// CLIs' -no-circuit flags.
	NoCircuit bool
	// circuitStats accumulates the evaluation's circuit compile/hit/eval
	// counts for Stats; set internally at the evaluation boundary so
	// concurrent queries sharing one cache never mix counters.
	circuitStats *lineage.CircuitStats
}

// circuitCache returns the circuit cache the evaluation may use: nil when
// none is attached or the ablation knob is set.
func (o Options) circuitCache() *lineage.CircuitCache {
	if o.NoCircuit {
		return nil
	}
	return o.Circuits
}

func (o Options) samples() int {
	if o.Samples <= 0 {
		return 100000
	}
	return o.Samples
}

// SampleCountError reports an (ε, δ) request whose Karp–Luby sample count
// ⌈4·m·ln(2/δ)/ε²⌉ does not fit an int for an answer of m clauses. The pair
// is valid, so validateEpsDelta accepts it; only the answer's clause count
// tells whether it can be honoured. Matchable with errors.As.
type SampleCountError struct {
	Epsilon, Delta float64
	Clauses        int
}

func (e *SampleCountError) Error() string {
	return fmt.Sprintf("engine: ε=%v δ=%v on a %d-clause lineage asks for more Karp–Luby samples than an int holds; raise ε or δ",
		e.Epsilon, e.Delta, e.Clauses)
}

// klSamples returns the Karp–Luby sample count for an answer whose DNF has
// the given clause count: the (ε, δ)-derived count when Epsilon/Delta are
// set, Options.Samples otherwise.
func (o Options) klSamples(clauses int) (int, error) {
	if o.Epsilon > 0 && o.Delta > 0 && clauses > 0 {
		n := math.Ceil(4 * float64(clauses) * math.Log(2/o.Delta) / (o.Epsilon * o.Epsilon))
		// float64(math.MaxInt) is 2^63, the first value that does not fit.
		if !(n < math.MaxInt) {
			return 0, &SampleCountError{Epsilon: o.Epsilon, Delta: o.Delta, Clauses: clauses}
		}
		return int(n), nil
	}
	return o.samples(), nil
}

// solveExact computes the exact probability of f within ExactBudget Shannon
// expansions and names the backend that did: the compiled-circuit evaluator
// when the evaluation carries a circuit cache, the Shannon solver over lm (a
// nil lm is the solver's per-call memo alone) otherwise. The two return the
// same floats bit for bit; a cached circuit spends no budget, so they can
// differ only in which formulas end in lineage.ErrBudget.
func (o Options) solveExact(ec *core.ExecContext, f *lineage.DNF, probOf func(lineage.Var) float64, lm *lineage.Memo) (float64, string, error) {
	if cache := o.circuitCache(); cache != nil {
		p, err := lineage.CircuitProbCtx(ec, f, probOf, o.exactBudget(), cache, o.circuitStats)
		return p, "circuit", err
	}
	p, err := lineage.ProbMemoCtx(ec, f, probOf, o.exactBudget(), lm)
	return p, "shannon", err
}

// karpLuby is the sampling fallback on a DNF: the (ε, δ) or fixed sample
// count for its clause count, drawn from the job's own RNG (see jobRNG).
func (o Options) karpLuby(ec *core.ExecContext, f *lineage.DNF, probOf func(lineage.Var) float64, job int64) (float64, error) {
	n, err := o.klSamples(len(f.Clauses))
	if err != nil {
		return 0, err
	}
	return lineage.KarpLubyCtx(ec, f, probOf, n, o.jobRNG(job))
}

// jobRNG derives one inference job's sampling RNG from the evaluation seed
// and the job's identity — the answer's index in a grounding, its lineage
// node in a network — so approximate paths are reproducible at any
// Parallelism.
func (o Options) jobRNG(job int64) *rand.Rand {
	return rand.New(rand.NewSource(o.Seed ^ (job+1)*0x7f4a7c15))
}

// validateEpsDelta rejects half-set or out-of-range (ε, δ) pairs.
func (o Options) validateEpsDelta() error {
	if o.Epsilon == 0 && o.Delta == 0 {
		return nil
	}
	if o.Epsilon <= 0 || o.Epsilon >= 1 || o.Delta <= 0 || o.Delta >= 1 {
		return fmt.Errorf("engine: Epsilon and Delta must both be in (0,1), got ε=%v δ=%v", o.Epsilon, o.Delta)
	}
	return nil
}

func (o Options) exactBudget() int {
	switch {
	case o.ExactBudget == 0:
		return 500000
	case o.ExactBudget < 0:
		return -1
	default:
		return o.ExactBudget
	}
}

// Evidence is one observation: the named base tuple is known present or
// absent. Vals must match the stored tuple exactly (full relation arity).
type Evidence struct {
	Rel     string
	Vals    tuple.Tuple
	Present bool
}

// Row is one answer: the head-variable values and the answer probability.
// Vals is the row's own copy, made at answer assembly (one allocation per
// answer): it shares no storage with the operators' value chunks or with
// other rows, so keeping a Row keeps nothing else alive.
// Under the Dissociation strategy the row is bounds-valued: Lo and Hi
// bracket the true probability (Lo == Hi when the answer's lineage was
// read-once or solved exactly) and P is the interval midpoint; all other
// strategies leave Lo == Hi == P.
type Row struct {
	Vals   tuple.Tuple
	P      float64
	Lo, Hi float64
}

// Result is the outcome of one evaluation.
type Result struct {
	Attrs []string
	Rows  []Row
	Stats core.Stats
	// Net is the AND-OR network built by the network strategies (nil for
	// the lineage strategies); exposed for inspection and DOT export.
	Net *aonet.Network
}

// BoolProb returns the probability of a Boolean query: the single row's
// probability, or 0 when the query has no satisfying grounding.
func (r *Result) BoolProb() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	return r.Rows[0].P
}

// Prob returns the probability of the answer with the given head values,
// or 0 if absent.
func (r *Result) Prob(vals tuple.Tuple) float64 {
rows:
	for _, row := range r.Rows {
		if len(row.Vals) != len(vals) {
			continue
		}
		for i, v := range vals {
			if !v.KeyEqual(row.Vals[i]) {
				continue rows
			}
		}
		return row.P
	}
	return 0
}

// Evaluate runs the plan (which must be a plan for q) against db under the
// chosen strategy. The plan's scans identify relations by predicate name.
// It is EvaluateContext with a background context.
func Evaluate(db *relation.Database, q *query.Query, plan *query.Plan, opts Options) (*Result, error) {
	return EvaluateContext(context.Background(), db, q, plan, opts)
}

// EvaluateContext is Evaluate under a context: cancelling ctx (or exceeding
// Options.Budget) aborts the evaluation promptly — operators, exact
// inference and sampling all poll it at least every core.CheckInterval
// steps.
func EvaluateContext(ctx context.Context, db *relation.Database, q *query.Query, plan *query.Plan, opts Options) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := validateBaseProbs(db, q); err != nil {
		return nil, err
	}
	if err := opts.validateEpsDelta(); err != nil {
		return nil, err
	}
	ec := core.NewExecContext(ctx, core.ExecConfig{
		Budget:      opts.Budget,
		Parallelism: opts.Parallelism,
		Trace:       opts.Trace,
		Pooling:     true,
	})
	var res *Result
	var err error
	switch opts.Strategy {
	case core.PartialLineage, core.SafePlanOnly, core.FullNetwork:
		res, err = evalNetwork(ec, db, q, plan, opts)
	case core.DNFLineage, core.MonteCarlo:
		if len(opts.Evidence) > 0 {
			return nil, fmt.Errorf("engine: evidence conditioning requires a network strategy")
		}
		res, err = evalLineage(ec, db, q, plan, opts)
	case core.Dissociation:
		if len(opts.Evidence) > 0 {
			return nil, fmt.Errorf("engine: evidence conditioning requires a network strategy")
		}
		res, err = evalDissociation(ec, db, q, plan, opts)
	default:
		return nil, fmt.Errorf("engine: unknown strategy %v", opts.Strategy)
	}
	if err != nil {
		// Aborted evaluations (cancellation, deadline, budget exhaustion)
		// still return a Result carrying the work done so far — the partial
		// operator trace and the charged totals — alongside the error, so
		// callers like the query server can report where the time went. The
		// partial Result has no rows; only its Stats are meaningful.
		partial := &Result{}
		partial.Stats.Strategy = opts.Strategy
		partial.Stats.Operators = ec.Ops()
		partial.Stats.RowsCharged = ec.RowsCharged()
		partial.Stats.NodesCharged = ec.NodesCharged()
		partial.Stats.SpilledPartitions = ec.SpilledPartitions()
		partial.Stats.SpillBytes = ec.SpillBytes()
		partial.Stats.MemPeakBytes = ec.MemPeakBytes()
		return partial, err
	}
	res.Stats.RowsCharged = ec.RowsCharged()
	res.Stats.NodesCharged = ec.NodesCharged()
	res.Stats.SpilledPartitions = ec.SpilledPartitions()
	res.Stats.SpillBytes = ec.SpillBytes()
	res.Stats.MemPeakBytes = ec.MemPeakBytes()
	return res, nil
}

// EvaluateQuery is Evaluate with a plan chosen for the query: the safe plan
// when one exists, otherwise the join order the cost-aware planner estimates
// to condition the fewest offending tuples (planner.Plan). A caller that
// wants another plan passes it to Evaluate.
func EvaluateQuery(db *relation.Database, q *query.Query, opts Options) (*Result, error) {
	return EvaluateQueryContext(context.Background(), db, q, opts)
}

// EvaluateQueryContext is EvaluateQuery under a context.
func EvaluateQueryContext(ctx context.Context, db *relation.Database, q *query.Query, opts Options) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	ir, cached, err := planQuery(db, q, opts)
	if err != nil {
		return nil, err
	}
	res, err := EvaluateContext(ctx, db, q, ir.Physical, opts)
	if res != nil {
		res.Stats.PlanSource = ir.Source
		res.Stats.PlanOrder = strings.Join(ir.Order, ",")
		res.Stats.PlanEstOffending = ir.EstOffending
		res.Stats.PlanCandidates = ir.Candidates
		res.Stats.PlanSelectTime = ir.SelectTime
		res.Stats.PlanCache = cached
	}
	return res, err
}

// planQuery picks the physical plan for a query-level evaluation, through
// opts.Plans when one is attached; cached is the cache outcome (empty when no
// cache was consulted). The IR may be shared with other evaluations: the
// engine only ever reads it.
func planQuery(db *relation.Database, q *query.Query, opts Options) (ir *planner.IR, cached string, err error) {
	if opts.Plans != nil {
		return opts.Plans.Plan(db, q)
	}
	ir, err = planner.Plan(db, q, planner.Options{})
	return ir, "", err
}

// validateBaseProbs checks, once at the evaluation boundary, that every
// relation the query touches carries only probabilities in [0,1]. Relations
// built through the validated entry points (Relation.Add, the CSV loader,
// the pdb facade) always pass; the check exists for callers that fill
// relation.Rows directly, whose bad values would otherwise surface as
// panics deep inside the exact solvers. Relations missing from the database
// are skipped here — the executor reports them with better context.
func validateBaseProbs(db *relation.Database, q *query.Query) error {
	for i := range q.Atoms {
		rel, err := db.Relation(q.Atoms[i].Pred)
		if err != nil {
			continue
		}
		if err := rel.ValidateProbs(); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
	}
	return nil
}

// expansion is one answer's pre-expanded partial lineage: the DNF over the
// evaluation's shared variable space, or the error expansion hit. The
// engine expands all answers serially (in answer order) before the parallel
// inference stage, so variable numbering is deterministic and identical at
// every Parallelism and memo setting.
type expansion struct {
	f     *lineage.DNF
	probs []float64
	err   error
}

// answerMarginal computes one lineage node's marginal. With evidence it goes
// through the conditional network backends; otherwise it builds the answer's
// cost profile (expanded-lineage size; a treewidth estimate computed lazily,
// only when the profile is not trivially Shannon-first), asks the planner
// cost model for the backend attempt order, and walks it. Deterministic
// tractability failures — lineage.ErrBudget from the exact DNF solver,
// inference.ErrTooWide from the elimination backends — fall through to the
// next attempt; every other error surfaces immediately. The ranking always
// ends in sampling — Karp–Luby on the expanded formula when the expansion
// succeeded, forward sampling on the network otherwise; with NoFallback the
// last deterministic failure surfaces instead. Attempt outcomes are recorded
// into opts.PlannerSink (observability only) and into the confidence for the
// per-query stats. It only reads the network (pre carries this answer's
// expansion; lm and opts.Inference.Memo are internally synchronized), so it
// is safe to run concurrently; the approximate paths seed deterministically
// from Options.Seed and the node. Cancellation and budget errors from ec
// surface through confidence.err.
func answerMarginal(ec *core.ExecContext, net *aonet.Network, lin aonet.NodeID, opts Options, evidence map[aonet.NodeID]bool, pre *expansion, lm *lineage.Memo) confidence {
	if len(evidence) > 0 {
		// Conditional marginals go through the network backends: variable
		// elimination with the evidence pinned, then rejection sampling.
		r, err := inference.ExactGivenCtx(ec, net, lin, evidence, opts.Inference)
		if err == nil {
			return confidence{p: r.P, width: r.Width, vars: r.Vars, backend: "ve+evidence"}
		}
		if !errors.Is(err, inference.ErrTooWide) || opts.NoFallback {
			return confidence{err: err}
		}
		p, err := inference.MonteCarloGivenCtx(ec, net, lin, evidence, opts.samples(), opts.jobRNG(int64(lin)))
		if err != nil {
			return confidence{err: err}
		}
		return confidence{p: p, approx: true, backend: "rejection-sampling",
			reason: "conditional exact inference exceeded the width cap; rejection sampling"}
	}
	model := planner.DefaultCostModel()
	if opts.Inference.MaxFactorVars > 0 {
		model.MaxFactorVars = opts.Inference.MaxFactorVars
	}
	prof := planner.Profile{SharedMemo: opts.Inference.Memo != nil, Circuits: opts.circuitCache() != nil}
	var expanded *lineage.DNF
	var probOf func(lineage.Var) float64
	if pre != nil {
		switch {
		case pre.err == nil:
			expanded = pre.f
			probOf = func(v lineage.Var) float64 { return pre.probs[v] }
			prof.Expanded = true
			prof.Clauses = len(expanded.Clauses)
			prof.Vars = len(pre.probs)
		case !errors.Is(pre.err, inference.ErrExpansion):
			return confidence{err: pre.err}
		}
	}
	if model.NeedsWidth(prof) {
		// The estimate costs one greedy elimination ordering over the
		// answer's ancestor factors — cheap next to the elimination it
		// predicts, and skipped entirely for small expanded lineages.
		if w, nv, err := inference.WidthEstimate(net, lin, opts.Inference); err == nil {
			prof.HasWidth, prof.Width, prof.NetVars = true, w, nv
		}
	}
	var fallbacks []string
	var lastErr error
	fail := func(b planner.Backend, start time.Time, err error) {
		opts.PlannerSink.Record(b.String(), false, time.Since(start))
		fallbacks = append(fallbacks, b.String())
		lastErr = err
	}
	win := func(b planner.Backend, start time.Time, c confidence) confidence {
		opts.PlannerSink.Record(b.String(), true, time.Since(start))
		c.fallbacks = fallbacks
		c.predictMiss = len(fallbacks) > 0
		return c
	}
	for _, b := range model.Rank(prof) {
		start := time.Now()
		var c confidence
		var err error
		// tractability is the deterministic failure that sends the answer
		// on to the next ranked backend.
		tractability := inference.ErrTooWide
		switch b {
		case planner.BackendShannon, planner.BackendCircuit:
			// One slot: Rank names it BackendCircuit exactly when a circuit
			// cache is attached (Profile.Circuits above), which is when
			// solveExact evaluates the compiled circuit.
			c.p, _, err = opts.solveExact(ec, expanded, probOf, lm)
			tractability = lineage.ErrBudget
		case planner.BackendJTree, planner.BackendVE:
			solve := inference.ExactCtx
			if b == planner.BackendJTree {
				solve = inference.ExactJTCtx
			}
			var r inference.Result
			r, err = solve(ec, net, lin, opts.Inference)
			c = confidence{p: r.P, width: r.Width, vars: r.Vars}
		case planner.BackendSample:
			// Every ranking puts at least one exact backend first, so
			// reaching the sampling slot means lastErr is a tractability
			// error — the one NoFallback surfaces.
			if opts.NoFallback {
				return confidence{err: lastErr}
			}
			backend, how := "forward-sampling", "forward sampling on the network"
			if expanded != nil {
				backend, how = "karp-luby", "Karp–Luby sampling on the expanded lineage"
				c.p, err = opts.karpLuby(ec, expanded, probOf, int64(lin))
			} else {
				c.p, err = inference.MonteCarloCtx(ec, net, lin, opts.samples(), opts.jobRNG(int64(lin)))
			}
			if err != nil {
				return confidence{err: err}
			}
			opts.PlannerSink.Record(backend, true, time.Since(start))
			return confidence{p: c.p, approx: true, backend: backend, fallbacks: fallbacks, predictMiss: true,
				reason: fmt.Sprintf("exact backends exhausted (%s); %s", strings.Join(fallbacks, ", "), how)}
		}
		if err == nil {
			c.backend = b.String()
			return win(b, start, c)
		}
		if !errors.Is(err, tractability) {
			return confidence{err: err}
		}
		fail(b, start, err)
	}
	return confidence{err: lastErr}
}

type finalTuple struct {
	vals tuple.Tuple
	p    float64
	lin  aonet.NodeID
}
