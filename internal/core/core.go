// Package core holds the types shared by every layer of the query engine:
// the evaluation strategies (Strategy), the per-evaluation statistics
// (Stats, OpStat, JoinStat), and the execution context (ExecContext) that
// threads cancellation, resource budgets, the parallelism grant and the
// operator-trace sink through the pl operators, the relational executor,
// the lineage solvers and the inference backends.
//
// core sits at the bottom of the dependency graph — it imports nothing from
// the rest of the repository — so that internal/pl, internal/engine,
// internal/lineage, internal/inference, internal/obs and the public pdb
// facade can all agree on one vocabulary for strategies, budgets and
// traces. See docs/ARCHITECTURE.md for the full package map.
//
// The tracing model: operators open spans with ExecContext.StartOp and
// close them with FinishOp, which appends a core.OpStat charging the span
// its own wall time and network growth (children excluded). Spans nest
// strictly, so Ops returns a post-order, depth-annotated flat list from
// which internal/obs reconstructs the operator tree for EXPLAIN ANALYZE
// rendering and JSON export.
package core

import (
	"fmt"
	"time"
)

// Strategy selects how a query is evaluated.
type Strategy int

const (
	// PartialLineage is the paper's contribution: extensional evaluation
	// with conditioning on offending tuples, producing a partial-lineage
	// AND-OR network on which exact inference runs (Section 5).
	PartialLineage Strategy = iota
	// SafePlanOnly evaluates purely extensionally and fails if the plan is
	// not data-safe on the instance (any operator needs conditioning).
	SafePlanOnly
	// FullNetwork treats every uncertain tuple as offending, materializing
	// the full intensional AND-OR network — the AND/OR-factor-graph method
	// of Sen & Deshpande [25] (Section 4.3.2).
	FullNetwork
	// DNFLineage computes the complete DNF lineage and runs exact
	// variable-elimination confidence computation on it — the MayBMS
	// method [16], the paper's experimental competitor.
	DNFLineage
	// MonteCarlo computes the complete DNF lineage and estimates each
	// answer probability with the Karp–Luby estimator.
	MonteCarlo
	// Dissociation computes the complete DNF lineage and bounds each answer
	// probability by dissociating shared variables into independent copies
	// (Gatterbauer & Suciu): read-once lineage factorizes exactly, anything
	// else gets a guaranteed [lo, hi] interval in one extensional pass — no
	// Shannon expansion, variable elimination or sampling. Results are
	// bounds, not point estimates.
	Dissociation
)

var strategyNames = map[Strategy]string{
	PartialLineage: "partial",
	SafePlanOnly:   "safe",
	FullNetwork:    "network",
	DNFLineage:     "dnf",
	MonteCarlo:     "mc",
	Dissociation:   "dissociation",
}

// String returns the short name used by the CLI tools.
func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy resolves a CLI strategy name.
func ParseStrategy(name string) (Strategy, error) {
	for s, n := range strategyNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q (want partial, safe, network, dnf, mc or dissociation)", name)
}

// Strategies lists all strategies in a stable order.
func Strategies() []Strategy {
	return []Strategy{PartialLineage, SafePlanOnly, FullNetwork, DNFLineage, MonteCarlo, Dissociation}
}

// OpStat is one operator's line in the execution trace (engine Options
// with Trace enabled): output cardinality, network growth attributable to
// the operator, and wall time with its inputs' construction excluded.
//
// The trace is flat: ExecContext.Ops returns OpStats in post-order
// (children before their parent) with Depth recording each span's nesting
// level, which is enough to reconstruct the operator tree —
// internal/obs.BuildTrace does exactly that.
type OpStat struct {
	// Op renders the operator.
	Op string
	// Kind classifies the span for tooling: "scan", "join", "project",
	// "join.spill", "project.spill", "ground", "infer",
	// "infer.answer".
	Kind string
	// Depth is the span's nesting level (0 = a root of the trace forest).
	Depth int
	// Rows is the operator's output cardinality.
	Rows int
	// RowsIn is the operator's input cardinality: the base-relation size for
	// scans, the summed input sizes for joins and projections. Zero for
	// spans with no meaningful input (e.g. inference aggregates).
	RowsIn int
	// Conditioned is the number of offending tuples conditioned at this
	// operator (joins only; Definition 5.14's cSets of both sides).
	Conditioned int
	// NetworkGrowth is the number of AND-OR nodes the operator added.
	NetworkGrowth int
	// Time is the operator's own wall time (children excluded).
	Time time.Duration
	// Detail is optional human-readable extra context, e.g. the inference
	// backend used by an answer span, or a fallback reason.
	Detail string
}

// JoinStat reports one join operator's conditioning work.
type JoinStat struct {
	// Join renders the operator, e.g. "R(x) ⋈ S(x, y)".
	Join string
	// Conditioned is the number of offending tuples conditioned at this
	// join (Definition 5.14's cSets of both sides).
	Conditioned int
}

// Planning-cache outcomes (Stats.PlanCache), reported per query-level plan.
const (
	// PlanCachePlan: the plan came out of the cache's plan tier; nothing was
	// enumerated.
	PlanCachePlan = "plan"
	// PlanCacheStats: the orders were enumerated and scored again, but every
	// atom's statistics were remembered (no pass over a relation).
	PlanCacheStats = "stats"
	// PlanCacheMiss: neither tier answered in full: at least one atom made
	// its pass over a relation (or, for a safe query, the plan was
	// synthesized).
	PlanCacheMiss = "miss"
)

// Stats reports what one evaluation did. Fields are filled as applicable to
// the strategy.
type Stats struct {
	Strategy Strategy

	// OffendingTuples is the number of tuples conditioned across all join
	// operators — the instance's distance from data-safety (Definition 3.4).
	OffendingTuples int

	// NetworkNodes/NetworkEdges size the AND-OR network built (including ε).
	NetworkNodes int
	NetworkEdges int

	// NetworkWidthBound is a greedy treewidth upper bound of the network's
	// undirected graph Ḡ (Theorem 5.17's complexity parameter), filled when
	// the engine is asked to measure it.
	NetworkWidthBound int

	// InferenceWidth is the largest variable-elimination width encountered
	// across answer tuples; InferenceVars the largest variable count.
	InferenceWidth int
	InferenceVars  int

	// Approximate is set when exact inference exceeded the width limit and
	// the engine fell back to sampling.
	Approximate bool

	// FallbackReason explains why the evaluation became approximate (or, for
	// the MonteCarlo strategy, that sampling was requested): the first
	// fallback reason encountered across answers. Empty for fully exact
	// evaluations.
	FallbackReason string

	// LineageClauses/LineageVars size the DNF lineage (intensional
	// strategies).
	LineageClauses int
	LineageVars    int

	// Answers is the number of result rows.
	Answers int

	// PerJoin breaks OffendingTuples down by join operator, in plan
	// execution order (network strategies only).
	PerJoin []JoinStat

	// Operators is the per-operator execution trace, in post-order, filled
	// when tracing is enabled (network strategies only).
	Operators []OpStat

	// PlanTime covers relational execution (and grounding); InferenceTime
	// covers probability computation.
	PlanTime      time.Duration
	InferenceTime time.Duration

	// RowsCharged/NodesCharged are the totals the evaluation charged against
	// its ExecContext — rows emitted by relational operators (or lineage
	// clauses grounded) and AND-OR network nodes grown. Accumulated whether
	// or not a budget was set; exported as process counters by internal/obs.
	RowsCharged  int64
	NodesCharged int64

	// Spill fields (bounded-memory execution, Budget.Mem / docs/SPILL.md).
	// SpilledPartitions counts operator hash partitions that overflowed the
	// memory budget onto temp files; SpillBytes totals the bytes written to
	// them; MemPeakBytes is the high-water mark of charged operator scratch.
	// Results are byte-identical whether or not anything spilled.
	SpilledPartitions int64
	SpillBytes        int64
	MemPeakBytes      int64

	// Memo counters (performance layer, PR 5): hits/misses/evictions across
	// the evaluation's shared inference memo tables (lineage Shannon
	// subproblems and VE component solves combined), ConsHits the number of
	// AddGate calls answered by the network's hash-consing table instead of
	// allocating a node. All zero when memoization is disabled.
	MemoHits      int64
	MemoMisses    int64
	MemoEvictions int64
	ConsHits      int

	// Compiled-circuit counters (knowledge-compilation layer).
	// CircuitCompiles counts lineage formulas compiled to d-DNNF circuits
	// during the evaluation, CircuitHits the answers served from
	// already-compiled structure in the circuit cache, and CircuitEvals the
	// linear re-evaluation passes run. All zero when the circuit backend is
	// disabled (Options.NoCircuit or no cache attached).
	CircuitCompiles int64
	CircuitHits     int64
	CircuitEvals    int64

	// Planner fields (adaptive planning layer). PlanSource labels how the
	// physical plan was chosen ("safe" or "greedy"); PlanOrder is the
	// comma-joined join order behind it (empty for safe plans);
	// PlanEstOffending and PlanCandidates are the estimator's offending
	// prediction for the chosen order and the number of orders it scored;
	// PlanSelectTime is the wall time spent choosing (PlanTime, by contrast,
	// covers executing the plan). PlanCache says which tier of the database's
	// planning cache answered, one of the PlanCache* constants; empty when no
	// cache was consulted. All empty/zero when the engine was handed an
	// explicit plan.
	PlanSource       string
	PlanOrder        string
	PlanEstOffending int
	PlanCandidates   int
	PlanSelectTime   time.Duration
	PlanCache        string

	// Bounds fields (Dissociation strategy only). BoundsValued marks the
	// result rows as carrying guaranteed [Lo, Hi] intervals rather than
	// point estimates; BoundsExact counts answers whose interval collapsed
	// (read-once lineage, factorized exactly); BoundsMaxWidth is the widest
	// interval across answers; DissociatedVars totals the shared variables
	// split into independent copies across all answers.
	BoundsValued    bool
	BoundsExact     int
	BoundsMaxWidth  float64
	DissociatedVars int

	// Backend-choice fields. BackendChoices counts answers by the inference
	// backend that produced them; BackendFallbacks counts ranked attempts
	// that failed deterministically (expansion budget, elimination width)
	// and fell through to the next backend; BackendPredictionMisses counts
	// answers whose first-ranked backend was not the one that succeeded —
	// the cost model's miss rate.
	BackendChoices          map[string]int
	BackendFallbacks        map[string]int
	BackendPredictionMisses int
}
