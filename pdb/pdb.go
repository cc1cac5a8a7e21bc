// Package pdb is the public API of the probabilistic query engine: a Go
// reproduction of "Bridging the Gap Between Intensional and Extensional
// Query Evaluation in Probabilistic Databases" (Jha, Olteanu, Suciu,
// EDBT 2010).
//
// The engine evaluates conjunctive queries over tuple-independent
// probabilistic databases. Safe queries — and unsafe queries on favourable
// instances — are evaluated purely extensionally inside the relational
// executor; where the data violates data-safety, only the offending tuples
// are treated symbolically (partial lineage), and a final inference pass
// over a compact AND-OR network computes the answer probabilities.
//
// Quick start:
//
//	db := pdb.NewDatabase()
//	r := db.CreateRelation("R", "x")
//	r.Add(0.5, pdb.Int(1))
//	s := db.CreateRelation("S", "x", "y")
//	s.Add(0.8, pdb.Int(1), pdb.Int(2))
//	q, _ := pdb.ParseQuery("q :- R(a), S(a, b)")
//	res, _ := db.Evaluate(q, pdb.Options{})
//	fmt.Println(res.BoolProb())
package pdb

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/inference"
	"repro/internal/lineage"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/sqlgen"
	"repro/internal/topk"
	"repro/internal/tuple"
)

// Value is a typed scalar stored in a relation: an int64, float64 or string.
type Value = tuple.Value

// Convenience constructors for values.
var (
	Int    = tuple.Int
	Float  = tuple.Float
	String = tuple.String
)

// ParseValue interprets s as an int, then a float, then falls back to a
// string — the same coercion the CSV loader applies. It is the inverse of
// Value.String for the values the loaders produce, which makes it the right
// decoder for values arriving as text (CLI arguments, HTTP bodies).
var ParseValue = tuple.ParseValue

// Strategy selects the evaluation method.
type Strategy = core.Strategy

// Evaluation strategies.
const (
	// PartialLineage (the default) is the paper's hybrid method.
	PartialLineage = core.PartialLineage
	// SafePlanOnly evaluates purely extensionally and fails when the plan is
	// not data-safe on the instance.
	SafePlanOnly = core.SafePlanOnly
	// FullNetwork builds the complete intensional AND-OR network
	// (the factor-graph method of Sen & Deshpande).
	FullNetwork = core.FullNetwork
	// DNFLineage computes full DNF lineage and exact confidence
	// (the MayBMS method).
	DNFLineage = core.DNFLineage
	// MonteCarlo computes full DNF lineage and a Karp–Luby estimate.
	MonteCarlo = core.MonteCarlo
	// StrategyDissociation computes full DNF lineage and guaranteed
	// [Lo, Hi] probability bounds per answer by dissociating shared
	// variables (Gatterbauer & Suciu), in one extensional pass. Result rows
	// are bounds-valued — Row.Lo/Hi bracket the true probability, Row.P is
	// the interval midpoint — and collapse to exact on read-once lineage.
	StrategyDissociation = core.Dissociation
)

// ParseStrategy resolves a strategy name: partial, safe, network, dnf, mc
// or dissociation.
func ParseStrategy(name string) (Strategy, error) { return core.ParseStrategy(name) }

// Stats reports what an evaluation did; see core.Stats for field docs.
type Stats = core.Stats

// Budget caps an evaluation's resources: Rows bounds the tuples flowing
// through the operator pipeline, Nodes bounds AND-OR network growth, Time
// bounds wall clock, and Mem bounds operator scratch memory in bytes —
// join/dedup partitions that would exceed it spill to temp files and the
// results stay byte-identical to unbounded execution (docs/SPILL.md). Zero
// fields are unlimited.
type Budget = core.Budget

// CircuitCacheStats reports compiled-circuit cache counters (compiles, hits,
// misses, evals, evictions, resident entries and bytes); returned by
// Database.CircuitCacheStats and Materialized.CircuitStats.
type CircuitCacheStats = lineage.CircuitCacheStats

// PlanCacheStats reports the planning cache's counters; returned by
// Database.PlanCacheStats.
type PlanCacheStats = planner.CacheStats

// Budget-exhaustion errors, matchable with errors.Is. Time exhaustion
// surfaces as context.DeadlineExceeded, cancellation as context.Canceled.
var (
	ErrRowBudget  = core.ErrRowBudget
	ErrNodeBudget = core.ErrNodeBudget
)

// ErrNotDataSafe is returned by the SafePlanOnly strategy when the plan
// needs conditioning on this instance; matchable with errors.Is.
var ErrNotDataSafe = engine.ErrNotDataSafe

// SampleCountError is returned when Options.Epsilon and Options.Delta are a
// valid pair but an answer's lineage has so many clauses that the Karp–Luby
// sample count ⌈4·m·ln(2/δ)/ε²⌉ does not fit an int; it carries ε, δ and the
// clause count m. Matchable with errors.As.
type SampleCountError = engine.SampleCountError

// Mutation errors, matchable with errors.Is: ErrInvalidProb reports a
// presence probability outside [0,1] (including NaN), rejected at insert
// time by Add/AddInts/SetProb; ErrNoSuchTuple reports that SetProb or Delete
// named a tuple the relation does not contain.
var (
	ErrInvalidProb = relation.ErrInvalidProb
	ErrNoSuchTuple = relation.ErrNoSuchTuple
)

// Options configures Evaluate.
type Options struct {
	// Strategy defaults to PartialLineage.
	Strategy Strategy
	// MaxWidth caps the exact-inference elimination width (in variables);
	// zero means the engine default (22). Past the cap the engine falls
	// back to sampling unless NoFallback is set.
	MaxWidth int
	// Samples for MonteCarlo and the sampling fallback (default 100000).
	Samples int
	// Epsilon and Delta request an (ε, δ) accuracy guarantee from the
	// Karp–Luby sampler instead of a fixed sample count: when both are set
	// (each in (0,1)), every sampled answer uses n = ⌈4·m·ln(2/δ)/ε²⌉
	// samples for its m-clause lineage, bounding the relative error by ε
	// with probability at least 1−δ. Samples is ignored on the Karp–Luby
	// paths while both are set; setting exactly one of the two is an error.
	Epsilon, Delta float64
	// Seed for the samplers. Approximate paths derive a per-answer RNG from
	// Seed and the answer identity, so a fixed Seed makes Karp–Luby results
	// fully reproducible at any Parallelism.
	Seed int64
	// NoFallback turns the sampling fallback into an error.
	NoFallback bool
	// Parallelism is the number of worker goroutines for per-answer
	// inference (0 or 1 = sequential). Results are identical either way,
	// down to network node identity.
	Parallelism int
	// Budget caps rows, network nodes and wall clock; exceeding it aborts
	// the evaluation with ErrRowBudget, ErrNodeBudget or
	// context.DeadlineExceeded. Budget.Mem instead degrades gracefully:
	// join/dedup spill partitions to disk and the answers stay
	// byte-identical to unbounded execution (docs/SPILL.md).
	Budget Budget
	// Trace records a per-operator execution trace into Stats.Operators
	// (network strategies only).
	Trace bool
	// Evidence conditions the evaluation on observations about base tuples:
	// answer probabilities become P(answer | evidence). Network strategies
	// only; zero-probability evidence is an error.
	Evidence []Evidence
	// NoMemo disables the per-evaluation shared inference memo tables.
	// Exact answers are bit-identical with and without them; the flag exists
	// for ablation and the crosscheck equivalence tests.
	NoMemo bool
	// NoCons disables AND-OR network hash-consing of deterministic gates
	// (for the node-count ablation; always sound either way).
	NoCons bool
	// NoCircuit disables the compiled-circuit exact backend: per-answer
	// exact inference reverts to the memoized Shannon solver and prob-update
	// refreshes of materialized views re-solve instead of re-evaluating
	// cached d-DNNF circuits. Ablation knob: answers are bit-identical with
	// and without it (the circuit compiler replays the Shannon recursion),
	// so the flag changes speed and Stats.Circuit* counters, never bytes.
	NoCircuit bool
	// ExactBudget caps the exact solver's Shannon expansions per answer
	// before the strategy's fallback engages (0 = engine default 500000,
	// < 0 = unlimited). Under StrategyDissociation a starved exact pass
	// falls through to genuine dissociation bounds, which makes this the
	// knob for forcing interval-valued answers on small instances.
	ExactBudget int
}

// Evidence is one observation: the named base tuple (full arity values) is
// known present or absent.
type Evidence struct {
	Relation string
	Vals     []Value
	Present  bool
}

func (o Options) engineOptions() engine.Options {
	out := engine.Options{
		Strategy:    o.Strategy,
		Inference:   inference.Options{MaxFactorVars: o.MaxWidth},
		Samples:     o.Samples,
		Epsilon:     o.Epsilon,
		Delta:       o.Delta,
		Seed:        o.Seed,
		NoFallback:  o.NoFallback,
		Parallelism: o.Parallelism,
		Trace:       o.Trace,
		Budget:      o.Budget,
		NoMemo:      o.NoMemo,
		NoCons:      o.NoCons,
		NoCircuit:   o.NoCircuit,
		ExactBudget: o.ExactBudget,
		// The process-wide sink: backend attempt telemetry for metrics and
		// the pdbbench calibration report. Observability only — never an
		// input to planning (see planner.Sink).
		PlannerSink: planner.DefaultSink,
	}
	for _, ev := range o.Evidence {
		out.Evidence = append(out.Evidence, engine.Evidence{
			Rel:     ev.Relation,
			Vals:    tuple.Tuple(ev.Vals),
			Present: ev.Present,
		})
	}
	return out
}

// Database is a tuple-independent probabilistic database: a set of named
// relations whose tuples carry independent presence probabilities.
//
// A Database is safe for concurrent use through this facade: mutations
// (CreateRelation, Relation.Add/AddInts/SetProb/Delete) take a write lock,
// bump the mutated relation's version (and the whole-database version) and
// append a delta to the bounded mutation log; evaluations and reads run
// under a read lock. The per-relation versions are what the query server's
// result cache keys on — a cached answer is valid exactly as long as the
// versions of the relations the query reads are unchanged, so a write to one
// relation never invalidates answers over the others. The delta log is what
// materialized views (Materialize) replay to refresh incrementally.
type Database struct {
	db *relation.Database

	// mu guards the underlying relations, the per-relation versions and the
	// delta log: mutators hold it exclusively, evaluations and readers share
	// it.
	mu sync.RWMutex
	// version counts mutations across the whole database; monotonically
	// increasing, never reused. Retained as the cheap "anything changed?"
	// signal; fine-grained consumers use relVersions.
	version atomic.Int64
	// relVersions counts mutations per relation (creation is mutation one).
	relVersions map[string]int64
	// deltas is the bounded mutation log; see Delta and DeltasSince.
	deltas   []Delta
	deltaSeq int64 // seq of the last appended delta

	// circuits is the database-shared compiled-circuit cache, attached to
	// every evaluation unless Options.NoCircuit: answers whose canonical
	// lineage fingerprint was compiled before — by the same query or any
	// other — are served by a linear circuit evaluation instead of a Shannon
	// re-solve. Keys are structure-only (clause sets, not probabilities), so
	// mutations never make entries wrong: prob-updates re-evaluate the same
	// structure with new leaf probabilities, and structural writes produce
	// new keys while stale entries age out of the LRU.
	circuits *lineage.CircuitCache

	// plans is the database's planning cache, attached to every evaluation
	// the way circuits is: per-relation statistics and chosen plans, each
	// remembered together with the relVersions it was computed at. An entry
	// whose version is no longer the relation's is replaced by the lookup that
	// finds it, so the write path above knows nothing of it — a mutation
	// re-derives one relation's statistics at the next plan and leaves the
	// rest. The cache reads relVersions without locking: every caller
	// (evaluation, OptimizePlan) already holds mu.RLock.
	plans *planner.Cache
}

// newDatabase wraps db with empty caches; relation versions start at zero.
func newDatabase(db *relation.Database) *Database {
	d := &Database{
		db:          db,
		relVersions: make(map[string]int64),
		circuits:    lineage.NewCircuitCache(lineage.CircuitCacheConfig{}),
	}
	d.plans = planner.NewCache(func(rel string) int64 { return d.relVersions[rel] })
	return d
}

// maxDeltaLog bounds the retained mutation log. Refreshers that fall behind
// by more than this many mutations see a truncated log (DeltasSince ok=false)
// and recompute from scratch — bounded memory traded against patchability.
const maxDeltaLog = 4096

// NewDatabase creates an empty database.
func NewDatabase() *Database { return newDatabase(relation.NewDatabase()) }

// LoadDatabase reads a database from a directory of <name>.csv files as
// written by SaveDir (header row naming the attributes plus a final "p"
// probability column).
func LoadDatabase(dir string) (*Database, error) {
	db, err := relation.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	out := newDatabase(db)
	for _, name := range db.Names() {
		out.relVersions[name] = 1
	}
	return out, nil
}

// SaveDir writes every relation to dir as <name>.csv.
func (d *Database) SaveDir(dir string) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.db.SaveDir(dir)
}

// Version returns the database's whole-snapshot version: a monotonic counter
// bumped by every mutation (CreateRelation, Add, AddInts, SetProb, Delete).
// Two reads returning the same version bracket an unchanged database. The
// query server's result cache keys on the finer-grained per-relation
// versions (VersionVector) so unrelated writes don't invalidate it; Version
// remains the coarse "did anything change at all?" signal.
func (d *Database) Version() int64 { return d.version.Load() }

// CircuitCacheStats reports the database-shared compiled-circuit cache's
// counters: how many lineage formulas were compiled to d-DNNF circuits, how
// many answers were served from already-compiled structure, and what the
// cache currently holds. The cache is shared across queries, so hits here
// include cross-query reuse of common lineage cores.
func (d *Database) CircuitCacheStats() CircuitCacheStats {
	return d.circuits.Stats()
}

// PlanCacheStats reports the database's planning cache: plan-tier hits and
// misses (a hit plans a repeated query in a lookup), statistics-tier hits and
// misses (a miss is one pass over a relation; a mutation costs one, on the
// relation it touched), and what the two tiers currently hold.
func (d *Database) PlanCacheStats() PlanCacheStats {
	return d.plans.Stats()
}

// RelationVersion returns the named relation's mutation counter: 0 if the
// relation was never created, otherwise 1 at creation plus 1 per mutation
// (Add, AddInts, SetProb, Delete) since.
func (d *Database) RelationVersion(name string) int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.relVersions[name]
}

// VersionVector returns the versions of the named relations, aligned with
// names (0 for relations that don't exist). Reading the vector is atomic
// with respect to mutations: a single read lock covers all entries, so the
// result is a consistent snapshot. Two equal vectors over a query's read set
// bracket a period in which every relation the query reads is unchanged —
// the invalidation rule of the query server's result cache.
func (d *Database) VersionVector(names ...string) []int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]int64, len(names))
	for i, n := range names {
		out[i] = d.relVersions[n]
	}
	return out
}

// DeltaKind classifies one mutation in the delta log.
type DeltaKind int

// Delta kinds.
const (
	// DeltaInsert is a tuple insert (Add/AddInts): structural.
	DeltaInsert DeltaKind = iota
	// DeltaDelete is a tuple delete: structural (later rows shift down).
	DeltaDelete
	// DeltaProbUpdate re-weights an existing tuple in place: patchable by
	// materialized views when both endpoints are strictly inside (0,1).
	DeltaProbUpdate
)

// String names the kind for logs and metrics.
func (k DeltaKind) String() string {
	switch k {
	case DeltaInsert:
		return "insert"
	case DeltaDelete:
		return "delete"
	case DeltaProbUpdate:
		return "prob_update"
	}
	return "unknown"
}

// Delta is one logged mutation: which relation, which row position, and the
// probability transition. Row is the row index at the time of the mutation
// (for DeltaInsert, the index the tuple landed at; for DeltaDelete, the
// index it vacated). Seq is the database-wide mutation sequence number,
// strictly increasing by one per logged mutation.
type Delta struct {
	Seq      int64
	Kind     DeltaKind
	Relation string
	Row      int
	Vals     []Value
	OldP     float64
	NewP     float64
}

// DeltaSeq returns the sequence number of the most recent logged mutation
// (0 when nothing was ever logged). CreateRelation bumps versions but logs
// no delta — a freshly created empty relation changes no query result.
func (d *Database) DeltaSeq() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.deltaSeq
}

// DeltasSince returns every logged mutation with Seq > since, oldest first,
// and whether the log still reaches back that far. ok=false means the
// bounded log was truncated past since; the caller's snapshot is too old to
// patch and must be recomputed from scratch.
func (d *Database) DeltasSince(since int64) (deltas []Delta, ok bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.deltasSinceLocked(since)
}

// deltasSinceLocked is DeltasSince for callers already holding mu.
func (d *Database) deltasSinceLocked(since int64) ([]Delta, bool) {
	if since >= d.deltaSeq {
		return nil, true
	}
	oldest := d.deltaSeq - int64(len(d.deltas)) // seq just before the log's first entry
	if since < oldest {
		return nil, false
	}
	out := make([]Delta, d.deltaSeq-since)
	copy(out, d.deltas[int64(len(d.deltas))-(d.deltaSeq-since):])
	return out, true
}

// recordLocked bumps the mutated relation's version (and the whole-database
// version) and appends one delta to the bounded log. Callers hold mu.
func (d *Database) recordLocked(delta Delta) {
	d.version.Add(1)
	d.relVersions[delta.Relation]++
	d.deltaSeq++
	delta.Seq = d.deltaSeq
	d.deltas = append(d.deltas, delta)
	if len(d.deltas) > maxDeltaLog {
		// Drop the oldest half in one move so appends stay amortized O(1).
		keep := len(d.deltas) - maxDeltaLog/2
		d.deltas = append(d.deltas[:0:0], d.deltas[keep:]...)
	}
	obs.Default.ObserveDelta(delta.Kind.String())
}

// Relation provides access to one relation for loading tuples.
type Relation struct {
	r *relation.Relation
	d *Database
}

// CreateRelation registers an empty relation with the given attribute names
// and returns a handle for adding tuples. Predicate names in queries must
// start with an uppercase letter to parse.
func (d *Database) CreateRelation(name string, attrs ...string) *Relation {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := relation.New(name, attrs...)
	d.db.AddRelation(r)
	d.version.Add(1)
	d.relVersions[name]++
	return &Relation{r: r, d: d}
}

// Relation returns a handle to an existing relation.
func (d *Database) Relation(name string) (*Relation, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, err := d.db.Relation(name)
	if err != nil {
		return nil, err
	}
	return &Relation{r: r, d: d}, nil
}

// Names lists the relation names in insertion order.
func (d *Database) Names() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.db.Names()
}

// Add appends a tuple with presence probability p, bumps the relation's
// version and logs an insert delta. Probabilities outside [0,1] (including
// NaN) are rejected at insert time with relation.ErrInvalidProb (re-exported
// as ErrInvalidProb), matchable with errors.Is.
func (r *Relation) Add(p float64, vals ...Value) error {
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	if err := r.r.Add(tuple.Tuple(vals), p); err != nil {
		return err
	}
	r.d.recordLocked(Delta{
		Kind:     DeltaInsert,
		Relation: r.r.Name,
		Row:      r.r.Len() - 1,
		Vals:     append([]Value(nil), vals...),
		NewP:     p,
	})
	return nil
}

// AddInts appends a tuple of integer values with presence probability p; see
// Add.
func (r *Relation) AddInts(p float64, vals ...int64) error {
	t := tuple.Ints(vals...)
	return r.Add(p, t...)
}

// SetProb re-weights the first stored tuple holding exactly vals to presence
// probability p, bumps the relation's version and logs a prob-update delta.
// It rejects probabilities outside [0,1] with ErrInvalidProb and missing
// tuples with ErrNoSuchTuple. Row order is untouched, so a prob-update with
// both endpoints strictly inside (0,1) preserves every grounding's structure
// — the patchable case of incremental maintenance (see docs/INCREMENTAL.md).
func (r *Relation) SetProb(p float64, vals ...Value) error {
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	row, old, err := r.r.SetProb(tuple.Tuple(vals), p)
	if err != nil {
		return err
	}
	r.d.recordLocked(Delta{
		Kind:     DeltaProbUpdate,
		Relation: r.r.Name,
		Row:      row,
		Vals:     append([]Value(nil), vals...),
		OldP:     old,
		NewP:     p,
	})
	return nil
}

// Delete removes the first stored tuple holding exactly vals, bumps the
// relation's version and logs a delete delta (a structural change: later
// rows shift down one index). Missing tuples are rejected with
// ErrNoSuchTuple.
func (r *Relation) Delete(vals ...Value) error {
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	row, old, err := r.r.Delete(tuple.Tuple(vals))
	if err != nil {
		return err
	}
	r.d.recordLocked(Delta{
		Kind:     DeltaDelete,
		Relation: r.r.Name,
		Row:      row,
		Vals:     append([]Value(nil), vals...),
		OldP:     old,
	})
	return nil
}

// Len returns the number of tuples.
func (r *Relation) Len() int {
	r.d.mu.RLock()
	defer r.d.mu.RUnlock()
	return r.r.Len()
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.r.Name }

// Attrs returns the attribute names.
func (r *Relation) Attrs() []string { return append([]string(nil), r.r.Attrs...) }

// Tuple is one stored tuple with its presence probability.
type Tuple struct {
	Vals []Value
	P    float64
}

// Tuples returns a copy of the relation's contents.
func (r *Relation) Tuples() []Tuple {
	r.d.mu.RLock()
	defer r.d.mu.RUnlock()
	out := make([]Tuple, len(r.r.Rows))
	for i, row := range r.r.Rows {
		out[i] = Tuple{Vals: append([]Value(nil), row.Tuple...), P: row.P}
	}
	return out
}

// Query is a parsed conjunctive query.
type Query struct {
	q *query.Query
}

// ParseQuery parses datalog syntax, e.g. "q(h) :- R(h, x), S(h, x, y)".
// Head variables group the answers; a query without head variables is
// Boolean. Self-joins are not supported.
func ParseQuery(text string) (*Query, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	return &Query{q: q}, nil
}

// String renders the query back in input syntax.
func (q *Query) String() string { return q.q.String() }

// Relations returns the distinct relation names the query's body reads,
// sorted. This is the query's dependency set: its answers can only change
// when one of these relations mutates, which is what the query server's
// cache keys on (VersionVector over exactly this set).
func (q *Query) Relations() []string {
	seen := make(map[string]bool)
	var out []string
	for i := range q.q.Atoms {
		if p := q.q.Atoms[i].Pred; !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// Head returns the query's head (answer) variables in declaration order;
// empty for a Boolean query. These are the attribute names of every answer
// row the query produces.
func (q *Query) Head() []string { return append([]string(nil), q.q.Head...) }

// IsSafe reports whether the query is safe (hierarchical): evaluable purely
// extensionally on every instance.
func (q *Query) IsSafe() bool { return q.q.IsSafe() }

// IsStrictlyHierarchical reports whether the query's lineage has bounded
// treewidth on all instances (Theorem 4.2 of the paper).
func (q *Query) IsStrictlyHierarchical() bool { return q.q.IsStrictlyHierarchical() }

// Plan is a physical query plan.
type Plan struct {
	p *query.Plan
}

// String renders the plan as a relational-algebra expression.
func (p *Plan) String() string { return p.p.String() }

// SafePlan synthesizes a plan whose joins are 1-1 on every instance. It
// fails for unsafe queries.
func SafePlan(q *Query) (*Plan, error) {
	p, err := query.SafePlan(q.q)
	if err != nil {
		return nil, err
	}
	return &Plan{p: p}, nil
}

// LeftDeepPlan builds the left-deep plan joining atoms in the given
// predicate order, with projections onto the still-needed variables after
// each join.
func LeftDeepPlan(q *Query, order ...string) (*Plan, error) {
	p, err := query.LeftDeepPlan(q.q, order)
	if err != nil {
		return nil, err
	}
	return &Plan{p: p}, nil
}

// PlanChoice reports one costed join order from OptimizePlan.
type PlanChoice struct {
	Order []string
	Plan  *Plan
	// EstOffending is the estimator's predicted offending-tuple count for
	// the order; EstRows its predicted total intermediate cardinality
	// (the ranking's tiebreaker).
	EstOffending int
	EstRows      float64
}

// OptimizePlan performs data-aware plan selection (the paper's Section 8
// open question): it costs candidate left-deep join orders with the
// pattern-visible selectivity estimator — concrete constants, shared
// variables and relation key profiles, no dry-runs — and returns the plan
// estimated to condition the fewest offending tuples, plus the full
// ranking. This is the same estimator EvaluateQuery consults by default;
// see docs/PLANNER.md.
func (d *Database) OptimizePlan(q *Query) (*PlanChoice, []PlanChoice, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	best, all, err := d.plans.Choose(d.db, q.q)
	if err != nil {
		return nil, nil, err
	}
	wrap := func(c planner.Candidate) PlanChoice {
		return PlanChoice{
			Order:        c.Order,
			Plan:         &Plan{p: c.Plan},
			EstOffending: c.EstOffending,
			EstRows:      c.EstRows,
		}
	}
	ranked := make([]PlanChoice, len(all))
	for i, c := range all {
		ranked[i] = wrap(c)
	}
	b := wrap(*best)
	return &b, ranked, nil
}

// Row is one answer with its probability. Under StrategyDissociation the
// row is bounds-valued: Lo and Hi bracket the true probability (Lo == Hi
// when the answer's lineage factorized exactly) and P is the interval
// midpoint. All other strategies set Lo == Hi == P.
type Row struct {
	Vals   []Value
	P      float64
	Lo, Hi float64
}

// Result holds the answers and run statistics of one evaluation.
type Result struct {
	Attrs []string
	Rows  []Row
	Stats Stats

	res   *engine.Result
	query string
}

// BoolProb returns the probability of a Boolean query (0 when there is no
// satisfying grounding).
func (r *Result) BoolProb() float64 { return r.res.BoolProb() }

// Top returns the k most probable answers, ties broken by head values, in
// descending probability order. k <= 0 or k beyond the answer count returns
// all answers.
func (r *Result) Top(k int) []Row {
	rows := append([]Row(nil), r.Rows...)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].P != rows[j].P {
			return rows[i].P > rows[j].P
		}
		return tuple.Tuple(rows[i].Vals).Compare(tuple.Tuple(rows[j].Vals)) < 0
	})
	if k > 0 && k < len(rows) {
		rows = rows[:k]
	}
	return rows
}

// Prob returns the probability of the answer with the given head values.
func (r *Result) Prob(vals ...Value) float64 { return r.res.Prob(tuple.Tuple(vals)) }

// Trace is the hierarchical execution trace of one evaluation; see
// internal/obs.Trace for field docs and docs/OBSERVABILITY.md for the
// rendered format.
type Trace = obs.Trace

// TraceSpan is one operator in a Trace.
type TraceSpan = obs.Span

// Trace reconstructs the evaluation's operator tree from its statistics.
// It is only populated when the evaluation ran with Options.Trace set (the
// header summary is filled either way). Render it with Trace.WriteTree or
// Trace.WriteJSON, or use Explain directly.
func (r *Result) Trace() *Trace { return obs.BuildTrace(r.query, r.Stats) }

// Explain writes the evaluation's EXPLAIN ANALYZE tree — per-operator rows
// in/out, offending tuples conditioned, AND-OR network growth, own wall
// time, the inference backend per answer and any sampling-fallback reason —
// to w. Evaluate with Options.Trace set to get the operator tree; without
// it only the summary header is printed.
func (r *Result) Explain(w io.Writer) error { return r.Trace().WriteTree(w) }

// WriteNetworkDOT writes the evaluation's AND-OR network in Graphviz DOT
// format. It fails for the lineage strategies, which build no network.
func (r *Result) WriteNetworkDOT(w io.Writer) error {
	if r.res.Net == nil {
		return fmt.Errorf("pdb: strategy %v builds no AND-OR network", r.Stats.Strategy)
	}
	return r.res.Net.WriteDOT(w, nil)
}

// GenerateSQL renders the batch of SQL statements that implement the
// query's left-deep plan in the paper's in-database style: per-operator
// temporary tables, cSet computation, conditioning, probability arithmetic,
// and AND-OR network edges materialized into a table L(v, w, p). order is
// the join order; empty order means the query's body order. The script is
// documentation-grade (SQL Server-flavored), showing how the method maps
// onto a DBMS; the in-process engine remains the system of record.
func GenerateSQL(q *Query, order []string) (string, error) {
	if len(order) == 0 || (len(order) == 1 && order[0] == "") {
		order = query.BodyOrder(q.q)
	}
	plan, err := query.LeftDeepPlan(q.q, order)
	if err != nil {
		return "", err
	}
	return sqlgen.Generate(q.q, plan)
}

// TopAnswer is one answer of a top-k query with its probability bounds
// (Lo == Hi when computed exactly). Seeded marks intervals initialized from
// guaranteed dissociation bounds.
type TopAnswer struct {
	Vals   []Value
	Lo, Hi float64
	Exact  bool
	Seeded bool
}

// TopKOptions tunes a top-k evaluation; the zero value of everything but K
// is usable.
type TopKOptions struct {
	// K is the number of answers wanted (required, ≥ 1).
	K int
	// Seed drives the samplers.
	Seed int64
	// Eps stops refining intervals narrower than this (default 1e-3).
	Eps float64
	// NoSeedBounds disables dissociation interval seeding — every non-exact
	// answer is separated by cold multisimulation alone. Ablation knob; see
	// docs/STRATEGIES.md.
	NoSeedBounds bool
}

// TopKResult is the ranked answer set of a top-k evaluation.
type TopKResult struct {
	// Answers is the chosen top-k, most probable first.
	Answers []TopAnswer
	// Separated reports whether the set was provably separated from the
	// rest; false means the boundary ranking used interval midpoints.
	Separated bool
	// Rounds is the number of refinement rounds the multisimulation ran.
	Rounds int
	// SeededExact counts answers whose dissociation interval collapsed to a
	// point (read-once lineage) — ranked without any sampling.
	SeededExact int
	// Sampled counts answers that needed Karp–Luby samples.
	Sampled int
}

// TopK returns the k most probable answers of q using dissociation-seeded
// multisimulation (Ré, Dalvi & Suciu): every answer starts with a
// guaranteed [lo, hi] dissociation interval computed in one extensional
// pass, and per-answer Karp–Luby refinement is spent only on answers whose
// intervals still straddle the k-th boundary. The boolean result reports
// whether the separation is provable at the estimators' confidence. Small
// lineages are computed exactly. seed drives the samplers.
func (d *Database) TopK(q *Query, k int, seed int64) ([]TopAnswer, bool, error) {
	res, err := d.TopKQuery(q, TopKOptions{K: k, Seed: seed})
	if err != nil {
		return nil, false, err
	}
	return res.Answers, res.Separated, nil
}

// TopKQuery is TopK with full options and a full result: ranked answers
// plus how the ranking was earned (rounds, seeding, sampling). The
// evaluation is recorded into the pdb_topk_* process metrics. It is
// TopKQueryContext with a background context.
func (d *Database) TopKQuery(q *Query, opts TopKOptions) (*TopKResult, error) {
	return d.TopKQueryContext(context.Background(), q, opts)
}

// TopKQueryContext is TopKQuery under a context: grounding polls ctx as every
// evaluation does, and the multisimulation checks it between refinement
// rounds, so a cancelled or expired ctx returns its error within one round.
func (d *Database) TopKQueryContext(ctx context.Context, q *Query, opts TopKOptions) (*TopKResult, error) {
	plan, err := query.FixedPlan(q.q)
	if err != nil {
		return nil, err
	}
	ec := core.NewExecContext(ctx, core.ExecConfig{})
	d.mu.RLock()
	g, err := engine.GroundCtx(ec, d.db, q.q, plan)
	d.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	res, err := topk.FromGrounding(ctx, g, topk.Options{
		K:            opts.K,
		Seed:         opts.Seed,
		Eps:          opts.Eps,
		NoSeedBounds: opts.NoSeedBounds,
	})
	if err != nil {
		return nil, err
	}
	out := &TopKResult{
		Separated:   res.Separated,
		Rounds:      res.Rounds,
		SeededExact: res.SeededExact,
		Sampled:     res.Sampled,
	}
	for _, a := range res.Top {
		out.Answers = append(out.Answers, TopAnswer{Vals: a.Vals, Lo: a.Lo, Hi: a.Hi, Exact: a.Exact, Seeded: a.Seeded})
	}
	obs.Default.ObserveTopK(obs.TopKObservation{
		Answers:     len(g.Answers),
		Rounds:      res.Rounds,
		SeededExact: res.SeededExact,
		Sampled:     res.Sampled,
		Separated:   res.Separated,
	})
	return out, nil
}

// Evaluate runs the query with the plan the planner chooses: the safe plan
// when the query is safe, otherwise the join order estimated to condition the
// fewest offending tuples (docs/PLANNER.md).
func (d *Database) Evaluate(q *Query, opts Options) (*Result, error) {
	return d.EvaluateContext(context.Background(), q, opts)
}

// EvaluateContext is Evaluate under a context: cancellation and deadlines
// propagate into every layer of the pipeline — operators, grounding, exact
// inference and sampling — which abort promptly with ctx's error.
//
// When the evaluation is aborted mid-flight (cancellation, deadline or a
// Budget dimension), the non-nil error is accompanied by a partial Result:
// it has no rows, but its Stats carry the operator trace recorded so far
// and the rows/nodes charged, so Trace/Explain show where the time went.
func (d *Database) EvaluateContext(ctx context.Context, q *Query, opts Options) (*Result, error) {
	start := time.Now()
	eo := opts.engineOptions()
	eo.Circuits = d.circuits
	eo.Plans = d.plans
	d.mu.RLock()
	res, err := engine.EvaluateQueryContext(ctx, d.db, q.q, eo)
	d.mu.RUnlock()
	if err != nil {
		partial := wrapPartial(res, q)
		observe(opts.Strategy, start, partial, err)
		return partial, err
	}
	out := wrapResult(res, q)
	observe(opts.Strategy, start, out, nil)
	return out, nil
}

// CrossCheck evaluates the query with both the partial-lineage engine and
// the independent DNF-lineage path and verifies the answers agree within
// tol (default 1e-9 when tol <= 0). It returns the partial-lineage result.
// Useful as a belt-and-braces mode for correctness-critical applications;
// it costs roughly the sum of both strategies. Approximate fallbacks are
// disabled, so intractable instances return an error rather than a
// non-comparable estimate.
func (d *Database) CrossCheck(q *Query, tol float64) (*Result, error) {
	if tol <= 0 {
		tol = 1e-9
	}
	partial, err := d.Evaluate(q, Options{Strategy: PartialLineage, NoFallback: true})
	if err != nil {
		return nil, fmt.Errorf("pdb: cross-check partial lineage: %w", err)
	}
	dnf, err := d.Evaluate(q, Options{Strategy: DNFLineage, NoFallback: true})
	if err != nil {
		return nil, fmt.Errorf("pdb: cross-check DNF lineage: %w", err)
	}
	if len(partial.Rows) != len(dnf.Rows) {
		return nil, fmt.Errorf("pdb: cross-check failed: %d vs %d answers", len(partial.Rows), len(dnf.Rows))
	}
	for _, row := range partial.Rows {
		ref := dnf.Prob(row.Vals...)
		if diff := row.P - ref; diff > tol || diff < -tol {
			return nil, fmt.Errorf("pdb: cross-check failed on answer %v: %.12f vs %.12f", row.Vals, row.P, ref)
		}
	}
	return partial, nil
}

// EvaluateWithPlan runs the query with an explicit plan.
func (d *Database) EvaluateWithPlan(q *Query, p *Plan, opts Options) (*Result, error) {
	return d.EvaluateWithPlanContext(context.Background(), q, p, opts)
}

// EvaluateWithPlanContext is EvaluateWithPlan under a context; see
// EvaluateContext (including the partial Result accompanying abort errors).
func (d *Database) EvaluateWithPlanContext(ctx context.Context, q *Query, p *Plan, opts Options) (*Result, error) {
	start := time.Now()
	eo := opts.engineOptions()
	eo.Circuits = d.circuits
	d.mu.RLock()
	res, err := engine.EvaluateContext(ctx, d.db, q.q, p.p, eo)
	d.mu.RUnlock()
	if err != nil {
		partial := wrapPartial(res, q)
		observe(opts.Strategy, start, partial, err)
		return partial, err
	}
	out := wrapResult(res, q)
	observe(opts.Strategy, start, out, nil)
	return out, nil
}

// observe folds one facade-level evaluation into the process metrics
// registry (obs.Default): query count, latency histogram, per-strategy
// answer counts, budget-exhaustion and cancellation classification.
func observe(strategy Strategy, start time.Time, res *Result, err error) {
	o := obs.QueryObservation{
		Strategy: strategy,
		Duration: time.Since(start),
		Err:      err,
	}
	if res != nil {
		o.Stats = &res.Stats
	}
	obs.Default.ObserveQuery(o)
}

func wrapResult(res *engine.Result, q *Query) *Result {
	out := &Result{Attrs: res.Attrs, Stats: res.Stats, res: res, query: q.String()}
	for _, row := range res.Rows {
		out.Rows = append(out.Rows, Row{Vals: row.Vals, P: row.P, Lo: row.Lo, Hi: row.Hi})
	}
	return out
}

// wrapPartial wraps the rowless partial result the engine returns alongside
// abort errors (nil in the pre-evaluation error cases, where there is no
// partial work to report).
func wrapPartial(res *engine.Result, q *Query) *Result {
	if res == nil {
		return nil
	}
	return wrapResult(res, q)
}
