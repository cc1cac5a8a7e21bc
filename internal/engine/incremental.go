package engine

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/lineage"
	"repro/internal/query"
	"repro/internal/relation"
)

// Materialized is a query result kept patchable under database mutations:
// the full DNF lineage of the query (one grounding over a shared variable
// space), the probability of every lineage variable, and the solved
// confidence of every answer.
//
// The representation is the grounded lineage regardless of the strategy the
// caller evaluates with elsewhere: exact strategies solve each answer with
// the Shannon solver (bit-identical to Strategy=DNFLineage), MonteCarlo with
// Karp–Luby under the engine's per-answer seeding (bit-identical to
// Strategy=MonteCarlo at the same Seed). Probability changes never alter the
// lineage's *structure* — which rows join, which clauses exist, which rows
// carry variables — as long as they stay inside the open interval (0,1):
// rows with P=0 are skipped when the grounder indexes a relation, and rows
// with P=1 ground without a variable. PatchProbs exploits exactly that
// invariant; everything else (insert, delete, a probability crossing 0 or 1)
// is structural and must go through Recompute.
//
// A Materialized is not safe for concurrent use; callers serialize
// PatchProbs/Recompute/Result externally (the pdb facade does).
type Materialized struct {
	q    *query.Query
	plan *query.Plan
	opts Options

	g     *Grounding
	varOf map[VarSource]lineage.Var
	deps  map[lineage.Var][]int // variable -> answer indexes mentioning it
	conf  []float64             // solved probability per answer
	// memo shares Shannon subproblems across answers and is Reset whenever
	// probabilities change; nil when the view solves through opts.Circuits,
	// its private circuit cache, which is Reset on rebuild only.
	memo *lineage.Memo

	// PatchedAnswers and RecomputedAll count what refreshes did, for the
	// caller's metrics.
	PatchedAnswers int
	RecomputedAll  int
}

// ProbPatch is one prob-update delta addressed by base tuple position.
// OldP is the probability the caller believes the row had; PatchProbs
// rejects the patch as structural if it disagrees with the materialized
// state, so a missed delta can never silently desynchronize the view.
type ProbPatch struct {
	Rel        string
	Row        int
	OldP, NewP float64
}

// patchable reports whether the patch preserves grounding structure: both
// endpoints strictly inside (0,1).
func (p ProbPatch) patchable() bool {
	return p.OldP > 0 && p.OldP < 1 && p.NewP > 0 && p.NewP < 1
}

// Materialize grounds and solves q over db with the given plan, returning a
// handle that can be patched under prob-updates and recomputed under
// structural change. Unsupported options (evidence conditioning) are
// rejected; budget, samples, (ε,δ), seed, memo and circuit knobs all apply.
func Materialize(db *relation.Database, q *query.Query, plan *query.Plan, opts Options) (*Materialized, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(opts.Evidence) > 0 {
		return nil, fmt.Errorf("engine: materialized views do not support evidence conditioning")
	}
	if err := opts.validateEpsDelta(); err != nil {
		return nil, err
	}
	// A view always owns a private circuit cache (never the database-shared
	// one the caller's opts.Circuits may name): rebuild() must be free to drop
	// compiled structure on structural change without evicting other queries'
	// entries. Prob-update refreshes deliberately do NOT reset it — circuit
	// structure depends only on the clause set, so a patched refresh
	// re-evaluates the compiled circuits in linear time instead of re-running
	// Shannon. Without one, the Shannon memo is what refreshes share.
	opts.Circuits = nil
	if !opts.NoCircuit {
		opts.Circuits = lineage.NewCircuitCache(lineage.CircuitCacheConfig{})
	}
	m := &Materialized{q: q, plan: plan, opts: opts}
	if !opts.NoMemo && opts.Circuits == nil {
		m.memo = lineage.NewMemo(lineage.MemoConfig{})
	}
	if err := m.rebuild(db); err != nil {
		return nil, err
	}
	return m, nil
}

// rebuild grounds from scratch and solves every answer.
func (m *Materialized) rebuild(db *relation.Database) error {
	if err := validateBaseProbs(db, m.q); err != nil {
		return err
	}
	ec := m.execContext()
	g, err := GroundCtx(ec, db, m.q, m.plan)
	if err != nil {
		return err
	}
	m.g = g
	m.varOf = make(map[VarSource]lineage.Var, len(g.Sources))
	for v, src := range g.Sources {
		m.varOf[src] = lineage.Var(v)
	}
	m.deps = make(map[lineage.Var][]int)
	for i := range g.Answers {
		seen := make(map[lineage.Var]bool)
		for _, c := range g.Answers[i].F.Clauses {
			for _, v := range c {
				if !seen[v] {
					seen[v] = true
					m.deps[v] = append(m.deps[v], i)
				}
			}
		}
	}
	m.memo.Reset()
	// Structural change: the clause sets (and hence the circuit-cache keys)
	// may have changed, so compiled structure is dropped wholesale. Contrast
	// PatchProbs, which keeps it — values are re-derived by Eval.
	m.opts.Circuits.Reset()
	m.conf = make([]float64, len(g.Answers))
	for i := range g.Answers {
		p, err := m.solve(ec, i)
		if err != nil {
			return err
		}
		m.conf[i] = p
	}
	return nil
}

// execContext builds a fresh ExecContext for one refresh, honouring the
// materialization's budget and parallelism options.
func (m *Materialized) execContext() *core.ExecContext {
	return core.NewExecContext(nil, core.ExecConfig{
		Budget:      m.opts.Budget,
		Parallelism: m.opts.Parallelism,
		Pooling:     true,
	})
}

// solve computes answer i's confidence from the current probability table
// through evalLineage's per-answer job. evalLineage skips the shared memo on
// single-answer groundings; values are bit-identical either way, so a view
// threads its memo unconditionally — sharing across refreshes is the point.
func (m *Materialized) solve(ec *core.ExecContext, i int) (float64, error) {
	c := m.opts.dnfConfidence(ec, m.g.Answers[i].F, func(v lineage.Var) float64 { return m.g.Probs[v] }, int64(i), m.memo)
	return c.p, c.err
}

// PatchProbs applies a batch of prob-update deltas in place. It returns
// (true, nil) when every patch was structure-preserving and the affected
// answers were re-solved; (false, nil) when at least one patch is structural
// (an endpoint at 0 or 1, or OldP disagreeing with the materialized state) —
// the view is then left completely untouched and the caller must Recompute.
//
// A patched refresh is bit-identical to Materialize from scratch on the
// mutated database: the grounding is structurally unchanged, untouched
// answers keep values that from-scratch solving would reproduce bit-for-bit
// (exact solving is deterministic; sampling reuses the per-answer seed), and
// dirty answers are re-solved through the same code path.
func (m *Materialized) PatchProbs(patches []ProbPatch) (bool, error) {
	type apply struct {
		v lineage.Var
		p float64
	}
	var applies []apply
	dirty := make(map[int]bool)
	// overlay tracks the value each variable would hold after the patches
	// seen so far, so a batch carrying two consecutive updates to the same
	// row validates each OldP against its predecessor, not the base state.
	overlay := make(map[lineage.Var]float64)
	for _, p := range patches {
		if !p.patchable() {
			return false, nil
		}
		v, ok := m.varOf[VarSource{Rel: p.Rel, Row: p.Row}]
		if !ok {
			// The row never joined into any grounding; with both endpoints in
			// (0,1) it still doesn't. Nothing depends on it.
			continue
		}
		cur, seen := overlay[v]
		if !seen {
			cur = m.g.Probs[v]
		}
		if cur != p.OldP {
			return false, nil
		}
		overlay[v] = p.NewP
		applies = append(applies, apply{v: v, p: p.NewP})
		for _, ai := range m.deps[v] {
			dirty[ai] = true
		}
	}
	for _, a := range applies {
		m.g.Probs[a.v] = a.p
	}
	if len(dirty) == 0 {
		return true, nil
	}
	// Memoized Shannon values are functions of (clause fingerprint,
	// probability table); the table changed, so drop them.
	m.memo.Reset()
	order := make([]int, 0, len(dirty))
	for ai := range dirty {
		order = append(order, ai)
	}
	sort.Ints(order)
	ec := m.execContext()
	for _, ai := range order {
		p, err := m.solve(ec, ai)
		if err != nil {
			return false, err
		}
		m.conf[ai] = p
		m.PatchedAnswers++
	}
	return true, nil
}

// Recompute rebuilds the view from scratch against the database's current
// contents — the fallback for structural deltas (insert, delete, probability
// endpoints at 0 or 1, or a truncated delta log).
func (m *Materialized) Recompute(db *relation.Database) error {
	if err := m.rebuild(db); err != nil {
		return err
	}
	m.RecomputedAll++
	return nil
}

// Result assembles the current answers as an engine Result (fresh copy;
// later refreshes do not mutate it).
func (m *Materialized) Result() *Result {
	res := &Result{Attrs: append([]string(nil), m.g.Attrs...)}
	res.Stats.Strategy = m.opts.Strategy
	res.Stats.Approximate = m.opts.Strategy == core.MonteCarlo
	res.Stats.LineageClauses = m.g.ClauseCount()
	res.Stats.LineageVars = m.g.VarCount()
	res.Stats.Answers = len(m.g.Answers)
	for i := range m.g.Answers {
		res.Rows = append(res.Rows, Row{Vals: m.g.Answers[i].Vals, P: m.conf[i], Lo: m.conf[i], Hi: m.conf[i]})
	}
	return res
}

// CircuitStats reports the view's circuit-cache counters: compiles and
// evictions grow on structural rebuilds, hits and evals on patched refreshes
// that re-evaluated compiled structure. The zero value is returned when the
// view was materialized with NoCircuit.
func (m *Materialized) CircuitStats() lineage.CircuitCacheStats {
	return m.opts.Circuits.Stats()
}

// Relations returns the distinct relation names the materialized query
// reads, sorted — its cache-invalidation dependency set.
func (m *Materialized) Relations() []string {
	seen := make(map[string]bool)
	var out []string
	for i := range m.q.Atoms {
		if p := m.q.Atoms[i].Pred; !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}
