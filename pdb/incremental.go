package pdb

import (
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/query"
)

// Materialized is a query result kept up to date incrementally: Materialize
// evaluates once and retains the grounded lineage; Refresh then replays the
// database's delta log against it. Refreshes that consist only of
// prob-update deltas with both endpoints strictly inside (0,1) are applied
// by re-weighting the retained lineage and re-solving just the answers that
// mention a changed tuple — bit-identical to evaluating from scratch,
// because such updates cannot change which rows join (see
// docs/INCREMENTAL.md). Structural deltas — inserts, deletes, probabilities
// crossing 0 or 1, or a delta log truncated past the view's snapshot — fall
// back to a full recompute.
//
// Deltas on relations the query does not read are skipped entirely: they
// cannot change the result, so a view over relation B refreshes for free
// while relation A churns.
//
// A Materialized is safe for concurrent use; Refresh calls serialize.
type Materialized struct {
	d     *Database
	q     *Query
	m     *engine.Materialized
	reads map[string]bool

	mu  sync.Mutex
	seq int64 // delta sequence the view reflects
}

// RefreshKind reports how a Refresh brought the view up to date.
type RefreshKind int

// Refresh outcomes.
const (
	// RefreshNoop: no deltas touched the view's read set.
	RefreshNoop RefreshKind = iota
	// RefreshPatched: prob-update deltas were applied in place.
	RefreshPatched
	// RefreshRecomputed: a structural delta (or truncated log) forced a
	// full re-evaluation.
	RefreshRecomputed
)

// String names the refresh kind.
func (k RefreshKind) String() string {
	switch k {
	case RefreshNoop:
		return "noop"
	case RefreshPatched:
		return "patched"
	case RefreshRecomputed:
		return "recomputed"
	}
	return "unknown"
}

// Materialize evaluates q once and returns a handle whose result can be
// refreshed incrementally as the database mutates. The view evaluates
// through the grounded-lineage representation: exact strategies solve with
// the Shannon solver (bit-identical to Strategy DNFLineage), MonteCarlo with
// the engine's seeded Karp–Luby sampler (bit-identical to Strategy
// MonteCarlo at the same Seed). Evidence conditioning is not supported.
func (d *Database) Materialize(q *Query, opts Options) (*Materialized, error) {
	// The same plan at every recompute, whatever the data: that is what makes
	// a refreshed result comparable bit for bit against a fresh Materialize.
	plan, err := query.FixedPlan(q.q)
	if err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	m, err := engine.Materialize(d.db, q.q, plan, opts.engineOptions())
	if err != nil {
		return nil, err
	}
	reads := make(map[string]bool)
	for _, name := range q.Relations() {
		reads[name] = true
	}
	return &Materialized{d: d, q: q, m: m, reads: reads, seq: d.deltaSeq}, nil
}

// Refresh brings the view up to date with the database, reporting how: a
// no-op when nothing it reads changed, an in-place patch when every relevant
// delta is a structure-preserving prob-update, a full recompute otherwise.
// Either way the view afterwards reflects every mutation logged before the
// call.
func (v *Materialized) Refresh() (RefreshKind, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.d.mu.RLock()
	defer v.d.mu.RUnlock()
	deltas, ok := v.d.deltasSinceLocked(v.seq)
	head := v.d.deltaSeq
	if ok {
		var patches []engine.ProbPatch
		patchable := true
		for _, delta := range deltas {
			if !v.reads[delta.Relation] {
				continue
			}
			if delta.Kind != DeltaProbUpdate {
				patchable = false
				break
			}
			patches = append(patches, engine.ProbPatch{
				Rel:  delta.Relation,
				Row:  delta.Row,
				OldP: delta.OldP,
				NewP: delta.NewP,
			})
		}
		if patchable && len(patches) == 0 {
			v.seq = head
			return RefreshNoop, nil
		}
		if patchable {
			applied, err := v.m.PatchProbs(patches)
			if err != nil {
				return RefreshRecomputed, err
			}
			if applied {
				v.seq = head
				obs.Default.ObserveRefresh(true)
				return RefreshPatched, nil
			}
		}
	}
	if err := v.m.Recompute(v.d.db); err != nil {
		return RefreshRecomputed, err
	}
	v.seq = head
	obs.Default.ObserveRefresh(false)
	return RefreshRecomputed, nil
}

// Result assembles the view's current answers. The returned Result is a
// fresh copy; later refreshes do not mutate it.
func (v *Materialized) Result() *Result {
	v.mu.Lock()
	defer v.mu.Unlock()
	return wrapResult(v.m.Result(), v.q)
}

// Relations returns the view's sorted dependency set: the relations whose
// mutations can change its answers.
func (v *Materialized) Relations() []string { return v.q.Relations() }

// CircuitStats reports the view's compiled-circuit cache counters: compiles
// grow when answers are first solved (and on structural recomputes, which
// drop compiled structure), hits and evals when patched refreshes re-evaluate
// retained circuits in linear time. All zero when the view was materialized
// with Options.NoCircuit.
func (v *Materialized) CircuitStats() CircuitCacheStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.m.CircuitStats()
}
