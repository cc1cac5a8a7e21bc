package planner

import (
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/relation"
)

// Bounds of the two tiers. Package constants, not settings: the cache is an
// implementation detail of planning with no behaviour to tune (a plan is the
// same with or without it), so there is nothing for a knob to trade.
const (
	// maxPatternsPerRelation bounds the argument patterns remembered per
	// relation version. A pattern holds the rows its constants select, so the
	// bound is also the memory bound: at most this many filtered copies.
	maxPatternsPerRelation = 256
	// maxPlans bounds the plan tier (one entry per distinct query text).
	maxPlans = 1024
)

// Cache remembers planning work across Plan calls on one database, in two
// tiers, both made stale by the relations' versions and by nothing else:
//
//   - statistics: the name-free part of an atom's statistics (filtered rows,
//     uncertain count, lazily counted key profiles), keyed on (relation,
//     relation version, argument pattern);
//   - plans: the chosen IR, keyed on (canonical query text, versions of the
//     relations the query reads).
//
// Each relation has one slot holding the version it was filled at; a lookup
// that arrives with another version replaces the slot, and a plan entry whose
// version vector differs is overwritten. There is no invalidation call and
// the write path does not know the cache exists.
//
// Plans are a pure function of (query, data) with or without the cache: a
// cached IR equals the one Plan(db, q, Options{}) returns field for field,
// SelectTime aside. Cached Physical plans point into the Atoms of the query
// that was planned first, so queries handed to a Cache must not be mutated
// afterwards (pdb.Query is immutable), and consumers must treat IR.Order,
// IR.Physical and the atoms as read-only — the engine does.
//
// A Cache is safe for concurrent use by callers that share the lock guarding
// the database's relations (evaluations under pdb.Database's read lock): the
// table and every entry's key memo carry their own synchronisation.
type Cache struct {
	// version reads a relation's current version; see NewCache.
	version func(rel string) int64

	mu    sync.Mutex
	rels  map[string]*relSlot
	plans map[string]*planEntry
	stats CacheStats
}

// CacheStats are a Cache's cumulative lookup counters and resident sizes.
// StatsMisses is the number of statistics passes made over relations.
type CacheStats struct {
	PlanHits, PlanMisses   uint64
	StatsHits, StatsMisses uint64
	// Plans and Patterns are the entries resident now.
	Plans, Patterns int
}

// relSlot is one relation's statistics at one version.
type relSlot struct {
	version  int64
	patterns map[string]*relStats
}

// planEntry is one query's chosen IR at one version vector (aligned with
// the query's atoms).
type planEntry struct {
	versions []int64
	ir       *IR
}

// NewCache creates an empty cache. version must return the named relation's
// mutation counter, changing whenever the relation's rows or probabilities
// do; the cache calls it from Plan and Choose, on the caller's goroutine, so
// it may rely on whatever lock the caller holds over the database.
func NewCache(version func(rel string) int64) *Cache {
	return &Cache{
		version: version,
		rels:    make(map[string]*relSlot),
		plans:   make(map[string]*planEntry),
	}
}

// Stats returns the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	out.Plans = len(c.plans)
	for _, slot := range c.rels {
		out.Patterns += len(slot.patterns)
	}
	return out
}

// Plan is the package-level Plan with default Options through the cache. The
// second result is the outcome, one of core.PlanCachePlan, core.PlanCacheStats and
// core.PlanCacheMiss.
func (c *Cache) Plan(db *relation.Database, q *query.Query) (*IR, string, error) {
	start := time.Now()
	var kbuf [128]byte
	key := appendQueryKey(kbuf[:0], q)
	// The versions are read before the table lock is taken: version is the
	// caller's code and may take locks of its own.
	var vbuf [8]int64
	versions := vbuf[:0]
	for i := range q.Atoms {
		versions = append(versions, c.version(q.Atoms[i].Pred))
	}
	c.mu.Lock()
	e, ok := c.plans[string(key)]
	hit := ok && slices.Equal(e.versions, versions)
	if hit {
		c.stats.PlanHits++
	} else {
		c.stats.PlanMisses++
	}
	c.mu.Unlock()
	if hit {
		ir := *e.ir
		ir.SelectTime = time.Since(start)
		return &ir, core.PlanCachePlan, nil
	}

	ir, passes, err := plan(db, q, Options{}, c)
	if err != nil {
		return nil, core.PlanCacheMiss, err
	}
	c.mu.Lock()
	if !ok && len(c.plans) >= maxPlans {
		evictOne(c.plans)
	}
	c.plans[string(key)] = &planEntry{versions: slices.Clone(versions), ir: ir}
	c.mu.Unlock()
	out := *ir
	out.SelectTime = time.Since(start)
	if ir.Source == SourceGreedy && passes == 0 {
		return &out, core.PlanCacheStats, nil
	}
	return &out, core.PlanCacheMiss, nil
}

// Choose is the package-level Choose with default Options, its statistics
// read through the cache. The ranking itself is not remembered: callers that
// want every candidate (pdb.OptimizePlan) pay for enumeration and scoring.
func (c *Cache) Choose(db *relation.Database, q *query.Query) (*Candidate, []Candidate, error) {
	best, all, _, err := choose(db, q, Options{}, c)
	return best, all, err
}

// statsFor returns the statistics of atom a over rel, from the statistics
// tier when rel's version and a's argument pattern are known, otherwise by
// one pass over rel that is then remembered. hit reports which.
func (c *Cache) statsFor(rel *relation.Relation, a *query.Atom) (s *relStats, hit bool) {
	version := c.version(a.Pred)
	var buf [64]byte
	key := appendPatternKey(buf[:0], a)
	c.mu.Lock()
	slot := c.rels[a.Pred]
	if slot == nil || slot.version != version {
		slot = &relSlot{version: version, patterns: make(map[string]*relStats)}
		c.rels[a.Pred] = slot
	}
	s, hit = slot.patterns[string(key)]
	if hit {
		c.stats.StatsHits++
	} else {
		c.stats.StatsMisses++
		if len(slot.patterns) >= maxPatternsPerRelation {
			evictOne(slot.patterns)
		}
		s = new(relStats)
		slot.patterns[string(key)] = s
	}
	c.mu.Unlock()
	// The pass runs outside the table lock and once per entry: a concurrent
	// planner that found the entry waits here for the one that made it.
	s.fill.Do(func() { s.scan(rel, a) })
	return s, hit
}

// evictOne drops an arbitrary entry (map iteration order) to make room.
// Which one only changes what is recomputed, never a plan.
func evictOne[V any](m map[string]V) {
	for k := range m {
		delete(m, k)
		return
	}
}

// appendPatternKey appends atom a's argument pattern: per argument either its
// typed constant or the position of its variable's first occurrence. Variable
// names do not appear, so R(h, x) and R(g, y) share a key, while R(x, x),
// R(1, x) and R("1", x) each have their own.
func appendPatternKey(b []byte, a *query.Atom) []byte {
	for i, t := range a.Args {
		if !t.IsVar() {
			b = t.Const.AppendKey(append(b, 'c'))
		} else {
			b = strconv.AppendInt(append(b, 'v'), int64(firstArg(a, i)), 10)
		}
		b = append(b, '|')
	}
	return b
}

// appendQueryKey appends the canonical text of q for the plan tier: head
// variables, then every atom with its predicate, variable names and typed
// constants, each name length-prefixed so that no two queries share a key.
// Variable names are kept (a cached Physical plan scans the first query's
// atoms and emits its variable names); the query's own name is not (no part
// of an IR depends on it).
func appendQueryKey(b []byte, q *query.Query) []byte {
	for _, h := range q.Head {
		b = appendName(b, h)
	}
	for i := range q.Atoms {
		a := &q.Atoms[i]
		b = appendName(append(b, ';'), a.Pred)
		for _, t := range a.Args {
			if t.IsVar() {
				b = appendName(append(b, 'v'), t.Var)
			} else {
				b = t.Const.AppendKey(append(b, 'c'))
				b = append(b, '|')
			}
		}
	}
	return b
}

// appendName appends s length-prefixed.
func appendName(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	return append(b, s...)
}
