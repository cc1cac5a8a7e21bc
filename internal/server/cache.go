package server

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/pdb"
)

// The serving-layer result cache: answers to repeated identical queries are
// returned from memory instead of re-evaluated, as long as the relations the
// query reads have not changed underneath them.
//
// Correctness rests on the per-relation versions of pdb.Database: every
// mutation bumps the mutated relation's version, and cache keys embed the
// version vector of exactly the relations the query reads, observed before
// the evaluation started. A lookup therefore can only hit an entry computed
// against the same state of every relation that could influence the answer —
// and a write to relation A leaves entries for queries reading only relation
// B hittable, where the old whole-database version key cold-started the
// entire cache on any write. An insert is performed only when the read-set
// vector is unchanged after the evaluation finished (the double check in
// Server.evaluate) — a result computed while a writer raced the reader is
// discarded, never served.
//
// Stale entries could never hit again (their keys embed superseded
// versions), but they would linger until LRU eviction and crowd out live
// ones. A per-relation index (byRel) garbage-collects them instead: each
// lookup reports the current versions of the relations it reads, and
// whenever a relation is observed at a new version, every cached entry
// reading it at an older version is dropped — a fine-grained invalidation
// sweep, counted in pdb_cache_invalidation_* metrics, touching only
// dependents of what actually changed.
//
// Concurrent identical requests collapse through a single-flight table: the
// first request (the leader) evaluates and publishes its response; waiters
// block on the flight (or their deadline) and reuse it. When the leader fails
// or declines to publish, waiters evaluate independently — an error is never
// broadcast, so one poisoned request cannot fail its whole cohort.

// cacheEntry is one cached response on the LRU list (head = most recent).
// rels/vec record the entry's read set and the relation versions it was
// computed at, for the fine-grained invalidation index.
type cacheEntry struct {
	key        string
	rels       []string
	vec        []int64
	resp       *QueryResponse
	bytes      int64
	prev, next *cacheEntry
}

// flight is one in-progress evaluation that identical requests wait on.
// done is closed by the leader; resp is non-nil only when the leader
// published a cacheable response.
type flight struct {
	done chan struct{}
	resp *QueryResponse
}

type resultCache struct {
	metrics *obs.Registry

	mu      sync.Mutex
	entries map[string]*cacheEntry
	head    *cacheEntry
	tail    *cacheEntry
	max     int
	bytes   int64
	// byRel indexes live entries by the relations they read; relSeen is the
	// newest version each relation has been observed at. Together they drive
	// the invalidation sweeps.
	byRel   map[string]map[*cacheEntry]struct{}
	relSeen map[string]int64
	flights map[string]*flight
}

func newResultCache(maxEntries int, metrics *obs.Registry) *resultCache {
	return &resultCache{
		metrics: metrics,
		entries: make(map[string]*cacheEntry),
		max:     maxEntries,
		byRel:   make(map[string]map[*cacheEntry]struct{}),
		relSeen: make(map[string]int64),
		flights: make(map[string]*flight),
	}
}

// exactFloat renders a float64 so that distinct values always get distinct
// keys and equal values always get equal keys: the 'x' (hexadecimal, exact)
// format round-trips every finite float64 bit pattern, and negative zero is
// normalized to zero first so ε=0 and ε=-0 — equal as numbers, and treated
// identically by the engine — share a cache entry. The previous '%g'
// rendering distinguished 0 from -0 and leaned on shortest-decimal
// round-tripping for uniqueness; exact hex makes non-collision a property of
// the format rather than of the formatter.
func exactFloat(v float64) string {
	if v == 0 {
		v = 0 // collapses -0 onto +0; comparison is true for both
	}
	return strconv.FormatFloat(v, 'x', -1, 64)
}

// cacheKey is the version-free identity of a request: the canonical (parsed
// and re-rendered) query plus every option that changes the answer bytes.
// Parallelism is deliberately excluded — results are byte-identical at any
// worker count — so differently-parallel clients share entries.
// NoCircuit is included for the statistics alone — answer bytes are
// bit-identical with and without the circuit backend by construction.
func cacheKey(q *pdb.Query, strategy pdb.Strategy, req *QueryRequest) string {
	return fmt.Sprintf("%s|%s|%d|%s|%s|%d|%d|%t",
		q.String(), strategy, req.Samples, exactFloat(req.Epsilon), exactFloat(req.Delta),
		req.Seed, req.MaxWidth, req.NoCircuit)
}

// versioned prefixes a key with the read-set version vector it was computed
// at: rel=version pairs for exactly the relations the query reads. rels and
// vec are aligned (rels sorted by the caller; pdb.Query.Relations sorts).
func versioned(rels []string, vec []int64, key string) string {
	var b strings.Builder
	for i, r := range rels {
		fmt.Fprintf(&b, "%s=%d,", r, vec[i])
	}
	b.WriteByte('|')
	b.WriteString(key)
	return b.String()
}

// vecEqual reports whether two version vectors are identical.
func vecEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// get returns the cached response for key, where rels/vec are the request's
// read set at its current versions. Any relation observed at a new version
// triggers an invalidation sweep dropping the entries that read it at an
// older one.
func (c *resultCache) get(rels []string, vec []int64, key string) (*QueryResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observeLocked(rels, vec)
	e, ok := c.entries[key]
	if !ok {
		c.metrics.ServerCacheMiss()
		return nil, false
	}
	c.moveToFront(e)
	c.metrics.ServerCacheHit()
	return e.resp, true
}

// observeLocked records the current version of each relation in rels and
// sweeps out entries that read any of them at an older version. Entries
// whose keys embed superseded versions can never hit again; the sweep just
// reclaims their space promptly instead of waiting for LRU eviction.
func (c *resultCache) observeLocked(rels []string, vec []int64) {
	swept := false
	dropped := 0
	for i, r := range rels {
		seen, ok := c.relSeen[r]
		if ok && seen == vec[i] {
			continue
		}
		c.relSeen[r] = vec[i]
		if !ok {
			continue // first observation, nothing cached under r yet
		}
		swept = true
		for e := range c.byRel[r] {
			c.evictLocked(e)
			dropped++
		}
	}
	if swept {
		c.metrics.CacheInvalidation(dropped)
		c.metrics.ServerCacheSize(len(c.entries), c.bytes)
	}
}

// put inserts a response computed at the given read-set versions, evicting
// from the LRU tail past the entry cap. The caller (Server.evaluate) has
// already double-checked that the version vector is still current; put
// additionally drops the insert if any of its relations has been observed at
// a different version in the meantime, so a racing writer's lookup can never
// resurrect a stale insert.
func (c *resultCache) put(rels []string, vec []int64, key string, resp *QueryResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, r := range rels {
		if seen, ok := c.relSeen[r]; ok && seen != vec[i] {
			return
		}
	}
	if _, ok := c.entries[key]; ok {
		return
	}
	e := &cacheEntry{key: key, rels: rels, vec: vec, resp: resp, bytes: responseBytes(key, resp)}
	c.entries[key] = e
	for _, r := range rels {
		set, ok := c.byRel[r]
		if !ok {
			set = make(map[*cacheEntry]struct{})
			c.byRel[r] = set
		}
		set[e] = struct{}{}
	}
	c.pushFront(e)
	c.bytes += e.bytes
	for len(c.entries) > c.max && c.tail != nil {
		c.evictLocked(c.tail)
		c.metrics.ServerCacheEviction()
	}
	c.metrics.ServerCacheSize(len(c.entries), c.bytes)
}

// join returns the in-progress flight for key, or registers the caller as
// its leader. The bool reports leadership.
func (c *resultCache) join(key string) (*flight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	return f, true
}

// finish closes a flight, publishing resp (nil when the evaluation failed or
// its result was not cacheable) to any waiters.
func (c *resultCache) finish(key string, f *flight, resp *QueryResponse) {
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	f.resp = resp
	close(f.done)
}

// Entries returns the current entry count (for tests).
func (c *resultCache) Entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *resultCache) evictLocked(e *cacheEntry) {
	delete(c.entries, e.key)
	for _, r := range e.rels {
		if set, ok := c.byRel[r]; ok {
			delete(set, e)
			if len(set) == 0 {
				delete(c.byRel, r)
			}
		}
	}
	c.unlink(e)
	c.bytes -= e.bytes
}

func (c *resultCache) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *resultCache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

func (c *resultCache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// responseBytes estimates one entry's memory footprint for the cache-bytes
// gauge: key and payload strings plus fixed per-row and per-entry overheads.
func responseBytes(key string, resp *QueryResponse) int64 {
	n := int64(len(key)) + int64(len(resp.Query)) + int64(len(resp.FallbackReason)) + 160
	for i := range resp.Attrs {
		n += int64(len(resp.Attrs[i])) + 16
	}
	for i := range resp.Rows {
		n += 32
		for _, v := range resp.Rows[i].Vals {
			n += int64(len(v)) + 16
		}
	}
	return n
}
