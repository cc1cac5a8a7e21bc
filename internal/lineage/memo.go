package lineage

import (
	"sync"

	"repro/internal/core"
)

// Memo is a bounded, thread-safe memo table shared across the exact
// confidence computations of one evaluation: every answer's Shannon
// expansion keys its subproblems on the canonical clause-set fingerprint,
// so cofactors shared between answers (or between conditioning branches of
// one answer) are solved once and reused everywhere.
//
// Exactness contract: the solver derives the key from, and computes on, the
// same canonically sorted clause list, so a stored value is a pure function
// of its key (given the evaluation's fixed probability table). A hit
// therefore returns bit-identical floats to what recomputation would have
// produced — sharing the table across answers never perturbs results.
//
// Capacity is bounded three ways: an entry cap and a byte cap enforced by
// LRU eviction, and the evaluation's node budget — each insert charges one
// node via ExecContext.TryChargeNodes, and once the budget is exhausted the
// table stops growing (lookups keep working; the query never fails because
// of the memo).
//
// All methods are safe on a nil receiver, acting as an always-miss table,
// so callers thread an optional *Memo without nil checks.
type Memo struct {
	mu    sync.Mutex
	table map[string]*memoEntry
	// Doubly-linked LRU list: head is the most recently used entry.
	head, tail *memoEntry
	bytes      int64
	maxEntries int
	maxBytes   int64

	hits, misses, evictions int64
}

type memoEntry struct {
	key        string
	val        float64
	prev, next *memoEntry
}

// memoEntryOverhead approximates the per-entry bookkeeping bytes (entry
// struct, map slot) added to the key length for the byte cap.
const memoEntryOverhead = 64

// MemoConfig bounds a Memo. Zero fields take defaults.
type MemoConfig struct {
	// MaxEntries caps the number of memoized subproblems (default 1<<16).
	MaxEntries int
	// MaxBytes caps the approximate memory footprint (default 16 MiB).
	MaxBytes int64
}

// NewMemo builds an empty memo table with the given bounds.
func NewMemo(cfg MemoConfig) *Memo {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 1 << 16
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 16 << 20
	}
	return &Memo{
		table:      make(map[string]*memoEntry),
		maxEntries: cfg.MaxEntries,
		maxBytes:   cfg.MaxBytes,
	}
}

// Lookup returns the memoized value for key and whether it was present,
// promoting a hit to most-recently-used. On a nil receiver it reports a
// miss without counting.
func (m *Memo) Lookup(key string) (float64, bool) {
	if m == nil {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.table[key]
	if !ok {
		m.misses++
		return 0, false
	}
	m.hits++
	m.moveToFront(e)
	return e.val, true
}

// Store memoizes key -> v, charging one node against ec's node budget. When
// the charge no longer fits, or the key is already present, the table is
// left unchanged; when the entry or byte cap is exceeded the least recently
// used entries are evicted.
func (m *Memo) Store(ec *core.ExecContext, key string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.table[key]; ok {
		return
	}
	if !ec.TryChargeNodes(1) {
		return
	}
	e := &memoEntry{key: key, val: v}
	m.table[key] = e
	m.pushFront(e)
	m.bytes += int64(len(key)) + memoEntryOverhead
	for len(m.table) > m.maxEntries || m.bytes > m.maxBytes {
		m.evictOldest()
	}
}

// Reset drops every memoized value. Memoized values are pure functions of
// (key, probability table), so they are stale once the probability table
// changes — a prob-update patch replayed through an incremental refresh.
// Counters keep accumulating across resets.
func (m *Memo) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.table = make(map[string]*memoEntry)
	m.head, m.tail = nil, nil
	m.bytes = 0
}

// MemoStats is a point-in-time snapshot of a Memo's counters.
type MemoStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
	Bytes                   int64
}

// Stats snapshots the counters (zero on a nil receiver).
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{
		Hits:      m.hits,
		Misses:    m.misses,
		Evictions: m.evictions,
		Entries:   len(m.table),
		Bytes:     m.bytes,
	}
}

// pushFront links e as the most recently used entry. Callers hold mu.
func (m *Memo) pushFront(e *memoEntry) {
	e.prev, e.next = nil, m.head
	if m.head != nil {
		m.head.prev = e
	}
	m.head = e
	if m.tail == nil {
		m.tail = e
	}
}

// moveToFront promotes an existing entry. Callers hold mu.
func (m *Memo) moveToFront(e *memoEntry) {
	if m.head == e {
		return
	}
	m.unlink(e)
	m.pushFront(e)
}

// unlink removes e from the list without touching the table. Callers hold mu.
func (m *Memo) unlink(e *memoEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		m.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		m.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// evictOldest drops the least recently used entry. Callers hold mu.
func (m *Memo) evictOldest() {
	e := m.tail
	if e == nil {
		return
	}
	m.unlink(e)
	delete(m.table, e.key)
	m.bytes -= int64(len(e.key)) + memoEntryOverhead
	m.evictions++
}
