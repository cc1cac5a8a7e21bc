package pl

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/tuple"
)

// groupTable hands out dense group ids, in first-arrival order, to keys that
// arrive as a 64-bit hash (tuple.Tuple.HashAt) plus an equality test. It is
// the one hash structure behind join, cSet, independent project and dedup, in
// memory and per spill partition. The hash only picks the slot: a probe that
// meets an equal hash still asks eq whether the keys are equal (the
// fingerprint-then-verify pattern of aonet's gate consing), so colliding
// hashes cost time, never correctness. Users that need each group's members
// in arrival order (a join's build side, dedup) file them with chain.
type groupTable struct {
	slots  []int32     // open addressing, linear probing: group id + 1, 0 = empty
	shift  uint        // a hash's slot is its top bits: h >> shift
	hashes []uint64    // per group
	ends   []chainEnds // per group, chain users only: first and last entry
	next   []int32     // per chained entry: the next entry of its group, -1 = last
}

type chainEnds struct{ head, tail int32 }

// hashMask is all ones outside tests; TestCollidingHashes clears it so that
// every key shares one probe sequence and only eq tells groups apart.
var hashMask = ^uint64(0)

// reset empties the table and sizes it for about hint groups, keeping the
// arrays it already owns when they are large enough.
func (g *groupTable) reset(hint int) {
	n, bits := 8, uint(3)
	for n < 2*hint {
		n, bits = n<<1, bits+1
	}
	if cap(g.slots) < n {
		g.slots = make([]int32, n)
	} else {
		g.slots = g.slots[:n]
		clear(g.slots)
	}
	g.shift = 64 - bits
	g.hashes, g.ends, g.next = g.hashes[:0], g.ends[:0], g.next[:0]
}

// get returns the group of the key (h, eq). An absent key opens the next
// group id when add is set (fresh reports that) and yields -1 otherwise. eq
// is asked about existing groups with an equal hash only.
func (g *groupTable) get(h uint64, eq func(id int32) bool, add bool) (id int32, fresh bool) {
	h &= hashMask
	if add && 2*len(g.hashes) >= len(g.slots) {
		// Double the slots. Groups are distinct, so re-filing them needs
		// their stored hashes only.
		g.slots = make([]int32, 2*len(g.slots))
		g.shift--
		for id, h := range g.hashes {
			s := int(h >> g.shift)
			for g.slots[s] != 0 {
				s = (s + 1) & (len(g.slots) - 1)
			}
			g.slots[s] = int32(id) + 1
		}
	}
	for s := int(h >> g.shift); ; s = (s + 1) & (len(g.slots) - 1) {
		id := g.slots[s] - 1
		if id < 0 {
			if !add {
				return -1, false
			}
			g.hashes = append(g.hashes, h)
			g.slots[s] = int32(len(g.hashes))
			return int32(len(g.hashes) - 1), true
		}
		if g.hashes[id] == h && eq(id) {
			return id, false
		}
	}
}

// chain files the next entry (entries are numbered in call order) as the
// last member of group id, as get just returned it.
func (g *groupTable) chain(id int32, fresh bool) {
	e := int32(len(g.next))
	g.next = append(g.next, -1)
	if fresh {
		g.ends = append(g.ends, chainEnds{head: e, tail: e})
		return
	}
	g.next[g.ends[id].tail] = e
	g.ends[id].tail = e
}

// Every operator run needs a table. When the ExecContext grants pooling
// (core.ExecConfig.Pooling; the engine always does) tables come from a
// sync.Pool, so repeated evaluations reuse the grown arrays. A table holds
// hashes and indexes, never tuple data, and outputs are byte-identical with
// pooling on or off.
var tablePool = sync.Pool{New: func() any { return new(groupTable) }}

// poolCheckouts balances pooled checkouts: getTable increments it, putTable
// decrements it. Leak regression tests assert it reads zero whenever no
// operator is running, error and cancellation exits included.
var poolCheckouts atomic.Int64

// PoolCheckouts reports the number of pooled tables currently checked out.
// Test accounting only.
func PoolCheckouts() int64 { return poolCheckouts.Load() }

func getTable(ec *core.ExecContext, hint int) *groupTable {
	var g *groupTable
	if ec.Pooling() {
		poolCheckouts.Add(1)
		g = tablePool.Get().(*groupTable)
	} else {
		g = new(groupTable)
	}
	g.reset(hint)
	return g
}

func putTable(ec *core.ExecContext, g *groupTable) {
	if ec.Pooling() {
		poolCheckouts.Add(-1)
		tablePool.Put(g)
	}
}

// maxChunk caps what an operator reserves ahead of emitting: the values of
// one valArena chunk (and so what one retained row can keep alive), and the
// rows a join reserves before any is charged to the row budget.
const maxChunk = 1 << 14

// valArena cuts output rows' value slices from shared chunks, in place of an
// allocation per row. A row's capacity is its length, so appending to one
// never writes into its neighbour.
type valArena struct{ buf []tuple.Value }

// take returns n fresh values. want is how many the caller expects to need
// from here on: the exact remainder for a join, as many again as already
// emitted for a project. A new chunk is cut to that, so scratch stays
// proportional to the output however small.
func (a *valArena) take(n, want int) tuple.Tuple {
	if n == 0 {
		return tuple.Tuple{}
	}
	if len(a.buf) < n {
		a.buf = make([]tuple.Value, max(n, min(want, maxChunk)))
	}
	t := a.buf[:n:n]
	a.buf = a.buf[n:]
	return t
}
