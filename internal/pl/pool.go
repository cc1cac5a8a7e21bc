package pl

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Scratch pools for the hot hash-join/dedup paths. Every operator run
// allocates one hash table; under a serving workload those allocations
// dominate the operator's cost for small and medium inputs. When the
// ExecContext grants pooling (core.ExecConfig.Pooling; the engine always
// does), the maps are drawn from package-level sync.Pools and returned
// cleared, so repeated evaluations reuse the grown bucket arrays. Outputs
// are byte-identical with pooling on or off — the pools only change where
// the scratch memory comes from.
//
// The pools hold the maps' internal bucket arrays, not their contents:
// every put clears the map first, so no tuple data outlives its evaluation.

var (
	joinBucketPool = sync.Pool{New: func() any { return make(map[string][]int32) }}
	dedupGroupPool = sync.Pool{New: func() any { return make(map[string][]int) }}
)

// poolCheckouts balances pooled scratch checkouts: every pooling get
// increments it, the matching put decrements it. It exists so leak
// regression tests can assert that every code path — including error and
// cancellation exits — returns what it borrowed; it must read zero whenever
// no operator is running.
var poolCheckouts atomic.Int64

// PoolCheckouts reports the number of pooled scratch objects currently
// checked out. Test accounting only: zero between operator runs, or the
// operators are leaking pool entries.
func PoolCheckouts() int64 { return poolCheckouts.Load() }

func getJoinBuckets(ec *core.ExecContext) map[string][]int32 {
	if ec.Pooling() {
		poolCheckouts.Add(1)
		return joinBucketPool.Get().(map[string][]int32)
	}
	return make(map[string][]int32)
}

func putJoinBuckets(ec *core.ExecContext, m map[string][]int32) {
	if ec.Pooling() {
		poolCheckouts.Add(-1)
		clear(m)
		joinBucketPool.Put(m)
	}
}

func getDedupGroups(ec *core.ExecContext) map[string][]int {
	if ec.Pooling() {
		poolCheckouts.Add(1)
		return dedupGroupPool.Get().(map[string][]int)
	}
	return make(map[string][]int)
}

func putDedupGroups(ec *core.ExecContext, m map[string][]int) {
	if ec.Pooling() {
		poolCheckouts.Add(-1)
		clear(m)
		dedupGroupPool.Put(m)
	}
}
