package obs

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// DurationBuckets are the upper bounds (seconds) of the per-strategy query
// latency histogram, chosen to resolve both the sub-millisecond safe-plan
// regime and the multi-second sampling-fallback regime.
var DurationBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram (cumulative bucket counts
// are computed at exposition time; counts here are per-bucket).
type histogram struct {
	counts []uint64 // one per bucket label; last slot = +Inf overflow
	sum    float64
	total  uint64
}

var durationBucketLabels = func() []string {
	labels := make([]string, 0, len(DurationBuckets)+1)
	for _, ub := range DurationBuckets {
		labels = append(labels, strconv.FormatFloat(ub, 'g', -1, 64))
	}
	return append(labels, "+Inf")
}()

func (h *histogram) observe(seconds float64) {
	if h.counts == nil {
		h.counts = make([]uint64, len(durationBucketLabels))
	}
	i := sort.SearchFloat64s(DurationBuckets, seconds)
	h.counts[i]++
	h.sum += seconds
	h.total++
}

// Registry accumulates process-level metrics across query evaluations. The
// zero value is ready to use; all methods are safe for concurrent use. The
// package-level Default registry is the one the pdb facade feeds and the
// one /metrics serves; tests construct their own so observations do not
// leak across tests.
type Registry struct {
	mu sync.Mutex

	queries   map[string]uint64 // by strategy
	errors    map[string]uint64 // by strategy
	answers   map[string]uint64 // by strategy
	durations map[string]*histogram

	budgetExhausted map[string]uint64 // by budget dimension: rows, nodes, time
	cancellations   uint64

	offendingTuples    uint64
	inferenceFallbacks uint64
	rowsCharged        uint64
	nodesCharged       uint64

	// Spill counters, fed by evaluations running under a memory budget:
	// join/dedup partitions written to temp files and the bytes they wrote
	// (docs/SPILL.md).
	spillPartitions uint64
	spillBytes      uint64

	// Performance-layer counters (PR 5): the evaluations' shared inference
	// memo tables and the AND-OR network hash-consing table.
	memoHits      uint64
	memoMisses    uint64
	memoEvictions uint64
	consHits      uint64

	// Compiled-circuit counters (knowledge-compilation layer): lineage
	// formulas compiled to d-DNNF circuits, answers served from
	// already-compiled structure, and linear evaluation passes run.
	circuitCompiles uint64
	circuitHits     uint64
	circuitEvals    uint64

	// Adaptive-planner counters: plan choices by source ("safe", "greedy"),
	// per-answer inference-backend choices and deterministic fallthroughs by
	// backend label, and answers whose first-ranked backend was not the one
	// that succeeded.
	plannerPlans            map[string]uint64 // by plan source
	plannerBackendChosen    map[string]uint64 // by backend label
	plannerBackendFallbacks map[string]uint64 // by backend label
	plannerPredictionMisses uint64

	// Planning-cache counters, by tier ("plan", "stats"), folded from each
	// evaluation's Stats.PlanCache: a "plan" outcome is a plan-tier hit, a
	// "stats" outcome a plan-tier miss answered by the statistics tier, a
	// "miss" outcome a miss in both.
	plannerCacheHits   map[string]uint64
	plannerCacheMisses map[string]uint64

	// Dissociation counters: bounds-valued answers produced by the
	// dissociation strategy, how many of their intervals collapsed to the
	// exact probability (read-once lineage), and the shared variables split
	// into independent copies across all answers.
	dissociationAnswers uint64
	dissociationExact   uint64
	dissociationVars    uint64

	// Top-k counters, fed by pdb.TopKQuery: evaluations run, refinement
	// rounds, answers ranked for free by a collapsed dissociation interval,
	// answers that needed Karp–Luby samples, and evaluations that ended
	// without provable separation.
	topkQueries     uint64
	topkRounds      uint64
	topkSeededExact uint64
	topkSampled     uint64
	topkUnseparated uint64

	// Incremental-maintenance counters: logged mutation deltas by kind
	// (insert, delete, prob_update), and materialized-view refreshes split
	// into prob-update patches vs structural full recomputes.
	deltas          map[string]uint64 // by kind
	deltaPatches    uint64
	deltaRecomputes uint64

	// Server-side metrics, fed by internal/server. The gauges track the
	// admission controller's instantaneous state; the counters and per-route
	// histograms accumulate over the server's life.
	serverInFlight  int64             // gauge: requests holding a worker slot
	serverQueued    int64             // gauge: requests waiting for a slot
	serverRequests  map[string]uint64 // by route
	serverResponses map[string]uint64 // by HTTP status code
	serverRejected  map[string]uint64 // by reason: overload, shutdown
	serverDegraded  uint64
	serverPanics    uint64
	serverDurations map[string]*histogram // by route

	// Result-cache metrics, fed by the server's snapshot-versioned cache:
	// cumulative hit/miss/eviction counters and instantaneous size gauges.
	serverCacheHits      uint64
	serverCacheMisses    uint64
	serverCacheEvictions uint64
	serverCacheEntries   int64 // gauge
	serverCacheBytes     int64 // gauge

	// Fine-grained invalidation counters: sweeps are write-observations that
	// scanned the cache for dependents of a mutated relation; entries are the
	// stale entries those sweeps dropped. A sweep dropping zero entries means
	// the write touched nothing any cached answer reads.
	cacheInvalidationSweeps  uint64
	cacheInvalidationEntries uint64
}

// Default is the process-wide registry: fed by pdb on every evaluation,
// published on expvar under "pdb", served by Serve's /metrics endpoint.
var Default = &Registry{}

func init() {
	expvar.Publish("pdb", expvar.Func(func() any { return Default.snapshot() }))
}

// QueryObservation is one evaluation's contribution to the registry.
type QueryObservation struct {
	// Strategy the evaluation ran under.
	Strategy core.Strategy
	// Duration is the evaluation's wall time.
	Duration time.Duration
	// Stats is the evaluation's statistics; nil when it failed.
	Stats *core.Stats
	// Err is the evaluation's error, nil on success. Budget and
	// cancellation errors are classified into their own counters.
	Err error
}

// ObserveQuery folds one evaluation into the registry: the query counter
// and latency histogram always; the answer/offending/fallback/charged
// counters from Stats when present; the error, budget-exhaustion and
// cancellation counters classified from Err.
func (r *Registry) ObserveQuery(o QueryObservation) {
	strategy := o.Strategy.String()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.queries == nil {
		r.queries = make(map[string]uint64)
		r.errors = make(map[string]uint64)
		r.answers = make(map[string]uint64)
		r.durations = make(map[string]*histogram)
		r.budgetExhausted = make(map[string]uint64)
	}
	r.queries[strategy]++
	h := r.durations[strategy]
	if h == nil {
		h = &histogram{}
		r.durations[strategy] = h
	}
	h.observe(o.Duration.Seconds())
	if o.Stats != nil {
		r.answers[strategy] += uint64(o.Stats.Answers)
		r.offendingTuples += uint64(o.Stats.OffendingTuples)
		if o.Stats.Approximate {
			r.inferenceFallbacks++
		}
		r.rowsCharged += uint64(o.Stats.RowsCharged)
		r.nodesCharged += uint64(o.Stats.NodesCharged)
		r.spillPartitions += uint64(o.Stats.SpilledPartitions)
		r.spillBytes += uint64(o.Stats.SpillBytes)
		r.memoHits += uint64(o.Stats.MemoHits)
		r.memoMisses += uint64(o.Stats.MemoMisses)
		r.memoEvictions += uint64(o.Stats.MemoEvictions)
		r.consHits += uint64(o.Stats.ConsHits)
		r.circuitCompiles += uint64(o.Stats.CircuitCompiles)
		r.circuitHits += uint64(o.Stats.CircuitHits)
		r.circuitEvals += uint64(o.Stats.CircuitEvals)
		if o.Stats.PlanSource != "" {
			if r.plannerPlans == nil {
				r.plannerPlans = make(map[string]uint64)
			}
			r.plannerPlans[o.Stats.PlanSource]++
		}
		for backend, n := range o.Stats.BackendChoices {
			if r.plannerBackendChosen == nil {
				r.plannerBackendChosen = make(map[string]uint64)
			}
			r.plannerBackendChosen[backend] += uint64(n)
		}
		for backend, n := range o.Stats.BackendFallbacks {
			if r.plannerBackendFallbacks == nil {
				r.plannerBackendFallbacks = make(map[string]uint64)
			}
			r.plannerBackendFallbacks[backend] += uint64(n)
		}
		r.plannerPredictionMisses += uint64(o.Stats.BackendPredictionMisses)
		if o.Stats.PlanCache != "" {
			if r.plannerCacheHits == nil {
				r.plannerCacheHits = make(map[string]uint64)
				r.plannerCacheMisses = make(map[string]uint64)
			}
			switch o.Stats.PlanCache {
			case core.PlanCachePlan:
				r.plannerCacheHits["plan"]++
			case core.PlanCacheStats:
				r.plannerCacheMisses["plan"]++
				r.plannerCacheHits["stats"]++
			default:
				r.plannerCacheMisses["plan"]++
				r.plannerCacheMisses["stats"]++
			}
		}
		if o.Stats.BoundsValued {
			r.dissociationAnswers += uint64(o.Stats.Answers)
			r.dissociationExact += uint64(o.Stats.BoundsExact)
			r.dissociationVars += uint64(o.Stats.DissociatedVars)
		}
	}
	if o.Err != nil {
		r.errors[strategy]++
		switch {
		case errors.Is(o.Err, core.ErrRowBudget):
			r.budgetExhausted["rows"]++
		case errors.Is(o.Err, core.ErrNodeBudget):
			r.budgetExhausted["nodes"]++
		case errors.Is(o.Err, context.DeadlineExceeded):
			r.budgetExhausted["time"]++
		case errors.Is(o.Err, context.Canceled):
			r.cancellations++
		}
	}
}

// TopKObservation is one top-k evaluation's contribution to the registry.
type TopKObservation struct {
	// Answers is the total answer count the ranking was computed over.
	Answers int
	// Rounds is the number of multisimulation refinement rounds run.
	Rounds int
	// SeededExact counts answers whose dissociation interval collapsed to a
	// point — ranked without sampling.
	SeededExact int
	// Sampled counts answers that drew Karp–Luby samples.
	Sampled int
	// Separated reports whether the top-k set provably separated.
	Separated bool
}

// ObserveTopK folds one top-k evaluation into the pdb_topk_* counters.
func (r *Registry) ObserveTopK(o TopKObservation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.topkQueries++
	r.topkRounds += uint64(o.Rounds)
	r.topkSeededExact += uint64(o.SeededExact)
	r.topkSampled += uint64(o.Sampled)
	if !o.Separated {
		r.topkUnseparated++
	}
}

// ObserveDelta counts one logged mutation delta of the given kind
// ("insert", "delete", "prob_update").
func (r *Registry) ObserveDelta(kind string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.deltas == nil {
		r.deltas = make(map[string]uint64)
	}
	r.deltas[kind]++
}

// ObserveRefresh counts one materialized-view refresh: patched=true when it
// re-weighted the existing lineage in place (prob-update deltas only),
// false when a structural delta forced a full recompute.
func (r *Registry) ObserveRefresh(patched bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if patched {
		r.deltaPatches++
	} else {
		r.deltaRecomputes++
	}
}

// CacheInvalidation counts one fine-grained invalidation sweep that dropped
// the given number of dependent result-cache entries.
func (r *Registry) CacheInvalidation(entries int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cacheInvalidationSweeps++
	r.cacheInvalidationEntries += uint64(entries)
}

// ServerRequest counts one request admitted to the named route.
func (r *Registry) ServerRequest(route string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.serverRequests == nil {
		r.serverRequests = make(map[string]uint64)
	}
	r.serverRequests[route]++
}

// ServerInFlightAdd moves the in-flight gauge by delta (+1 when a request
// acquires a worker slot, -1 when it releases it).
func (r *Registry) ServerInFlightAdd(delta int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.serverInFlight += int64(delta)
}

// ServerQueuedAdd moves the queued gauge by delta (+1 when a request starts
// waiting for a worker slot, -1 when it stops waiting).
func (r *Registry) ServerQueuedAdd(delta int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.serverQueued += int64(delta)
}

// ServerResponse counts one completed request: the status-code counter and
// the route's latency histogram.
func (r *Registry) ServerResponse(route string, code int, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.serverResponses == nil {
		r.serverResponses = make(map[string]uint64)
	}
	r.serverResponses[strconv.Itoa(code)]++
	if r.serverDurations == nil {
		r.serverDurations = make(map[string]*histogram)
	}
	h := r.serverDurations[route]
	if h == nil {
		h = &histogram{}
		r.serverDurations[route] = h
	}
	h.observe(d.Seconds())
}

// ServerRejected counts one request shed by admission control, by reason
// ("overload" when the queue is full, "shutdown" while draining).
func (r *Registry) ServerRejected(reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.serverRejected == nil {
		r.serverRejected = make(map[string]uint64)
	}
	r.serverRejected[reason]++
}

// ServerDegraded counts one request whose exact evaluation exhausted its
// budget and was retried with the Karp–Luby sampler.
func (r *Registry) ServerDegraded() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.serverDegraded++
}

// ServerPanic counts one request whose handler panicked and was answered 500
// by the server's recovery middleware.
func (r *Registry) ServerPanic() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.serverPanics++
}

// ServerCacheHit counts one request answered from the result cache (or
// reused from a concurrent identical evaluation).
func (r *Registry) ServerCacheHit() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.serverCacheHits++
}

// ServerCacheMiss counts one cacheable request that had to evaluate.
func (r *Registry) ServerCacheMiss() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.serverCacheMisses++
}

// ServerCacheEviction counts one entry evicted from the result cache by the
// LRU size cap (version-bump purges are not evictions).
func (r *Registry) ServerCacheEviction() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.serverCacheEvictions++
}

// ServerCacheSize sets the result cache's size gauges: live entries and
// their estimated bytes.
func (r *Registry) ServerCacheSize(entries int, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.serverCacheEntries = int64(entries)
	r.serverCacheBytes = bytes
}

// snapshot renders the registry as a plain map for expvar.
func (r *Registry) snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := map[string]any{
		"queries_total":                   copyMap(r.queries),
		"query_errors_total":              copyMap(r.errors),
		"answers_total":                   copyMap(r.answers),
		"budget_exhausted_total":          copyMap(r.budgetExhausted),
		"cancellations_total":             r.cancellations,
		"offending_tuples_total":          r.offendingTuples,
		"inference_fallbacks_total":       r.inferenceFallbacks,
		"rows_charged_total":              r.rowsCharged,
		"network_nodes_charged_total":     r.nodesCharged,
		"spill_partitions_total":          r.spillPartitions,
		"spill_bytes_total":               r.spillBytes,
		"memo_hits_total":                 r.memoHits,
		"memo_misses_total":               r.memoMisses,
		"memo_evictions_total":            r.memoEvictions,
		"cons_hits_total":                 r.consHits,
		"circuit_compiles_total":          r.circuitCompiles,
		"circuit_hits_total":              r.circuitHits,
		"circuit_evals_total":             r.circuitEvals,
		"planner_plans_total":             copyMap(r.plannerPlans),
		"planner_backend_chosen_total":    copyMap(r.plannerBackendChosen),
		"planner_backend_fallbacks_total": copyMap(r.plannerBackendFallbacks),
		"planner_prediction_misses_total": r.plannerPredictionMisses,
		"planner_cache_hits_total":        copyMap(r.plannerCacheHits),
		"planner_cache_misses_total":      copyMap(r.plannerCacheMisses),
		"dissociation_answers_total":      r.dissociationAnswers,
		"dissociation_exact_total":        r.dissociationExact,
		"dissociation_vars_total":         r.dissociationVars,
		"topk_queries_total":              r.topkQueries,
		"topk_rounds_total":               r.topkRounds,
		"topk_seeded_exact_total":         r.topkSeededExact,
		"topk_sampled_answers_total":      r.topkSampled,
		"topk_unseparated_total":          r.topkUnseparated,
		"deltas_total":                    copyMap(r.deltas),
		"delta_patched_refreshes_total":   r.deltaPatches,
		"delta_recompute_refreshes_total": r.deltaRecomputes,
		"server_in_flight":                r.serverInFlight,
		"server_queued":                   r.serverQueued,
		"server_requests_total":           copyMap(r.serverRequests),
		"server_responses_total":          copyMap(r.serverResponses),
		"server_rejected_total":           copyMap(r.serverRejected),
		"server_degraded_total":           r.serverDegraded,
		"server_panics_total":             r.serverPanics,
		"server_cache_hits_total":         r.serverCacheHits,
		"server_cache_misses_total":       r.serverCacheMisses,
		"server_cache_evictions_total":    r.serverCacheEvictions,
		"server_cache_entries":            r.serverCacheEntries,
		"server_cache_bytes":              r.serverCacheBytes,

		"cache_invalidation_sweeps_total":  r.cacheInvalidationSweeps,
		"cache_invalidation_entries_total": r.cacheInvalidationEntries,
	}
	return m
}

func copyMap(src map[string]uint64) map[string]uint64 {
	dst := make(map[string]uint64, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// MetricNames lists every metric family WriteProm can emit, in exposition
// order. docs/OBSERVABILITY.md must document each one — enforced by the
// internal/docscheck test.
func MetricNames() []string {
	return []string{
		"pdb_queries_total",
		"pdb_query_errors_total",
		"pdb_answers_total",
		"pdb_query_duration_seconds",
		"pdb_budget_exhausted_total",
		"pdb_cancellations_total",
		"pdb_offending_tuples_total",
		"pdb_inference_fallbacks_total",
		"pdb_rows_charged_total",
		"pdb_network_nodes_charged_total",
		"pdb_spill_partitions_total",
		"pdb_spill_bytes_total",
		"pdb_memo_hits_total",
		"pdb_memo_misses_total",
		"pdb_memo_evictions_total",
		"pdb_cons_hits_total",
		"pdb_circuit_compiles_total",
		"pdb_circuit_hits_total",
		"pdb_circuit_evals_total",
		"pdb_planner_plans_total",
		"pdb_planner_backend_chosen_total",
		"pdb_planner_backend_fallbacks_total",
		"pdb_planner_prediction_misses_total",
		"pdb_planner_cache_hits_total",
		"pdb_planner_cache_misses_total",
		"pdb_dissociation_answers_total",
		"pdb_dissociation_exact_total",
		"pdb_dissociation_vars_total",
		"pdb_topk_queries_total",
		"pdb_topk_rounds_total",
		"pdb_topk_seeded_exact_total",
		"pdb_topk_sampled_answers_total",
		"pdb_topk_unseparated_total",
		"pdb_deltas_total",
		"pdb_delta_patched_refreshes_total",
		"pdb_delta_recompute_refreshes_total",
		"pdb_server_in_flight",
		"pdb_server_queued",
		"pdb_server_requests_total",
		"pdb_server_responses_total",
		"pdb_server_rejected_total",
		"pdb_server_degraded_total",
		"pdb_server_panics_total",
		"pdb_server_cache_hits_total",
		"pdb_server_cache_misses_total",
		"pdb_server_cache_evictions_total",
		"pdb_server_cache_entries",
		"pdb_server_cache_bytes",
		"pdb_cache_invalidation_sweeps_total",
		"pdb_cache_invalidation_entries_total",
		"pdb_server_request_duration_seconds",
	}
}

// WriteProm writes the registry in Prometheus text exposition format
// (version 0.0.4): counters and one histogram family, each with # HELP and
// # TYPE lines. Output is deterministic — label values are sorted, nothing
// carries a timestamp — so scrapes diff cleanly and golden tests are
// stable. Zero-valued families are emitted with their HELP/TYPE header and
// no samples, keeping the set of families constant over the process's life.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder

	promLabeled(&b, "pdb_queries_total", "counter",
		"Queries evaluated, by strategy.", "strategy", r.queries)
	promLabeled(&b, "pdb_query_errors_total", "counter",
		"Queries that returned an error (budget, cancellation or otherwise), by strategy.", "strategy", r.errors)
	promLabeled(&b, "pdb_answers_total", "counter",
		"Answer rows produced by successful queries, by strategy.", "strategy", r.answers)

	promHeader(&b, "pdb_query_duration_seconds", "histogram",
		"Query evaluation latency, by strategy.")
	for _, strategy := range sortedKeysH(r.durations) {
		h := r.durations[strategy]
		var cum uint64
		for i, le := range durationBucketLabels {
			cum += h.counts[i]
			fmt.Fprintf(&b, "pdb_query_duration_seconds_bucket{strategy=%q,le=%q} %d\n",
				strategy, le, cum)
		}
		fmt.Fprintf(&b, "pdb_query_duration_seconds_sum{strategy=%q} %s\n",
			strategy, strconv.FormatFloat(h.sum, 'g', -1, 64))
		fmt.Fprintf(&b, "pdb_query_duration_seconds_count{strategy=%q} %d\n",
			strategy, h.total)
	}

	promLabeled(&b, "pdb_budget_exhausted_total", "counter",
		"Evaluations aborted by a resource budget, by exhausted dimension (rows, nodes, time).", "budget", r.budgetExhausted)
	promScalar(&b, "pdb_cancellations_total", "counter",
		"Evaluations aborted by caller cancellation.", r.cancellations)
	promScalar(&b, "pdb_offending_tuples_total", "counter",
		"Offending tuples conditioned across all evaluations (the cumulative distance from data-safety).", r.offendingTuples)
	promScalar(&b, "pdb_inference_fallbacks_total", "counter",
		"Evaluations whose exact inference fell back to sampling.", r.inferenceFallbacks)
	promScalar(&b, "pdb_rows_charged_total", "counter",
		"Rows emitted by relational operators (or lineage clauses grounded) across all evaluations.", r.rowsCharged)
	promScalar(&b, "pdb_network_nodes_charged_total", "counter",
		"AND-OR network nodes grown across all evaluations.", r.nodesCharged)
	promScalar(&b, "pdb_spill_partitions_total", "counter",
		"Join/dedup partitions spilled to temp files under a memory budget across all evaluations.", r.spillPartitions)
	promScalar(&b, "pdb_spill_bytes_total", "counter",
		"Bytes written to spill temp files under a memory budget across all evaluations.", r.spillBytes)
	promScalar(&b, "pdb_memo_hits_total", "counter",
		"Shared inference-memo hits (lineage Shannon subproblems and VE component solves) across all evaluations.", r.memoHits)
	promScalar(&b, "pdb_memo_misses_total", "counter",
		"Shared inference-memo misses across all evaluations.", r.memoMisses)
	promScalar(&b, "pdb_memo_evictions_total", "counter",
		"Entries evicted from the shared inference memo tables by their size caps.", r.memoEvictions)
	promScalar(&b, "pdb_cons_hits_total", "counter",
		"AddGate calls answered by the AND-OR network's hash-consing table instead of allocating a node.", r.consHits)
	promScalar(&b, "pdb_circuit_compiles_total", "counter",
		"Lineage formulas compiled to cached d-DNNF circuits across all evaluations.", r.circuitCompiles)
	promScalar(&b, "pdb_circuit_hits_total", "counter",
		"Answers served from already-compiled circuit structure in the circuit cache.", r.circuitHits)
	promScalar(&b, "pdb_circuit_evals_total", "counter",
		"Linear bottom-up circuit evaluation passes run by the compiled-circuit backend.", r.circuitEvals)

	promLabeled(&b, "pdb_planner_plans_total", "counter",
		"Query-level plan choices by the adaptive planner, by source (safe, greedy).", "source", r.plannerPlans)
	promLabeled(&b, "pdb_planner_backend_chosen_total", "counter",
		"Answers produced per inference backend.", "backend", r.plannerBackendChosen)
	promLabeled(&b, "pdb_planner_backend_fallbacks_total", "counter",
		"Ranked inference attempts that failed deterministically and fell through, by backend.", "backend", r.plannerBackendFallbacks)
	promScalar(&b, "pdb_planner_prediction_misses_total", "counter",
		"Answers whose first-ranked inference backend was not the one that succeeded.", r.plannerPredictionMisses)
	promLabeled(&b, "pdb_planner_cache_hits_total", "counter",
		"Query-level plans answered by the database's planning cache, by tier (plan: the chosen plan itself; stats: planned again from remembered relation statistics).", "tier", r.plannerCacheHits)
	promLabeled(&b, "pdb_planner_cache_misses_total", "counter",
		"Query-level plans a planning-cache tier could not answer, by tier (a stats miss is at least one statistics pass over a relation).", "tier", r.plannerCacheMisses)

	promScalar(&b, "pdb_dissociation_answers_total", "counter",
		"Bounds-valued answers produced by the dissociation strategy.", r.dissociationAnswers)
	promScalar(&b, "pdb_dissociation_exact_total", "counter",
		"Dissociation answers whose interval collapsed to the exact probability (read-once lineage).", r.dissociationExact)
	promScalar(&b, "pdb_dissociation_vars_total", "counter",
		"Shared lineage variables dissociated into independent copies across all bounds-valued answers.", r.dissociationVars)

	promScalar(&b, "pdb_topk_queries_total", "counter",
		"Top-k evaluations run through the pdb facade.", r.topkQueries)
	promScalar(&b, "pdb_topk_rounds_total", "counter",
		"Multisimulation refinement rounds across all top-k evaluations.", r.topkRounds)
	promScalar(&b, "pdb_topk_seeded_exact_total", "counter",
		"Top-k answers ranked for free by a collapsed dissociation interval (no sampling).", r.topkSeededExact)
	promScalar(&b, "pdb_topk_sampled_answers_total", "counter",
		"Top-k answers that needed Karp–Luby samples to separate.", r.topkSampled)
	promScalar(&b, "pdb_topk_unseparated_total", "counter",
		"Top-k evaluations that ended without provable separation (ranking used interval midpoints).", r.topkUnseparated)

	promLabeled(&b, "pdb_deltas_total", "counter",
		"Mutation deltas logged by the database, by kind (insert, delete, prob_update).", "kind", r.deltas)
	promScalar(&b, "pdb_delta_patched_refreshes_total", "counter",
		"Materialized-view refreshes applied by re-weighting the existing lineage in place (prob-update deltas only).", r.deltaPatches)
	promScalar(&b, "pdb_delta_recompute_refreshes_total", "counter",
		"Materialized-view refreshes that fell back to a full recompute (structural deltas or a truncated delta log).", r.deltaRecomputes)

	promGauge(&b, "pdb_server_in_flight", "Query-server requests currently holding a worker slot.", r.serverInFlight)
	promGauge(&b, "pdb_server_queued", "Query-server requests currently waiting for a worker slot.", r.serverQueued)
	promLabeled(&b, "pdb_server_requests_total", "counter",
		"Query-server requests admitted, by route.", "route", r.serverRequests)
	promLabeled(&b, "pdb_server_responses_total", "counter",
		"Query-server responses sent, by HTTP status code.", "code", r.serverResponses)
	promLabeled(&b, "pdb_server_rejected_total", "counter",
		"Query-server requests shed by admission control, by reason (overload, shutdown).", "reason", r.serverRejected)
	promScalar(&b, "pdb_server_degraded_total", "counter",
		"Query-server requests degraded from exact evaluation to Karp–Luby sampling after budget exhaustion.", r.serverDegraded)
	promScalar(&b, "pdb_server_panics_total", "counter",
		"Query-server requests whose handler panicked and was answered 500 by the recovery middleware.", r.serverPanics)
	promScalar(&b, "pdb_server_cache_hits_total", "counter",
		"Query-server requests answered from the snapshot-versioned result cache (including single-flight reuse).", r.serverCacheHits)
	promScalar(&b, "pdb_server_cache_misses_total", "counter",
		"Cacheable query-server requests that had to evaluate.", r.serverCacheMisses)
	promScalar(&b, "pdb_server_cache_evictions_total", "counter",
		"Result-cache entries evicted by the LRU size cap.", r.serverCacheEvictions)
	promGauge(&b, "pdb_server_cache_entries",
		"Result-cache entries currently live.", r.serverCacheEntries)
	promGauge(&b, "pdb_server_cache_bytes",
		"Estimated bytes held by live result-cache entries.", r.serverCacheBytes)
	promScalar(&b, "pdb_cache_invalidation_sweeps_total", "counter",
		"Fine-grained invalidation sweeps: write-observations that scanned the result cache for entries reading a mutated relation.", r.cacheInvalidationSweeps)
	promScalar(&b, "pdb_cache_invalidation_entries_total", "counter",
		"Result-cache entries dropped by fine-grained invalidation sweeps (stale against a mutated relation they read).", r.cacheInvalidationEntries)

	promHeader(&b, "pdb_server_request_duration_seconds", "histogram",
		"Query-server request latency, by route.")
	for _, route := range sortedKeysH(r.serverDurations) {
		h := r.serverDurations[route]
		var cum uint64
		for i, le := range durationBucketLabels {
			cum += h.counts[i]
			fmt.Fprintf(&b, "pdb_server_request_duration_seconds_bucket{route=%q,le=%q} %d\n",
				route, le, cum)
		}
		fmt.Fprintf(&b, "pdb_server_request_duration_seconds_sum{route=%q} %s\n",
			route, strconv.FormatFloat(h.sum, 'g', -1, 64))
		fmt.Fprintf(&b, "pdb_server_request_duration_seconds_count{route=%q} %d\n",
			route, h.total)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

func promGauge(b *strings.Builder, name, help string, v int64) {
	promHeader(b, name, "gauge", help)
	fmt.Fprintf(b, "%s %d\n", name, v)
}

func promHeader(b *strings.Builder, name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

func promScalar(b *strings.Builder, name, typ, help string, v uint64) {
	promHeader(b, name, typ, help)
	fmt.Fprintf(b, "%s %d\n", name, v)
}

func promLabeled(b *strings.Builder, name, typ, help, label string, m map[string]uint64) {
	promHeader(b, name, typ, help)
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(b, "%s{%s=%q} %d\n", name, label, k, m[k])
	}
}

func sortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedKeysH(m map[string]*histogram) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
