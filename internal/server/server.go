// Package server is the long-lived HTTP/JSON query service over the pdb
// engine: it loads a database once and serves POST /query through a bounded
// worker pool with admission control, per-request deadlines and an opt-in
// degradation path from exact inference to Karp–Luby sampling.
//
// The paper's evaluation profile is bimodal — most answers are cheap and
// extensional, a few offending-tuple answers are expensive and intensional —
// which is exactly the load shape that needs backpressure: a request stuck
// past the phase transition must not wedge the pool, and a burst of cheap
// queries must not queue behind it unboundedly. The server therefore:
//
//   - caps concurrent evaluations at Config.MaxInFlight; excess requests
//     queue up to Config.MaxQueue deep, and beyond that are shed with
//     503 + Retry-After;
//   - maps per-request deadlines onto context cancellation, which the
//     ExecContext propagates into every operator and sampler; an expired
//     deadline returns 504 carrying the partial execution trace;
//   - optionally (request opt-in, Config gate) retries a budget-exhausted
//     exact evaluation with the Karp–Luby sampler, labelling the answer
//     approximate and degraded;
//   - drains in-flight and queued requests on Shutdown without dropping any;
//   - feeds the internal/obs registry (in-flight/queued gauges, admission
//     and degradation counters, per-route latency histograms) and mounts
//     /metrics, /debug/vars and /debug/pprof on the same mux.
//
// See docs/SERVER.md for the API reference and operational envelope.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/pdb"
)

// Config parameterizes a Server. The zero value of every field except DB is
// usable; defaults are documented per field.
type Config struct {
	// DB is the database served. Required.
	DB *pdb.Database
	// MaxInFlight caps concurrently evaluating requests. Default:
	// runtime.GOMAXPROCS(0).
	MaxInFlight int
	// MaxQueue caps requests waiting for a worker slot; a request arriving
	// with the queue full is shed with 503. Default: 4 × MaxInFlight.
	MaxQueue int
	// DefaultDeadline applies when a request specifies no deadline_ms.
	// Default 30s.
	DefaultDeadline time.Duration
	// MaxDeadline caps the deadline any request may ask for. Default 5m.
	MaxDeadline time.Duration
	// MaxParallelism caps the per-request parallelism grant. Default:
	// runtime.GOMAXPROCS(0).
	MaxParallelism int
	// RetryAfter is the backoff hint attached to 503 responses. Default 1s.
	RetryAfter time.Duration
	// DisableDegrade refuses the per-request degrade flag: budget-exhausted
	// exact evaluations fail with 422 instead of retrying approximately.
	DisableDegrade bool
	// CacheEntries caps the snapshot-versioned result cache (entries, LRU).
	// Default 1024. The cache serves repeated identical requests from memory
	// until the database's snapshot version changes; see cache.go.
	CacheEntries int
	// DisableCache turns the result cache off entirely: every request
	// evaluates, as before the cache existed.
	DisableCache bool
	// NoCircuit disables the compiled-circuit exact backend for every
	// request, as if each carried no_circuit. Ablation knob; answers are
	// bit-identical either way.
	NoCircuit bool
	// MemBudget bounds operator scratch memory per evaluation, in bytes:
	// join/dedup partitions past it spill to temp files and the answers
	// stay byte-identical (docs/SPILL.md). Zero means unlimited. A request
	// budget's mem_bytes overrides it when positive.
	MemBudget int64
	// Metrics is the registry fed by the server. Default obs.Default.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.MaxParallelism <= 0 {
		c.MaxParallelism = runtime.GOMAXPROCS(0)
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default
	}
	return c
}

// Server is the HTTP query service. Construct with New; it implements
// http.Handler (the full mux: /query, /healthz, /metrics, /debug/...).
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *resultCache // nil when Config.DisableCache is set

	sem      chan struct{} // worker slots; len == in-flight
	queued   atomic.Int64  // requests waiting for a slot
	inFlight atomic.Int64  // requests holding a slot

	mu       sync.Mutex // guards draining and admitted against wg.Add
	draining bool
	admitted int            // requests past admission: queued + in flight
	wg       sync.WaitGroup // admitted /query requests

	// faultHook, when set, runs at the top of evaluateUncached: inside the
	// worker slot and, for a cacheable request, inside its single-flight
	// leadership. Tests use it to make a handler panic; nil in service.
	faultHook func(*QueryRequest)
}

// New builds a Server over the database in cfg.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, errors.New("server: Config.DB is required")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		sem: make(chan struct{}, cfg.MaxInFlight),
	}
	if !cfg.DisableCache {
		s.cache = newResultCache(cfg.CacheEntries, cfg.Metrics)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /mutate", s.handleMutate)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	debug := obs.Handler()
	s.mux.Handle("/metrics", debug)
	s.mux.Handle("/debug/", debug)
	return s, nil
}

// ServeHTTP dispatches to the server's mux behind the panic-recovery
// middleware: a handler that panics is answered 500 with code "internal" and
// counted in pdb_server_panics_total, and the process keeps serving. The
// handlers release what they hold (worker slot, admission, single-flight
// leadership) in defers, so the unwinding panic frees it before this
// function answers.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec) // net/http's own way of aborting a response
		}
		log.Printf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
		s.cfg.Metrics.ServerPanic()
		// If the handler had already written its header this is a no-op on
		// the status line; the counter and the log still tell.
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{
			Error: fmt.Sprintf("internal error: %v", rec),
			Code:  "internal",
		})
		route := r.URL.Path
		if route != "/query" && route != "/mutate" && route != "/healthz" {
			route = "other"
		}
		s.cfg.Metrics.ServerResponse(route, http.StatusInternalServerError, time.Since(start))
	}()
	s.mux.ServeHTTP(w, r)
}

// InFlight returns the number of requests currently holding a worker slot.
func (s *Server) InFlight() int { return int(s.inFlight.Load()) }

// Queued returns the number of requests currently waiting for a slot.
func (s *Server) Queued() int { return int(s.queued.Load()) }

// Shutdown stops admitting new queries (they are shed with 503 + Retry-After)
// and waits until every admitted request — in flight or queued — has
// completed, or until ctx expires. It is idempotent; concurrent calls all
// wait. The caller still owns the http.Server and closes its listener
// afterwards.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown drain: %w", ctx.Err())
	}
}

// admit reserves a place for one /query request: it rejects while draining
// or once MaxInFlight + MaxQueue requests are already admitted, otherwise
// registers the request with the drain group. The bound is exact — the
// check and the reservation share one critical section. The returned
// release function must be called exactly once.
func (s *Server) admit() (release func(), reject string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, "shutdown"
	}
	if s.admitted >= s.cfg.MaxInFlight+s.cfg.MaxQueue {
		return nil, "overload"
	}
	s.admitted++
	s.wg.Add(1)
	return func() {
		s.mu.Lock()
		s.admitted--
		s.mu.Unlock()
		s.wg.Done()
	}, ""
}

// acquireSlot blocks until a worker slot is free or ctx is done, accounting
// the wait in the queued gauge. It returns false when ctx expired first.
func (s *Server) acquireSlot(ctx context.Context) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	s.queued.Add(1)
	s.cfg.Metrics.ServerQueuedAdd(1)
	defer func() {
		s.queued.Add(-1)
		s.cfg.Metrics.ServerQueuedAdd(-1)
	}()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (s *Server) releaseSlot() {
	<-s.sem
	s.inFlight.Add(-1)
	s.cfg.Metrics.ServerInFlightAdd(-1)
}

// BudgetSpec is the request's resource budget, mirroring pdb.Budget with
// wall time in milliseconds.
type BudgetSpec struct {
	Rows   int64 `json:"rows,omitempty"`
	Nodes  int64 `json:"nodes,omitempty"`
	TimeMS int64 `json:"time_ms,omitempty"`
	// MemBytes bounds operator scratch memory; unlike the other dimensions
	// it never fails the request — execution spills to disk instead, with
	// byte-identical answers. Overrides the server's configured MemBudget
	// when positive.
	MemBytes int64 `json:"mem_bytes,omitempty"`
}

// QueryRequest is the POST /query body.
type QueryRequest struct {
	// Query is the conjunctive query in datalog syntax. Required.
	Query string `json:"query"`
	// Strategy is partial, safe, network, dnf, mc or dissociation (default
	// partial). Under dissociation every answer row carries guaranteed
	// [lo, hi] probability bounds with p as the interval midpoint.
	Strategy string `json:"strategy,omitempty"`
	// TopK, when ≥ 1, asks for the k most probable answers instead of a
	// full evaluation: the response carries a top_k section (ranked answers
	// with guaranteed intervals) and no rows. Strategy, budget, degrade and
	// trace do not apply to top-k requests; epsilon tunes the refinement
	// width and seed drives the samplers. Top-k requests bypass the result
	// cache.
	TopK int `json:"top_k,omitempty"`
	// NoSeedBounds disables dissociation interval seeding for a top-k
	// request: every non-exact answer is separated by cold multisimulation
	// alone. Ablation knob; see docs/STRATEGIES.md.
	NoSeedBounds bool `json:"no_seed_bounds,omitempty"`
	// Samples for the mc strategy and sampling fallbacks.
	Samples int `json:"samples,omitempty"`
	// Epsilon/Delta request an (ε, δ) Karp–Luby guarantee; see pdb.Options.
	Epsilon float64 `json:"epsilon,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	// Seed drives the samplers; a fixed seed makes approximate answers
	// reproducible.
	Seed int64 `json:"seed,omitempty"`
	// MaxWidth caps the exact-inference elimination width (0 = engine
	// default).
	MaxWidth int `json:"max_width,omitempty"`
	// Parallelism is the worker grant for this evaluation, clamped to the
	// server's MaxParallelism.
	Parallelism int `json:"parallelism,omitempty"`
	// DeadlineMS bounds the request's wall time (0 = server default,
	// clamped to the server's maximum).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Budget caps rows, network nodes and wall time inside the engine.
	Budget *BudgetSpec `json:"budget,omitempty"`
	// Degrade opts into retrying a budget-exhausted exact evaluation with
	// the Karp–Luby sampler (answer labelled approximate + degraded).
	Degrade bool `json:"degrade,omitempty"`
	// Trace includes the execution trace in the response.
	Trace bool `json:"trace,omitempty"`
	// NoCache bypasses the server's result cache for this request: the
	// query always evaluates, and the result is not stored.
	NoCache bool `json:"no_cache,omitempty"`
	// NoCircuit disables the compiled-circuit exact backend for this
	// request: exact inference reverts to the memoized Shannon solver.
	// Ablation knob; answers are bit-identical either way.
	NoCircuit bool `json:"no_circuit,omitempty"`
}

// AnswerRow is one answer: head values (rendered as strings) and its
// probability.
type AnswerRow struct {
	Vals []string `json:"vals"`
	P    float64  `json:"p"`
	// Lo/Hi are guaranteed probability bounds on this answer, present only
	// for bounds-valued responses (the dissociation strategy), where P is
	// the interval midpoint rather than a point estimate.
	Lo *float64 `json:"lo,omitempty"`
	Hi *float64 `json:"hi,omitempty"`
}

// TopKAnswer is one ranked answer of a top-k request: head values and the
// guaranteed [lo, hi] probability interval that ranked it. Lo == Hi for
// exactly computed answers; Seeded marks intervals initialized from
// dissociation bounds.
type TopKAnswer struct {
	Vals   []string `json:"vals"`
	Lo     float64  `json:"lo"`
	Hi     float64  `json:"hi"`
	Exact  bool     `json:"exact,omitempty"`
	Seeded bool     `json:"seeded,omitempty"`
}

// TopKSection reports a top-k evaluation: the ranked set, most probable
// first, plus how the ranking was earned.
type TopKSection struct {
	K       int          `json:"k"`
	Answers []TopKAnswer `json:"answers"`
	// Separated reports whether the top-k set was provably separated from
	// the rest; false means the boundary ranking used interval midpoints.
	Separated bool `json:"separated"`
	// Rounds counts multisimulation refinement rounds (0 when seeding or
	// exact evaluation separated the set without sampling).
	Rounds int `json:"rounds"`
	// SeededExact counts answers whose dissociation interval collapsed to
	// an exact probability; Sampled counts answers that needed Karp–Luby
	// samples.
	SeededExact int `json:"seeded_exact"`
	Sampled     int `json:"sampled"`
}

// StatsSummary is the subset of evaluation statistics exposed per response.
type StatsSummary struct {
	Answers         int   `json:"answers"`
	OffendingTuples int   `json:"offending_tuples"`
	NetworkNodes    int   `json:"network_nodes"`
	LineageClauses  int   `json:"lineage_clauses"`
	RowsCharged     int64 `json:"rows_charged"`
	NodesCharged    int64 `json:"nodes_charged"`
	PlanNS          int64 `json:"plan_ns"`
	InferenceNS     int64 `json:"inference_ns"`
	// Spill counters are non-zero only under a memory budget; see
	// docs/SPILL.md.
	SpilledPartitions int64 `json:"spilled_partitions,omitempty"`
	SpillBytes        int64 `json:"spill_bytes,omitempty"`
	MemPeakBytes      int64 `json:"mem_peak_bytes,omitempty"`
}

// QueryResponse is the 200 body of POST /query.
type QueryResponse struct {
	Query    string `json:"query"`
	Strategy string `json:"strategy"`
	// RequestedStrategy is set when the response was degraded: the strategy
	// the client asked for, while Strategy names the one that answered (mc).
	RequestedStrategy string       `json:"requested_strategy,omitempty"`
	Attrs             []string     `json:"attrs"`
	Rows              []AnswerRow  `json:"rows"`
	BoolP             *float64     `json:"bool_p,omitempty"`
	Approximate       bool         `json:"approximate"`
	Degraded          bool         `json:"degraded"`
	FallbackReason    string       `json:"fallback_reason,omitempty"`
	Stats             StatsSummary `json:"stats"`
	ElapsedNS         int64        `json:"elapsed_ns"`
	// Cached marks a response served from the result cache (or reused from
	// a concurrent identical evaluation) instead of evaluated; ElapsedNS is
	// this request's own wall time either way.
	Cached bool            `json:"cached,omitempty"`
	Trace  json.RawMessage `json:"trace,omitempty"`
	// TopK is set instead of Rows when the request asked for top_k.
	TopK *TopKSection `json:"top_k,omitempty"`
}

// ErrorResponse is the body of every non-200 /query response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code classifies the failure: bad_request, too_large, overload, shutdown,
	// deadline, canceled, budget_rows, budget_nodes, not_data_safe,
	// internal.
	Code string `json:"code"`
	// RetryAfterMS mirrors the Retry-After header on 503 responses.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// PartialTrace is the execution trace recorded before the evaluation
	// was cut off (504 and budget-exhaustion responses with trace enabled).
	PartialTrace json.RawMessage `json:"partial_trace,omitempty"`
}

// maxBodyBytes caps a POST body. A query is a line of datalog and a mutation
// op about a hundred bytes, so 1 MiB holds thousands of ops; anything larger
// is refused before it is buffered.
const maxBodyBytes = 1 << 20

// decodeBody reads a POST body of at most maxBodyBytes into v. Unknown
// fields are an error: a misspelt option would otherwise be dropped and the
// default-option answer cached under the request's key. On failure it
// returns the status and body to send.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, *ErrorResponse) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return 0, nil
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, &ErrorResponse{
			Error: fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes),
			Code:  "too_large",
		}
	}
	return http.StatusBadRequest, &ErrorResponse{Error: "invalid JSON body: " + err.Error(), Code: "bad_request"}
}

// statusClientClosedRequest is nginx's conventional status for a client
// that disconnected before the response; there is no standard code.
const statusClientClosedRequest = 499

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.cfg.Metrics.ServerRequest("/query")
	status := func(code int, v any) {
		writeJSON(w, code, v)
		s.cfg.Metrics.ServerResponse("/query", code, time.Since(start))
	}

	var req QueryRequest
	if code, bad := decodeBody(w, r, &req); bad != nil {
		status(code, bad)
		return
	}
	if req.Query == "" {
		status(http.StatusBadRequest, ErrorResponse{Error: "query is required", Code: "bad_request"})
		return
	}

	// The deadline covers the request's whole stay — queue wait included —
	// so a queued request whose deadline expires is answered 504 instead of
	// occupying a slot it can no longer use.
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	release, rejected := s.admit()
	if rejected != "" {
		s.cfg.Metrics.ServerRejected(rejected)
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		status(http.StatusServiceUnavailable, ErrorResponse{
			Error:        "server " + map[string]string{"shutdown": "is shutting down", "overload": "is at capacity"}[rejected],
			Code:         rejected,
			RetryAfterMS: s.cfg.RetryAfter.Milliseconds(),
		})
		return
	}
	defer release()

	if !s.acquireSlot(ctx) {
		// The request's context died while queued: deadline or disconnect.
		code, resp := statusClientClosedRequest, ErrorResponse{Error: "client went away while queued", Code: "canceled"}
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			code, resp = http.StatusGatewayTimeout, ErrorResponse{Error: "deadline expired while queued", Code: "deadline"}
		}
		status(code, resp)
		return
	}
	s.inFlight.Add(1)
	s.cfg.Metrics.ServerInFlightAdd(1)
	defer s.releaseSlot()

	resp, errResp, code := s.evaluate(ctx, &req, start)
	if errResp != nil {
		status(code, *errResp)
		return
	}
	status(http.StatusOK, resp)
}

// evaluate serves one admitted query request: through the snapshot-versioned
// result cache when the request is cacheable, falling through to a real
// evaluation otherwise.
//
// Cacheability: tracing requests are excluded (traces carry timings unique
// to their run), budgeted and degradable requests are excluded (their
// outcome depends on resource headroom, not just the query), and the client
// can opt out per request with no_cache.
func (s *Server) evaluate(ctx context.Context, req *QueryRequest, start time.Time) (*QueryResponse, *ErrorResponse, int) {
	if req.TopK != 0 {
		// Top-k rankings depend on sampler state, not just the query, so
		// they never enter the result cache.
		return s.evaluateTopK(ctx, req, start)
	}
	if s.cache == nil || req.Trace || req.Budget != nil || req.Degrade || req.NoCache {
		return s.evaluateUncached(ctx, req, start)
	}
	q, err := pdb.ParseQuery(req.Query)
	if err != nil {
		return nil, &ErrorResponse{Error: err.Error(), Code: "bad_request"}, http.StatusBadRequest
	}
	strategy := pdb.PartialLineage
	if req.Strategy != "" {
		strategy, err = pdb.ParseStrategy(req.Strategy)
		if err != nil {
			return nil, &ErrorResponse{Error: err.Error(), Code: "bad_request"}, http.StatusBadRequest
		}
	}
	// The key embeds the version vector of the relations the query reads,
	// observed before evaluating; the insert below re-checks the same vector
	// so a result computed while a writer raced in is never stored. Writes
	// to relations outside the read set move neither the key nor the check —
	// they cannot change this answer, so they neither miss nor discard it.
	rels := q.Relations()
	v1 := s.cfg.DB.VersionVector(rels...)
	vkey := versioned(rels, v1, cacheKey(q, strategy, req))
	if resp, ok := s.cache.get(rels, v1, vkey); ok {
		return cachedCopy(resp, start), nil, http.StatusOK
	}
	f, leader := s.cache.join(vkey)
	if !leader {
		// An identical request is already evaluating: wait for its answer
		// instead of duplicating the work.
		select {
		case <-f.done:
			if f.resp != nil {
				s.cfg.Metrics.ServerCacheHit()
				return cachedCopy(f.resp, start), nil, http.StatusOK
			}
			// The leader failed or declined to publish; evaluate alone so
			// its error is not broadcast to the whole cohort.
			return s.evaluateUncached(ctx, req, start)
		case <-ctx.Done():
			err := ctx.Err()
			return nil, errorResponse(err, nil, false), errorStatus(err)
		}
	}
	// The flight is closed on every way out, a panic included: waiters then
	// find nothing published and evaluate alone, and the key is not left with
	// a leader that will never finish.
	var published *QueryResponse
	defer func() { s.cache.finish(vkey, f, published) }()
	resp, errResp, code := s.evaluateUncached(ctx, req, start)
	// Double-check against the per-relation version *vector*, not the
	// whole-database scalar: a concurrent write to a relation outside the
	// read set bumps the scalar but cannot have influenced this result, so
	// it must not discard it.
	if errResp == nil && vecEqual(s.cfg.DB.VersionVector(rels...), v1) {
		s.cache.put(rels, v1, vkey, resp)
		published = resp
	}
	return resp, errResp, code
}

// cachedCopy returns a shallow copy of a cached response carrying this
// request's own wall time and the cached marker.
func cachedCopy(resp *QueryResponse, start time.Time) *QueryResponse {
	cp := *resp
	cp.ElapsedNS = time.Since(start).Nanoseconds()
	cp.Cached = true
	return &cp
}

// evaluateUncached runs one admitted query request under its
// already-deadlined context, including the degradation retry, and maps the
// outcome onto a response + HTTP status.
func (s *Server) evaluateUncached(ctx context.Context, req *QueryRequest, start time.Time) (*QueryResponse, *ErrorResponse, int) {
	if s.faultHook != nil {
		s.faultHook(req)
	}
	q, err := pdb.ParseQuery(req.Query)
	if err != nil {
		return nil, &ErrorResponse{Error: err.Error(), Code: "bad_request"}, http.StatusBadRequest
	}
	strategy := pdb.PartialLineage
	if req.Strategy != "" {
		strategy, err = pdb.ParseStrategy(req.Strategy)
		if err != nil {
			return nil, &ErrorResponse{Error: err.Error(), Code: "bad_request"}, http.StatusBadRequest
		}
	}
	if req.Degrade && s.cfg.DisableDegrade {
		return nil, &ErrorResponse{Error: "degradation is disabled on this server", Code: "bad_request"}, http.StatusBadRequest
	}

	opts := pdb.Options{
		Strategy:    strategy,
		Samples:     req.Samples,
		Epsilon:     req.Epsilon,
		Delta:       req.Delta,
		Seed:        req.Seed,
		MaxWidth:    req.MaxWidth,
		Parallelism: min(req.Parallelism, s.cfg.MaxParallelism),
		Trace:       req.Trace,
		NoCircuit:   req.NoCircuit || s.cfg.NoCircuit,
	}
	opts.Budget.Mem = s.cfg.MemBudget
	if req.Budget != nil {
		opts.Budget.Rows = req.Budget.Rows
		opts.Budget.Nodes = req.Budget.Nodes
		opts.Budget.Time = time.Duration(req.Budget.TimeMS) * time.Millisecond
		if req.Budget.MemBytes > 0 {
			opts.Budget.Mem = req.Budget.MemBytes
		}
	}

	res, err := s.cfg.DB.EvaluateContext(ctx, q, opts)
	degraded := false
	if err != nil && req.Degrade && strategy != pdb.MonteCarlo && budgetExhausted(err) {
		// Graceful degradation: the exact evaluation ran out of its
		// rows/nodes budget; retry with the Karp–Luby sampler under the
		// same deadline. The sampler builds no AND-OR network and its
		// grounding is the cheap part of the original run, so the exhausted
		// dimensions are lifted for the retry — the deadline is the
		// envelope that still binds.
		s.cfg.Metrics.ServerDegraded()
		degraded = true
		dopts := opts
		dopts.Strategy = pdb.MonteCarlo
		dopts.Budget.Rows = 0
		dopts.Budget.Nodes = 0
		res, err = s.cfg.DB.EvaluateContext(ctx, q, dopts)
		opts = dopts
	}
	if err != nil {
		return nil, errorResponse(err, res, req.Trace), errorStatus(err)
	}

	resp := &QueryResponse{
		Query:          q.String(),
		Strategy:       res.Stats.Strategy.String(),
		Attrs:          append([]string{}, res.Attrs...),
		Rows:           make([]AnswerRow, 0, len(res.Rows)),
		Approximate:    res.Stats.Approximate,
		Degraded:       degraded,
		FallbackReason: res.Stats.FallbackReason,
		Stats: StatsSummary{
			Answers:         res.Stats.Answers,
			OffendingTuples: res.Stats.OffendingTuples,
			NetworkNodes:    res.Stats.NetworkNodes,
			LineageClauses:  res.Stats.LineageClauses,
			RowsCharged:     res.Stats.RowsCharged,
			NodesCharged:    res.Stats.NodesCharged,
			PlanNS:          res.Stats.PlanTime.Nanoseconds(),
			InferenceNS:     res.Stats.InferenceTime.Nanoseconds(),

			SpilledPartitions: res.Stats.SpilledPartitions,
			SpillBytes:        res.Stats.SpillBytes,
			MemPeakBytes:      res.Stats.MemPeakBytes,
		},
		ElapsedNS: time.Since(start).Nanoseconds(),
	}
	if degraded {
		resp.RequestedStrategy = strategy.String()
	}
	for _, row := range res.Rows {
		vals := make([]string, len(row.Vals))
		for i, v := range row.Vals {
			vals[i] = v.String()
		}
		ar := AnswerRow{Vals: vals, P: row.P}
		if res.Stats.BoundsValued {
			lo, hi := row.Lo, row.Hi
			ar.Lo, ar.Hi = &lo, &hi
		}
		resp.Rows = append(resp.Rows, ar)
	}
	if len(res.Attrs) == 0 {
		p := res.BoolProb()
		resp.BoolP = &p
	}
	if req.Trace {
		resp.Trace = traceJSON(res)
	}
	return resp, nil, http.StatusOK
}

// evaluateTopK serves a top_k request: ranked answers with guaranteed
// probability intervals via dissociation-seeded multisimulation, bypassing
// the result cache. It runs under the request's deadlined context like every
// other evaluation: an expired deadline is a 504 and frees the worker slot.
func (s *Server) evaluateTopK(ctx context.Context, req *QueryRequest, start time.Time) (*QueryResponse, *ErrorResponse, int) {
	if req.TopK < 1 {
		return nil, &ErrorResponse{Error: "top_k must be ≥ 1", Code: "bad_request"}, http.StatusBadRequest
	}
	q, err := pdb.ParseQuery(req.Query)
	if err != nil {
		return nil, &ErrorResponse{Error: err.Error(), Code: "bad_request"}, http.StatusBadRequest
	}
	if req.Strategy != "" || req.Budget != nil || req.Degrade || req.Trace {
		return nil, &ErrorResponse{
			Error: "top_k does not combine with strategy, budget, degrade or trace",
			Code:  "bad_request",
		}, http.StatusBadRequest
	}
	res, err := s.cfg.DB.TopKQueryContext(ctx, q, pdb.TopKOptions{
		K:            req.TopK,
		Seed:         req.Seed,
		Eps:          req.Epsilon,
		NoSeedBounds: req.NoSeedBounds,
	})
	if err != nil {
		return nil, errorResponse(err, nil, false), errorStatus(err)
	}
	sec := &TopKSection{
		K:           req.TopK,
		Answers:     make([]TopKAnswer, 0, len(res.Answers)),
		Separated:   res.Separated,
		Rounds:      res.Rounds,
		SeededExact: res.SeededExact,
		Sampled:     res.Sampled,
	}
	approximate := false
	for _, a := range res.Answers {
		vals := make([]string, len(a.Vals))
		for i, v := range a.Vals {
			vals[i] = v.String()
		}
		if !a.Exact {
			approximate = true
		}
		sec.Answers = append(sec.Answers, TopKAnswer{
			Vals: vals, Lo: a.Lo, Hi: a.Hi, Exact: a.Exact, Seeded: a.Seeded,
		})
	}
	return &QueryResponse{
		Query:       q.String(),
		Strategy:    "topk",
		Attrs:       q.Head(),
		Rows:        []AnswerRow{},
		Approximate: approximate,
		TopK:        sec,
		ElapsedNS:   time.Since(start).Nanoseconds(),
	}, nil, http.StatusOK
}

// budgetExhausted reports whether the evaluation died on a rows/nodes
// budget — the degradable failures. Deadline expiry is not degradable: the
// retry would start with the same dead clock.
func budgetExhausted(err error) bool {
	return errors.Is(err, pdb.ErrRowBudget) || errors.Is(err, pdb.ErrNodeBudget)
}

// errorResponse classifies an evaluation error, attaching the partial trace
// recorded before the cut when the request asked for tracing.
func errorResponse(err error, partial *pdb.Result, traced bool) *ErrorResponse {
	resp := &ErrorResponse{Error: err.Error(), Code: "internal"}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		resp.Code = "deadline"
	case errors.Is(err, context.Canceled):
		resp.Code = "canceled"
	case errors.Is(err, pdb.ErrRowBudget):
		resp.Code = "budget_rows"
	case errors.Is(err, pdb.ErrNodeBudget):
		resp.Code = "budget_nodes"
	case errors.Is(err, pdb.ErrNotDataSafe):
		resp.Code = "not_data_safe"
	case sampleCountError(err):
		resp.Code = "bad_request"
	}
	if traced && partial != nil {
		resp.PartialTrace = traceJSON(partial)
	}
	return resp
}

// sampleCountError reports an (ε, δ) request no sample count can honour: the
// client's to fix, like any other bad option value.
func sampleCountError(err error) bool {
	var sce *pdb.SampleCountError
	return errors.As(err, &sce)
}

// errorStatus maps an evaluation error to its HTTP status.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, pdb.ErrRowBudget), errors.Is(err, pdb.ErrNodeBudget),
		errors.Is(err, pdb.ErrNotDataSafe):
		return http.StatusUnprocessableEntity
	case sampleCountError(err):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// traceJSON renders a result's execution trace as embeddable JSON.
func traceJSON(res *pdb.Result) json.RawMessage {
	var buf bytes.Buffer
	if err := res.Trace().WriteJSON(&buf); err != nil {
		return nil
	}
	return json.RawMessage(bytes.TrimSpace(buf.Bytes()))
}

// MutationOp is one tuple mutation inside a POST /mutate batch. Values
// arrive as strings and are coerced the way the CSV loader coerces them:
// int, then float, then string.
type MutationOp struct {
	// Op is add, set_prob or delete.
	Op string `json:"op"`
	// Relation names the target relation; it must already exist.
	Relation string `json:"relation"`
	// Vals are the tuple's values, one per relation attribute.
	Vals []string `json:"vals"`
	// P is the presence probability for add and set_prob (ignored by
	// delete).
	P float64 `json:"p,omitempty"`
}

// MutateRequest is the POST /mutate body: a batch of mutations applied in
// order against the live database through the versioned write path — each
// op bumps the relation's version (invalidating cached results that read
// it) and logs a delta for incremental view maintenance.
type MutateRequest struct {
	Ops []MutationOp `json:"ops"`
}

// MutateResponse is the 200 body of POST /mutate.
type MutateResponse struct {
	// Applied counts the ops applied — always the full batch on 200.
	Applied int `json:"applied"`
	// Version is the database snapshot version after the batch.
	Version int64 `json:"version"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.cfg.Metrics.ServerRequest("/mutate")
	status := func(code int, v any) {
		writeJSON(w, code, v)
		s.cfg.Metrics.ServerResponse("/mutate", code, time.Since(start))
	}
	var req MutateRequest
	if code, bad := decodeBody(w, r, &req); bad != nil {
		status(code, bad)
		return
	}
	if len(req.Ops) == 0 {
		status(http.StatusBadRequest, ErrorResponse{Error: "ops is required", Code: "bad_request"})
		return
	}
	// Ops apply in order and stop at the first failure; Applied in the
	// error path is implicit in the reported index. No rollback: the write
	// path is append/update per tuple and each applied op is already
	// durable in the version vector and delta log.
	for i, op := range req.Ops {
		if err := s.applyOp(op); err != nil {
			code := http.StatusBadRequest
			errCode := "bad_request"
			if errors.Is(err, pdb.ErrNoSuchTuple) {
				code, errCode = http.StatusUnprocessableEntity, "no_such_tuple"
			}
			status(code, ErrorResponse{
				Error: fmt.Sprintf("ops[%d]: %v", i, err),
				Code:  errCode,
			})
			return
		}
	}
	status(http.StatusOK, MutateResponse{Applied: len(req.Ops), Version: s.cfg.DB.Version()})
}

// applyOp routes one mutation to the pdb write path.
func (s *Server) applyOp(op MutationOp) error {
	rel, err := s.cfg.DB.Relation(op.Relation)
	if err != nil {
		return err
	}
	vals := make([]pdb.Value, len(op.Vals))
	for i, v := range op.Vals {
		vals[i] = pdb.ParseValue(v)
	}
	switch op.Op {
	case "add":
		return rel.Add(op.P, vals...)
	case "set_prob":
		return rel.SetProb(op.P, vals...)
	case "delete":
		return rel.Delete(vals...)
	default:
		return fmt.Errorf("unknown op %q (want add, set_prob or delete)", op.Op)
	}
}

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status   string `json:"status"` // "ok" or "draining"
	InFlight int    `json:"in_flight"`
	Queued   int    `json:"queued"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.cfg.Metrics.ServerRequest("/healthz")
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	h := HealthResponse{Status: "ok", InFlight: s.InFlight(), Queued: s.Queued()}
	code := http.StatusOK
	if draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
	s.cfg.Metrics.ServerResponse("/healthz", code, time.Since(start))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// rounded up, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}
