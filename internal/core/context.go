package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file defines ExecContext, the execution context threaded through the
// whole evaluation stack (pl operators, engine executor, inference, lineage
// solvers). It bundles four concerns that previously lived in ad-hoc fields
// scattered across layers:
//
//   - cancellation: a context.Context polled at operator boundaries and,
//     cheaply, inside inner loops (CheckInterval);
//   - budgets: caps on emitted rows, network growth and wall time, so a
//     phase-transition instance degrades with a typed error instead of
//     wedging the process;
//   - parallelism: the worker count the per-answer inference fan-out may
//     use (answers are independent; the pl operators run on one goroutine);
//   - statistics: the per-operator trace sink (OpStat) with nested own-time
//     accounting, replacing the executor's childTime/childNodes fields.
//
// All methods are safe on a nil receiver and behave like an unbounded
// background context, so deep layers can accept an *ExecContext
// unconditionally and legacy entry points can pass nil.

// Budget caps the resources one evaluation may consume. Zero fields mean
// unlimited.
type Budget struct {
	// Rows bounds the total number of tuples emitted by relational
	// operators (an anti-blow-up guard for wide joins).
	Rows int64
	// Nodes bounds the number of AND-OR network nodes grown during plan
	// execution.
	Nodes int64
	// Time bounds the evaluation's wall time, measured from the
	// ExecContext's construction.
	Time time.Duration
	// Mem bounds the bytes of operator scratch state (hash-join buckets,
	// dedup group tables, pending-match buffers) resident at once, as
	// accounted by the ChargeMem/ReleaseMem hooks. Unlike the other
	// dimensions, exceeding Mem never fails the evaluation: the pl
	// operators switch to Grace-style spill-to-disk partitions and keep
	// results byte-identical to the in-memory path (see docs/SPILL.md).
	Mem int64
}

// Unlimited reports whether every budget dimension is unbounded. Mem is
// deliberately excluded: a memory budget changes where scratch state lives
// (heap vs temp files), never whether the evaluation can complete, so it is
// not a degradation trigger the way rows/nodes/time are.
func (b Budget) Unlimited() bool { return b.Rows <= 0 && b.Nodes <= 0 && b.Time <= 0 }

// ErrRowBudget is returned (wrapped) when an evaluation exceeds Budget.Rows.
var ErrRowBudget = errors.New("core: row budget exceeded")

// ErrNodeBudget is returned (wrapped) when an evaluation exceeds
// Budget.Nodes.
var ErrNodeBudget = errors.New("core: network-node budget exceeded")

// CheckInterval is the stride at which tight inner loops (join probes,
// elimination steps, Shannon expansions, Monte-Carlo samples) poll
// cancellation: cheap enough to be negligible, frequent enough that a
// cancelled evaluation returns promptly.
const CheckInterval = 1024

// ExecContext carries cancellation, budgets, the parallelism grant and the
// operator-statistics sink of one evaluation. Construct with NewExecContext;
// the zero value is not usable but a nil *ExecContext is (it behaves as an
// unbounded background context).
//
// Charge and Err are safe for concurrent use; the operator-trace methods
// (StartOp/FinishOp) are not — operators nest, they do not interleave.
type ExecContext struct {
	ctx         context.Context
	budget      Budget
	start       time.Time
	deadline    time.Time // zero when Budget.Time is unlimited
	parallelism int
	pooling     bool

	rows  atomic.Int64
	nodes atomic.Int64

	// Memory accounting (Budget.Mem): mem is the bytes of operator scratch
	// currently charged, memPeak its high-water mark, spillParts/spillBytes
	// the spill activity counters surfaced through Stats.
	mem        atomic.Int64
	memPeak    atomic.Int64
	spillParts atomic.Int64
	spillBytes atomic.Int64

	mu  sync.Mutex
	ops []OpStat
	// Trace accumulators: total own time and network growth of completed
	// operators within the currently executing subtree, so FinishOp can
	// subtract children from the enclosing operator's totals.
	childTime  time.Duration
	childNodes int
	// depth is the nesting level of the currently open span (the number of
	// StartOp calls without a matching FinishOp). Maintained by the single
	// recording goroutine; read by RecordSubOp.
	depth int

	tracing bool
}

// ExecConfig parameterizes NewExecContext.
type ExecConfig struct {
	// Budget caps rows, network nodes and wall time (zero = unlimited).
	Budget Budget
	// Parallelism is the worker count granted to per-answer inference
	// (<= 1 means sequential).
	Parallelism int
	// Trace enables the per-operator statistics sink.
	Trace bool
	// Pooling lets hot operators reuse scratch allocations (the pl
	// operators' group tables) through a package-level sync.Pool. Purely
	// an allocation optimization: outputs are byte-identical either way.
	Pooling bool
}

// NewExecContext wraps ctx for one evaluation. A nil ctx means
// context.Background().
func NewExecContext(ctx context.Context, cfg ExecConfig) *ExecContext {
	if ctx == nil {
		ctx = context.Background()
	}
	e := &ExecContext{
		ctx:         ctx,
		budget:      cfg.Budget,
		start:       time.Now(),
		parallelism: cfg.Parallelism,
		tracing:     cfg.Trace,
		pooling:     cfg.Pooling,
	}
	if cfg.Budget.Time > 0 {
		e.deadline = e.start.Add(cfg.Budget.Time)
	}
	return e
}

// Context returns the wrapped context.Context (context.Background() on a
// nil receiver).
func (e *ExecContext) Context() context.Context {
	if e == nil || e.ctx == nil {
		return context.Background()
	}
	return e.ctx
}

// Parallelism returns the granted worker count, never below 1.
func (e *ExecContext) Parallelism() int {
	if e == nil || e.parallelism < 1 {
		return 1
	}
	return e.parallelism
}

// Tracing reports whether the per-operator statistics sink is enabled.
func (e *ExecContext) Tracing() bool { return e != nil && e.tracing }

// Pooling reports whether operators may reuse pooled scratch allocations.
// False on a nil receiver: legacy entry points get plain allocation.
func (e *ExecContext) Pooling() bool { return e != nil && e.pooling }

// Err reports why the evaluation should stop: the wrapped context's error,
// or context.DeadlineExceeded past the time budget. It is cheap (one atomic
// context poll, one clock read when a time budget is set) and safe to call
// from concurrent workers.
func (e *ExecContext) Err() error {
	if e == nil {
		return nil
	}
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			return err
		}
	}
	if !e.deadline.IsZero() && time.Now().After(e.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// ChargeRows adds n emitted rows against the row budget, returning a wrapped
// ErrRowBudget once the total exceeds it. The total accumulates even when no
// row budget is set, so RowsCharged is a meaningful work measure (and a
// process metric, via internal/obs) on unbudgeted evaluations too.
func (e *ExecContext) ChargeRows(n int) error {
	if e == nil {
		return nil
	}
	total := e.rows.Add(int64(n))
	if e.budget.Rows > 0 && total > e.budget.Rows {
		return fmt.Errorf("%w (%d rows emitted, budget %d)", ErrRowBudget, total, e.budget.Rows)
	}
	return nil
}

// ChargeNodes adds n grown network nodes against the node budget, returning
// a wrapped ErrNodeBudget once the total exceeds it. Like ChargeRows, the
// total accumulates with or without a budget.
func (e *ExecContext) ChargeNodes(n int) error {
	if e == nil {
		return nil
	}
	total := e.nodes.Add(int64(n))
	if e.budget.Nodes > 0 && total > e.budget.Nodes {
		return fmt.Errorf("%w (%d nodes grown, budget %d)", ErrNodeBudget, total, e.budget.Nodes)
	}
	return nil
}

// TryChargeNodes charges n nodes only when they fit under the node budget:
// once the charge would exceed it, TryChargeNodes returns false and leaves
// the total unchanged. Opportunistic consumers — memo-table inserts, caches —
// use it to stop growing when the budget runs out instead of failing the
// evaluation the way ChargeNodes callers do.
func (e *ExecContext) TryChargeNodes(n int) bool {
	if e == nil {
		return true
	}
	for {
		cur := e.nodes.Load()
		total := cur + int64(n)
		if e.budget.Nodes > 0 && total > e.budget.Nodes {
			return false
		}
		if e.nodes.CompareAndSwap(cur, total) {
			return true
		}
	}
}

// RowsCharged returns the rows charged so far.
func (e *ExecContext) RowsCharged() int64 {
	if e == nil {
		return 0
	}
	return e.rows.Load()
}

// NodesCharged returns the network nodes charged so far.
func (e *ExecContext) NodesCharged() int64 {
	if e == nil {
		return 0
	}
	return e.nodes.Load()
}

// MemBudget returns Budget.Mem: the byte budget for operator scratch state,
// 0 when unlimited (in-memory execution, no charge accounting).
func (e *ExecContext) MemBudget() int64 {
	if e == nil {
		return 0
	}
	return e.budget.Mem
}

// ChargeMem adds n bytes of resident operator scratch and reports whether
// the resident total now exceeds Budget.Mem. Unlike ChargeRows/ChargeNodes
// this is a shed signal, not an error: the caller is expected to spill (or
// seal) the structure it is growing and release the charge. With no memory
// budget it accounts (for MemPeakBytes) and always reports false.
func (e *ExecContext) ChargeMem(n int64) bool {
	if e == nil {
		return false
	}
	total := e.mem.Add(n)
	for {
		peak := e.memPeak.Load()
		if total <= peak || e.memPeak.CompareAndSwap(peak, total) {
			break
		}
	}
	return e.budget.Mem > 0 && total > e.budget.Mem
}

// ReleaseMem returns n bytes previously charged with ChargeMem.
func (e *ExecContext) ReleaseMem(n int64) {
	if e == nil {
		return
	}
	e.mem.Add(-n)
}

// MemCharged returns the bytes of operator scratch currently charged.
func (e *ExecContext) MemCharged() int64 {
	if e == nil {
		return 0
	}
	return e.mem.Load()
}

// MemPeakBytes returns the high-water mark of charged scratch bytes.
func (e *ExecContext) MemPeakBytes() int64 {
	if e == nil {
		return 0
	}
	return e.memPeak.Load()
}

// AddSpillPartitions counts n operator partitions that overflowed the memory
// budget and moved to temp files.
func (e *ExecContext) AddSpillPartitions(n int) {
	if e == nil {
		return
	}
	e.spillParts.Add(int64(n))
}

// AddSpillBytes counts n bytes written to spill temp files.
func (e *ExecContext) AddSpillBytes(n int64) {
	if e == nil {
		return
	}
	e.spillBytes.Add(n)
}

// SpilledPartitions returns the number of partitions spilled so far.
func (e *ExecContext) SpilledPartitions() int64 {
	if e == nil {
		return 0
	}
	return e.spillParts.Load()
}

// SpillBytes returns the bytes written to spill temp files so far.
func (e *ExecContext) SpillBytes() int64 {
	if e == nil {
		return 0
	}
	return e.spillBytes.Load()
}

// RecordOp appends one operator's statistics to the trace sink, with the
// caller's OpStat taken verbatim (Depth included). It is safe for
// concurrent use.
//
// Dropped-op contract: on a nil receiver, or when the context was
// constructed without ExecConfig.Trace, the op is deliberately discarded —
// tracing is a per-evaluation decision made once at NewExecContext and
// never toggled mid-query, so a dropped op always means "this evaluation
// is untraced", never "part of the trace went missing". Callers that need
// to know can consult Tracing() first.
func (e *ExecContext) RecordOp(s OpStat) {
	if e == nil || !e.tracing {
		return
	}
	e.mu.Lock()
	e.ops = append(e.ops, s)
	e.mu.Unlock()
}

// RecordSubOp records a detail span as a child of the currently open
// StartOp span: the OpStat's Depth is set to the current nesting level (one
// below the open span's own recording depth). It must be called from the
// recording goroutine — the one that called StartOp; the spill operators
// record their partition sub-spans through it, in partition order.
func (e *ExecContext) RecordSubOp(s OpStat) {
	if e == nil || !e.tracing {
		return
	}
	s.Depth = e.depth
	e.RecordOp(s)
}

// Ops returns the recorded operator trace.
//
// Ordering guarantees: ops appear in exactly the order they were recorded,
// and every producer in this repository records deterministically —
// FinishOp spans arrive in post-order (children before parents) from the
// single-goroutine plan executor; partition sub-spans of the spill
// Join/Dedup operators are recorded by that same goroutine in ascending
// partition order; and the engine records inference spans after the
// parallel inference stage completes, in answer order. The trace is
// therefore fully deterministic (byte for byte once wall times are masked)
// and identical across Parallelism settings. Each OpStat's Depth
// reconstructs the span tree from this flat post-order list (see
// internal/obs.BuildTrace).
func (e *ExecContext) Ops() []OpStat {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]OpStat(nil), e.ops...)
}

// OpSpan is the token returned by StartOp, closed by FinishOp.
type OpSpan struct {
	start       time.Time
	nodes0      int
	parentTime  time.Duration
	parentNodes int
}

// StartOp opens a trace span for one operator about to run; nodesNow is the
// network size before it. Spans nest (an operator's children open and close
// their spans inside it) and must not interleave across goroutines. On a
// nil receiver or with tracing disabled the span is inert.
func (e *ExecContext) StartOp(nodesNow int) OpSpan {
	if e == nil || !e.tracing {
		return OpSpan{}
	}
	span := OpSpan{
		start:       time.Now(),
		nodes0:      nodesNow,
		parentTime:  e.childTime,
		parentNodes: e.childNodes,
	}
	e.childTime, e.childNodes = 0, 0
	e.depth++
	return span
}

// FinishOp closes a span, recording the given OpStat with its Time,
// NetworkGrowth and Depth filled in: time and network growth exclude the
// operator's children (which reported their totals through the accumulators
// while the span was open), and Depth is the span's nesting level. The
// caller supplies the descriptive fields (Op, Kind, Rows, RowsIn,
// Conditioned, Detail). When failed is true nothing is recorded but the
// accumulators are still restored.
func (e *ExecContext) FinishOp(span OpSpan, nodesNow int, s OpStat, failed bool) {
	if e == nil || !e.tracing {
		return
	}
	total := time.Since(span.start)
	grown := nodesNow - span.nodes0
	if e.depth > 0 {
		e.depth--
	}
	if !failed {
		s.NetworkGrowth = grown - e.childNodes
		s.Time = total - e.childTime
		s.Depth = e.depth
		e.RecordOp(s)
	}
	e.childTime = span.parentTime + total
	e.childNodes = span.parentNodes + grown
}

// Check is a stride counter for tight inner loops: Tick returns a non-nil
// error at most once every CheckInterval calls (and always reports the
// first error it saw). The zero value is ready to use with the enclosing
// ExecContext:
//
//	chk := core.Check{EC: ec}
//	for ... {
//		if err := chk.Tick(); err != nil { return err }
//		...
//	}
type Check struct {
	EC *ExecContext
	n  int
	// Every overrides the polling stride (0 = CheckInterval).
	Every int
}

// Tick counts one loop iteration, polling the context every stride-th call.
func (c *Check) Tick() error {
	c.n++
	every := c.Every
	if every <= 0 {
		every = CheckInterval
	}
	if c.n%every != 0 {
		return nil
	}
	return c.EC.Err()
}
