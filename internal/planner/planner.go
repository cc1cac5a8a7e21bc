// Package planner implements cost-aware plan selection — the paper's open
// question (i) in Section 8: "how to choose a query plan that minimizes the
// size ... of the output network".
//
// For a fixed query the number of offending tuples, and hence the size and
// width of the partial-lineage network, depends heavily on the join order:
// a join direction along a functional dependency that the instance satisfies
// is data-safe, while the reverse direction of the same join may condition
// thousands of tuples. The planner estimates each candidate order's offending
// count from pattern-visible selectivity alone — concrete constants in the
// query pattern, shared-variable connectivity, and per-variable distinct
// counts computed in one pass over the relations — with no statistics tables
// and no dry-run executions. Candidates are the connected left-deep orders
// (plus greedy completions when enumeration truncates), ranked by estimated
// offending tuples first, then estimated intermediate rows.
//
// The same package hosts the inference-backend cost model (see backend.go):
// the engine asks Rank for a per-answer attempt order over the exact and
// sampling backends, driven by the answer's lineage profile and treewidth
// estimate. Plan selection and backend ranking together form the Plan IR
// (type IR) that a single evaluation commits to up front.
package planner

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/query"
	"repro/internal/relation"
)

// Source labels how an IR's physical plan was chosen.
const (
	// SourceSafe marks a safe plan from the hierarchy dichotomy: structurally
	// zero offending tuples, no ordering search needed.
	SourceSafe = "safe"
	// SourceGreedy marks a plan picked by the selectivity estimator among the
	// connected left-deep orders.
	SourceGreedy = "greedy"
)

// IR is the plan intermediate representation an evaluation commits to once,
// up front: the physical plan, how it was chosen, and the estimator's cost
// figures for the chosen order. The engine threads the IR through execution
// so traces, EXPLAIN and metrics can report the planning decision.
type IR struct {
	// Source is SourceSafe or SourceGreedy.
	Source string
	// Order is the join order behind Physical (nil for safe plans, whose
	// shape is dictated by the hierarchy rather than an order).
	Order []string
	// Physical is the plan the engine executes.
	Physical *query.Plan
	// EstOffending is the estimator's offending-tuple count for Order
	// (0 for safe plans, which are structurally offending-free).
	EstOffending int
	// EstRows is the estimated total intermediate row count, the tie-break
	// cost proxy.
	EstRows float64
	// Candidates is the number of orders the estimator scored (0 when no
	// search ran).
	Candidates int
	// SelectTime is the wall time spent choosing the plan.
	SelectTime time.Duration
}

// Describe renders the IR for traces and EXPLAIN.
func (ir *IR) Describe() string {
	if ir == nil {
		return ""
	}
	s := ir.Source
	if len(ir.Order) > 0 {
		s += " " + strings.Join(ir.Order, ",")
	}
	if ir.Source == SourceGreedy {
		s += fmt.Sprintf(" (est offending=%d, candidates=%d)", ir.EstOffending, ir.Candidates)
	}
	return s
}

// Options bounds the search.
type Options struct {
	// MaxOrders caps the number of candidate join orders scored
	// (0 = default 64). Orders are enumerated deterministically.
	MaxOrders int
}

func (o Options) maxOrders() int {
	if o.MaxOrders <= 0 {
		return 64
	}
	return o.MaxOrders
}

// Candidate is one scored join order.
type Candidate struct {
	Order []string
	Plan  *query.Plan
	// EstOffending is the estimated number of offending tuples the order
	// produces (rounded); the primary ranking key.
	EstOffending int
	// EstRows is the estimated total intermediate row count; the tie-break.
	EstRows float64
}

// String renders the candidate for reports.
func (c Candidate) String() string {
	return fmt.Sprintf("%s: est offending=%d, est rows=%.0f",
		strings.Join(c.Order, ","), c.EstOffending, c.EstRows)
}

// Plan chooses the IR for q on db: the safe plan when the query is
// hierarchical (structurally zero offending tuples — no order can beat it),
// otherwise the connected left-deep order with the smallest estimated
// offending-tuple count. Every call makes its own pass over the relations;
// Cache.Plan is the same function with that work remembered.
func Plan(db *relation.Database, q *query.Query, opts Options) (*IR, error) {
	start := time.Now()
	ir, _, err := plan(db, q, opts, nil)
	if err != nil {
		return nil, err
	}
	ir.SelectTime = time.Since(start)
	return ir, nil
}

// plan is Plan reading atom statistics through cache when it is non-nil. It
// leaves SelectTime to the caller and reports how many statistics passes over
// relations the choice took.
func plan(db *relation.Database, q *query.Query, opts Options, cache *Cache) (ir *IR, passes int, err error) {
	if sp, err := query.SafePlan(q); err == nil {
		return &IR{Source: SourceSafe, Physical: sp}, 0, nil
	}
	best, all, passes, err := choose(db, q, opts, cache)
	if err != nil {
		return nil, 0, err
	}
	return &IR{
		Source:       SourceGreedy,
		Order:        best.Order,
		Physical:     best.Plan,
		EstOffending: best.EstOffending,
		EstRows:      best.EstRows,
		Candidates:   len(all),
	}, passes, nil
}

// Choose scores the candidate left-deep orders of q against db and returns
// the best candidate plus the full ranking (best first). The best candidate
// minimizes estimated offending tuples, breaking ties by estimated
// intermediate rows, then lexicographic order (for determinism). Candidates
// are the connected orders up to Options.MaxOrders plus, when enumeration
// truncates, the greedy completion from every start atom — so very wide
// queries still consider an order built step-by-step by the estimator.
func Choose(db *relation.Database, q *query.Query, opts Options) (*Candidate, []Candidate, error) {
	best, all, _, err := choose(db, q, opts, nil)
	return best, all, err
}

// choose is Choose reading atom statistics through cache when it is non-nil;
// passes is the number of statistics passes over relations it took.
func choose(db *relation.Database, q *query.Query, opts Options, cache *Cache) (best *Candidate, all []Candidate, passes int, err error) {
	if err := q.Validate(); err != nil {
		return nil, nil, 0, err
	}
	est, err := newEstimator(db, q, cache)
	if err != nil {
		return nil, nil, 0, err
	}
	limit := opts.maxOrders()
	orders := connectedOrders(q, limit)
	if len(orders) == 0 {
		return nil, nil, 0, fmt.Errorf("planner: no join order for %s", q.Name)
	}
	if len(orders) >= limit {
		// Enumeration truncated: add the greedy completions so at least one
		// estimator-guided order is always in the pool.
		seen := make(map[string]bool, len(orders))
		for _, o := range orders {
			seen[strings.Join(o, ",")] = true
		}
		for start := range q.Atoms {
			g := est.greedyOrder(start)
			if g != nil && !seen[strings.Join(g, ",")] {
				seen[strings.Join(g, ",")] = true
				orders = append(orders, g)
			}
		}
	}
	rank := ranking{cands: make([]Candidate, 0, len(orders)), joined: make([]string, 0, len(orders))}
	for _, order := range orders {
		plan, err := query.LeftDeepPlan(q, order)
		if err != nil {
			return nil, nil, 0, err
		}
		off, rows := est.estimateOrder(order)
		rank.cands = append(rank.cands, Candidate{
			Order:        order,
			Plan:         plan,
			EstOffending: off,
			EstRows:      rows,
		})
		rank.joined = append(rank.joined, strings.Join(order, ","))
	}
	sort.Sort(rank)
	first := rank.cands[0]
	return &first, rank.cands, est.passes, nil
}

// ranking sorts candidates best first; joined holds each candidate's order
// as one string, the final tie-break, built once instead of per comparison.
type ranking struct {
	cands  []Candidate
	joined []string
}

func (r ranking) Len() int { return len(r.cands) }

func (r ranking) Less(i, j int) bool {
	a, b := &r.cands[i], &r.cands[j]
	if a.EstOffending != b.EstOffending {
		return a.EstOffending < b.EstOffending
	}
	if a.EstRows != b.EstRows {
		return a.EstRows < b.EstRows
	}
	return r.joined[i] < r.joined[j]
}

func (r ranking) Swap(i, j int) {
	r.cands[i], r.cands[j] = r.cands[j], r.cands[i]
	r.joined[i], r.joined[j] = r.joined[j], r.joined[i]
}

// connectedOrders enumerates left-deep atom orders whose every prefix shares
// a variable with the next atom (no cross products), up to limit orders.
// When the query is variable-disconnected, orders fall back to unrestricted
// permutations.
//
// The enumeration order is deterministic and part of the package contract
// (covered by a golden test): depth-first over atom indexes in ascending body
// position, so for q :- A(..), B(..), C(..) the first emitted order starts
// with A whenever A can start a connected order. Plan choice is therefore
// reproducible run-to-run at any parallelism — ties in the ranking resolve
// identically because the candidate list itself never reorders.
func connectedOrders(q *query.Query, limit int) [][]string {
	n := len(q.Atoms)
	varsOf := make([]map[string]bool, n)
	for i := range q.Atoms {
		varsOf[i] = make(map[string]bool)
		for _, v := range q.Atoms[i].Vars() {
			varsOf[i][v] = true
		}
	}
	connects := func(prefix map[string]bool, next int) bool {
		for v := range varsOf[next] {
			if prefix[v] {
				return true
			}
		}
		return false
	}
	var out [][]string
	used := make([]bool, n)
	prefixVars := make(map[string]bool)
	var current []string
	var rec func(requireConnected bool)
	rec = func(requireConnected bool) {
		if len(out) >= limit {
			return
		}
		if len(current) == n {
			out = append(out, append([]string(nil), current...))
			return
		}
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			if requireConnected && len(current) > 0 && !connects(prefixVars, i) {
				continue
			}
			used[i] = true
			current = append(current, q.Atoms[i].Pred)
			var added []string
			for v := range varsOf[i] {
				if !prefixVars[v] {
					prefixVars[v] = true
					added = append(added, v)
				}
			}
			rec(requireConnected)
			for _, v := range added {
				delete(prefixVars, v)
			}
			current = current[:len(current)-1]
			used[i] = false
		}
	}
	rec(true)
	if len(out) == 0 {
		rec(false)
	}
	return out
}
