package experiments

import (
	"context"
	"encoding/json"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/tuple"
)

// PlannerPoint compares one workload evaluated with the plan the cost-aware
// planner chooses against the plan a caller would write without it: the safe
// plan when one exists, else the left-deep plan in body order
// (query.FixedPlan). Inference is the same ranked dispatch on both sides, and
// both compute the same answers; the planner's lever is the offending-tuple
// count — a join order that avoids conditioning turns an exponential Shannon
// expansion into an extensional evaluation.
type PlannerPoint struct {
	Query             string  `json:"query"`
	FixedNs           int64   `json:"fixed_ns"`
	AdaptiveNs        int64   `json:"adaptive_ns"`
	AdaptiveColdNs    int64   `json:"adaptive_cold_ns"` // first adaptive run: the planning cache is empty
	Speedup           float64 `json:"speedup"`
	FixedOffending    int     `json:"fixed_offending"`
	AdaptiveOffending int     `json:"adaptive_offending"`
	PlanSource        string  `json:"plan_source"`
	PlanOrder         string  `json:"plan_order,omitempty"`
	Err               string  `json:"error,omitempty"`
}

// BackendCalibration is one inference backend's attempt history over the
// adaptive runs, from the planner's stats sink: how often the ranking
// reached it, how often it won, and its mean attempt wall time. The sink is
// observability-only (it never feeds back into ranking); this section is the
// data one would eyeball to retune the cost model's constants.
type BackendCalibration struct {
	Backend   string `json:"backend"`
	Attempts  int64  `json:"attempts"`
	Wins      int64  `json:"wins"`
	Fallbacks int64  `json:"fallbacks"`
	MeanNs    int64  `json:"mean_attempt_ns"`
}

// PlannerReport is the BENCH_planner.json artifact.
type PlannerReport struct {
	Workloads []PlannerPoint       `json:"workloads"`
	Backends  []BackendCalibration `json:"backend_calibration,omitempty"`
}

// plannerWorkload is one benchmark instance: a database and a query whose
// written body order may or may not be the order the planner would pick.
type plannerWorkload struct {
	name string
	db   *relation.Database
	q    *query.Query
}

// fdDirectionDB scales the planner tests' asymmetric instance: in
// B(x, y) the functional dependency x→y holds (y = x mod ys) but y→x does
// not, so joining A⋈B first is data-safe while joining C⋈B first conditions
// one tuple per violated y-group member.
func fdDirectionDB(xs, ys int) *relation.Database {
	db := relation.NewDatabase()
	a := relation.New("A", "x")
	b := relation.New("B", "x", "y")
	c := relation.New("C", "y")
	for x := 1; x <= xs; x++ {
		a.MustAdd(tuple.Ints(int64(x)), 0.5)
		b.MustAdd(tuple.Ints(int64(x), int64(x%ys)), 0.5)
	}
	for y := 0; y < ys; y++ {
		c.MustAdd(tuple.Ints(int64(y)), 0.5)
	}
	db.AddRelation(a)
	db.AddRelation(b)
	db.AddRelation(c)
	return db
}

// plannerWorkloads builds the mixed workload: one instance where the written
// body order conditions heavily and the planner must reorder (the headline
// point), the same instance with the body already in the safe direction (the
// planner must not regress a well-written query), and the shared-core
// instance whose per-answer lineages exercise the backend ranking without
// any join-order freedom.
func plannerWorkloads(sc Scale) []plannerWorkload {
	fd := fdDirectionDB(sc.PlannerXs, 12)
	return []plannerWorkload{
		// Body order C, B, A: C⋈B joins against the violated FD direction,
		// so the body-order plan conditions one tuple per x sharing
		// the joined y — Shannon expansion exponential in that count. The
		// planner's estimator sees the violation and flips to A-first.
		{"fd-adversarial-order", fd, query.MustParse("q :- C(y), B(x, y), A(x)")},
		// Same instance, body already safe: both sides evaluate the same
		// physical plan, so this point isolates the planner's own overhead
		// (the one-pass selectivity profiling) — expect a ratio below 1 on a
		// sub-millisecond query, converging to 1 as evaluation grows.
		{"fd-good-order", fd, query.MustParse("q :- A(x), B(x, y), C(y)")},
		// Shared-core: every answer's lineage meets one hard triangle core.
		// No join order avoids the correlation; the point exercises the
		// backend-ranking half of the planner (Shannon-first with the
		// cross-answer memo) rather than join ordering.
		{"shared-core", sharedCoreDB(7, 4), query.MustParse("q(h) :- G(h), R(x), S(x, y), T(y)")},
	}
}

// PlannerBench measures the planner's plan against the fixed plan on the
// mixed workload: best-of-three interleaved wall clocks per side, the
// measured offending-tuple counts both ways, and the backend calibration
// accumulated by the adaptive runs' sink. The adaptive runs plan through a
// planning cache per workload, as every pdb.Database does: the first of the
// three pays the statistics passes (reported as AdaptiveColdNs), the other
// two plan in a lookup, so AdaptiveNs is what a repeated query costs. The
// fixed runs are handed their plan, built once outside the timed region.
func PlannerBench(sc Scale) (*PlannerReport, error) {
	sink := planner.NewSink()
	rep := &PlannerReport{}
	for _, wl := range plannerWorkloads(sc) {
		pt := PlannerPoint{Query: wl.name}
		plan, err := query.FixedPlan(wl.q)
		if err != nil {
			return nil, err
		}
		// The workload's database never changes: one version forever.
		plans := planner.NewCache(func(string) int64 { return 1 })
		run := func(adaptive bool) (time.Duration, *engine.Result, error) {
			opts := engine.Options{
				Strategy:    core.PartialLineage,
				Parallelism: sc.Parallelism,
				Seed:        1,
			}
			opts.Inference.MaxFactorVars = sc.MaxWidth
			opts.Budget.Time = sc.Timeout
			// Collect first: the two sides alternate, and without this the
			// second of each pair pays for the first one's garbage (it made
			// the adaptive side of fd-good-order read twice its cost).
			runtime.GC()
			start := time.Now()
			if !adaptive {
				res, err := engine.EvaluateContext(context.Background(), wl.db, wl.q, plan, opts)
				return time.Since(start), res, err
			}
			opts.PlannerSink = sink
			opts.Plans = plans
			res, err := engine.EvaluateQuery(wl.db, wl.q, opts)
			return time.Since(start), res, err
		}
		var fixedBest, adaptiveBest time.Duration
		var fixedRes, adaptiveRes *engine.Result
		for i := 0; i < 3; i++ {
			fixed, fres, err := run(false)
			if err != nil {
				pt.Err = err.Error()
				break
			}
			adaptive, ares, err := run(true)
			if err != nil {
				pt.Err = err.Error()
				break
			}
			if i == 0 || fixed < fixedBest {
				fixedBest, fixedRes = fixed, fres
			}
			if i == 0 {
				pt.AdaptiveColdNs = adaptive.Nanoseconds()
			}
			if i == 0 || adaptive < adaptiveBest {
				adaptiveBest, adaptiveRes = adaptive, ares
			}
		}
		if pt.Err == "" {
			pt.FixedNs, pt.AdaptiveNs = fixedBest.Nanoseconds(), adaptiveBest.Nanoseconds()
			if adaptiveBest > 0 {
				pt.Speedup = float64(fixedBest) / float64(adaptiveBest)
			}
			pt.FixedOffending = fixedRes.Stats.OffendingTuples
			pt.AdaptiveOffending = adaptiveRes.Stats.OffendingTuples
			pt.PlanSource = adaptiveRes.Stats.PlanSource
			pt.PlanOrder = adaptiveRes.Stats.PlanOrder
		}
		rep.Workloads = append(rep.Workloads, pt)
	}
	rep.Backends = calibration(sink)
	return rep, nil
}

// calibration flattens a sink snapshot into a sorted, JSON-stable slice.
func calibration(s *planner.Sink) []BackendCalibration {
	snap := s.Snapshot()
	out := make([]BackendCalibration, 0, len(snap))
	for name, st := range snap {
		c := BackendCalibration{
			Backend:   name,
			Attempts:  st.Attempts,
			Wins:      st.Wins,
			Fallbacks: st.Fallbacks,
		}
		if st.Attempts > 0 {
			c.MeanNs = st.Nanos / st.Attempts
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Backend < out[j].Backend })
	return out
}

// WritePlannerJSON writes the report as indented, HTML-unescaped JSON.
func WritePlannerJSON(w io.Writer, rep *PlannerReport) error {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	_, err := io.WriteString(w, b.String())
	return err
}
