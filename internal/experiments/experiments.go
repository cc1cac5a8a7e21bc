// Package experiments regenerates the paper's evaluation (Section 6):
// Figure 5 (scalability with 1% offending tuples), Figure 6 (varying the
// fraction of offending tuples r_f) and Figure 7 (varying the fraction of
// deterministic tuples r_d), over the Table 1 queries, comparing the
// partial-lineage engine with the MayBMS-style DNF baseline.
//
// Scales: Small() keeps every run in milliseconds-to-seconds for benchmarks
// and CI; Paper() uses the paper's parameters (N=100, m=10000 for Figure 5 —
// expect minutes). Absolute times differ from the paper's 2010 hardware and
// SQL Server substrate; the reproduced claim is the shape: who wins, how
// slopes compare, and where the phase transition sits.
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workload"
)

// Scale bundles the experiment parameters.
type Scale struct {
	Name string

	// Fig5 parameters (r_f and r_d fixed by the paper: 0.01 and 1).
	Fig5    workload.Params
	Fig5Ms  []int // m values swept for the scalability series
	Queries []string

	// Fig6: r_d = 1, r_f swept.
	Fig6    workload.Params
	Fig6RFs []float64

	// Fig7: r_f = 1, r_d swept.
	Fig7    workload.Params
	Fig7RDs []float64

	// PlannerXs sizes the planner benchmark's FD-direction instance (the
	// x-domain of the asymmetric B relation; the y-domain is fixed at 12).
	PlannerXs int

	// TopkGroups and TopkFanout size the top-k benchmark's graded-group
	// instances: TopkGroups answers, each joining TopkFanout R tuples
	// against two S tuples apiece.
	TopkGroups, TopkFanout int

	// Samples for the approximate fallback beyond the exact-inference
	// phase transition.
	Samples int
	// MaxWidth caps exact inference before the fallback engages.
	MaxWidth int
	// Parallelism is the worker count for per-answer inference (0 or 1 =
	// sequential; results are identical).
	Parallelism int
	// Timeout bounds each individual evaluation's wall clock (0 = none);
	// a timed-out point reports its error instead of a measurement.
	Timeout time.Duration
	// MemBudget bounds operator scratch memory per evaluation in bytes
	// (0 = unlimited): join/dedup spill partitions to disk past it and the
	// measurements stay byte-identical, only slower (docs/SPILL.md).
	MemBudget int64
}

// Small returns a laptop-scale configuration preserving the experiments'
// shape.
func Small() Scale {
	return Scale{
		Name:       "small",
		Fig5:       workload.Params{N: 10, M: 400, Fanout: 4, RF: 0.01, RD: 1, Seed: 1},
		Fig5Ms:     []int{50, 100, 200, 400},
		Queries:    []string{"P1", "P2", "P3", "S2", "S3"},
		Fig6:       workload.Params{N: 3, M: 50, Fanout: 3, RD: 1, Seed: 2},
		Fig6RFs:    []float64{0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1},
		Fig7:       workload.Params{N: 3, M: 50, Fanout: 3, RF: 1, Seed: 3},
		Fig7RDs:    []float64{0, 0.05, 0.1, 0.2, 0.3},
		PlannerXs:  1200,
		TopkGroups: 24,
		TopkFanout: 12,
		Samples:    10000,
		MaxWidth:   18,
	}
}

// Paper returns the paper's parameters (Section 6.3–6.5).
func Paper() Scale {
	return Scale{
		Name:       "paper",
		Fig5:       workload.Params{N: 100, M: 10000, Fanout: 4, RF: 0.01, RD: 1, Seed: 1},
		Fig5Ms:     []int{1250, 2500, 5000, 10000},
		Queries:    []string{"P1", "P2", "P3", "S2", "S3"},
		Fig6:       workload.Params{N: 10, M: 1000, Fanout: 3, RD: 1, Seed: 2},
		Fig6RFs:    []float64{0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1},
		Fig7:       workload.Params{N: 10, M: 1000, Fanout: 3, RF: 1, Seed: 3},
		Fig7RDs:    []float64{0, 0.05, 0.1, 0.2, 0.3},
		PlannerXs:  4000,
		TopkGroups: 48,
		TopkFanout: 20,
		Samples:    50000,
		MaxWidth:   20,
	}
}

// ScaleByName resolves "small" or "paper".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "small":
		return Small(), nil
	case "paper":
		return Paper(), nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (want small or paper)", name)
}

// Measurement is one data point of an experiment series.
type Measurement struct {
	Experiment string  // fig5, fig6, fig7
	Query      string  // Table 1 name
	X          float64 // the swept parameter (m, r_f or r_d)
	Strategy   core.Strategy
	Millis     float64
	Offending  int
	Answers    int
	Approx     bool
	Err        string // non-empty when the run failed (e.g. NoFallback)
}

// strategies compared throughout Section 6: the paper's system vs MayBMS.
var compared = []core.Strategy{core.PartialLineage, core.DNFLineage}

// runOne evaluates one (query, params, strategy) point, reporting the
// average per-answer-group wall time as the paper does ("we report the
// average execution time per query" over the N instances).
func runOne(spec workload.Spec, p workload.Params, strat core.Strategy, sc Scale) Measurement {
	m := Measurement{Query: spec.Name, Strategy: strat}
	db, err := workload.GenerateFor(spec, p)
	if err != nil {
		m.Err = err.Error()
		return m
	}
	plan, err := spec.Plan()
	if err != nil {
		m.Err = err.Error()
		return m
	}
	opts := engine.Options{Strategy: strat, Samples: sc.Samples, Seed: p.Seed, Parallelism: sc.Parallelism}
	opts.Inference.MaxFactorVars = sc.MaxWidth
	opts.Budget.Time = sc.Timeout
	opts.Budget.Mem = sc.MemBudget
	start := time.Now()
	res, err := engine.Evaluate(db, spec.Query(), plan, opts)
	elapsed := time.Since(start)
	if err != nil {
		m.Err = err.Error()
		return m
	}
	m.Millis = float64(elapsed.Microseconds()) / 1000 / float64(p.N)
	m.Offending = res.Stats.OffendingTuples
	m.Answers = res.Stats.Answers
	m.Approx = res.Stats.Approximate
	return m
}

// Fig5 runs the scalability experiment: m swept with 1% offending tuples.
func Fig5(sc Scale) ([]Measurement, error) {
	var out []Measurement
	for _, qname := range sc.Queries {
		spec, err := workload.SpecByName(qname)
		if err != nil {
			return nil, err
		}
		for _, mval := range sc.Fig5Ms {
			p := sc.Fig5
			p.M = mval
			for _, strat := range compared {
				meas := runOne(spec, p, strat, sc)
				meas.Experiment = "fig5"
				meas.X = float64(mval)
				out = append(out, meas)
			}
		}
	}
	return out, nil
}

// Fig6 runs the offending-tuples sweep: r_f from 0 to 1, r_d = 1.
func Fig6(sc Scale) ([]Measurement, error) {
	var out []Measurement
	for _, qname := range sc.Queries {
		spec, err := workload.SpecByName(qname)
		if err != nil {
			return nil, err
		}
		for _, rf := range sc.Fig6RFs {
			p := sc.Fig6
			p.RF = rf
			for _, strat := range compared {
				meas := runOne(spec, p, strat, sc)
				meas.Experiment = "fig6"
				meas.X = rf
				out = append(out, meas)
			}
		}
	}
	return out, nil
}

// Fig7 runs the deterministic-tuples sweep: r_d small, r_f = 1.
func Fig7(sc Scale) ([]Measurement, error) {
	var out []Measurement
	for _, qname := range sc.Queries {
		spec, err := workload.SpecByName(qname)
		if err != nil {
			return nil, err
		}
		for _, rd := range sc.Fig7RDs {
			p := sc.Fig7
			p.RD = rd
			for _, strat := range compared {
				meas := runOne(spec, p, strat, sc)
				meas.Experiment = "fig7"
				meas.X = rd
				out = append(out, meas)
			}
		}
	}
	return out, nil
}

// PrintTable1 prints the query catalog as the paper's Table 1.
func PrintTable1(w io.Writer) {
	fmt.Fprintf(w, "%-5s %-70s %s\n", "Name", "Query", "Join Order (left-deep plans)")
	for _, s := range workload.Table1() {
		name := s.Name
		if name == "P1" {
			name = "P1/S1"
		}
		order := ""
		for i, o := range s.JoinOrder {
			if i > 0 {
				order += ", "
			}
			order += o
		}
		fmt.Fprintf(w, "%-5s %-70s %s\n", name, s.QueryText, order)
	}
}

// Print renders measurements as a series table grouped by query: one line
// per swept value with the compared strategies side by side.
func Print(w io.Writer, title, xLabel string, ms []Measurement) {
	fmt.Fprintf(w, "== %s ==\n", title)
	byQuery := make(map[string][]Measurement)
	var queries []string
	for _, m := range ms {
		if _, ok := byQuery[m.Query]; !ok {
			queries = append(queries, m.Query)
		}
		byQuery[m.Query] = append(byQuery[m.Query], m)
	}
	for _, q := range queries {
		fmt.Fprintf(w, "-- query %s --\n", q)
		fmt.Fprintf(w, "%10s %16s %16s %10s %8s\n", xLabel, "partial (ms)", "maybms-dnf (ms)", "offending", "approx")
		points := byQuery[q]
		for i := 0; i < len(points); i += 2 {
			partial, dnf := points[i], points[i+1]
			if partial.Strategy != core.PartialLineage {
				partial, dnf = dnf, partial
			}
			approx := ""
			if partial.Approx {
				approx = "mc"
			}
			pm := fmt.Sprintf("%.2f", partial.Millis)
			if partial.Err != "" {
				pm = "err"
			}
			dm := fmt.Sprintf("%.2f", dnf.Millis)
			if dnf.Err != "" {
				dm = "err"
			}
			fmt.Fprintf(w, "%10.3g %16s %16s %10d %8s\n", partial.X, pm, dm, partial.Offending, approx)
		}
	}
}
