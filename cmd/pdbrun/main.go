// Command pdbrun evaluates a conjunctive query over a probabilistic
// database stored as a directory of CSV files.
//
// Usage:
//
//	pdbrun -data data/p1 -query 'q(h) :- R1(h, x), S1(h, x, y), R2(h, y)' \
//	       -order R1,S1,R2 -strategy partial
//
// Strategies: partial (the paper's hybrid method, default), safe (purely
// extensional, fails if the instance is not data-safe), network (full
// intensional AND-OR network), dnf (MayBMS-style exact lineage), mc
// (Karp–Luby sampling).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/pdb"
)

func main() {
	var (
		dataDir   = flag.String("data", "", "directory of <relation>.csv files (required)")
		queryText = flag.String("query", "", "conjunctive query, e.g. 'q(h) :- R(h,x), S(h,x,y)' (required)")
		order     = flag.String("order", "", "comma-separated left-deep join order (default: the planner's choice: the safe plan if the query is safe, else the order it estimates to condition the fewest tuples)")
		strategy  = flag.String("strategy", "partial", "evaluation strategy: partial, safe, network, dnf, mc or dissociation")
		samples   = flag.Int("samples", 100000, "samples for mc and the approximate fallback")
		parallel  = flag.Int("parallel", 1, "deprecated alias for -parallelism")
		workers   = flag.Int("parallelism", 0, "worker goroutines for per-answer inference (0 = use -parallel; results are identical to sequential)")
		timeout   = flag.Duration("timeout", 0, "abort the evaluation after this wall-clock duration, e.g. 30s (0 = none)")
		memBudget = flag.Int64("mem-budget", 0, "operator scratch memory budget in bytes; join/dedup partitions spill to disk past it, results unchanged (0 = unlimited)")
		width     = flag.Int("width", 0, "exact-inference width cap (0 = default)")
		seed      = flag.Int64("seed", 1, "sampler seed")
		showPlan  = flag.Bool("plan", false, "print the physical plan before running")
		dotOut    = flag.String("dot", "", "write the AND-OR network to this file (network strategies)")
		topK      = flag.Int("top", 20, "print at most this many answers (0 = all)")
		optimize  = flag.Bool("optimize", false, "data-aware plan selection: cost candidate join orders and use the best (the default evaluation path already does this; -optimize additionally prints the ranking)")
		noCircuit = flag.Bool("no-circuit", false, "disable the compiled-circuit exact backend: exact inference reverts to the memoized Shannon solver (ablation; answers are bit-identical either way)")
		sqlOut    = flag.String("sql", "", "write the paper-style SQL batch implementing the plan to this file ('-' for stdout)")
		trace     = flag.Bool("trace", false, "print a per-operator execution trace (network strategies)")
		explain   = flag.Bool("explain", false, "print an EXPLAIN ANALYZE operator tree after the run (implies tracing)")
		metrics   = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address for the life of the process, e.g. localhost:6060")
	)
	flag.Parse()
	if *metrics != "" {
		addr, err := obs.Serve(*metrics)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pdbrun: metrics at http://%s/metrics\n", addr)
	}
	if *dataDir == "" || *queryText == "" {
		fmt.Fprintln(os.Stderr, "pdbrun: -data and -query are required")
		flag.Usage()
		os.Exit(2)
	}
	db, err := pdb.LoadDatabase(*dataDir)
	if err != nil {
		fatal(err)
	}
	q, err := pdb.ParseQuery(*queryText)
	if err != nil {
		fatal(err)
	}
	strat, err := pdb.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}
	par := *workers
	if par == 0 {
		par = *parallel
	}
	opts := pdb.Options{Strategy: strat, Samples: *samples, MaxWidth: *width, Seed: *seed, Parallelism: par, Trace: *trace || *explain, NoCircuit: *noCircuit}
	opts.Budget.Mem = *memBudget
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *sqlOut != "" {
		text, err := pdb.GenerateSQL(q, strings.Split(*order, ","))
		if err != nil {
			fatal(err)
		}
		if *sqlOut == "-" {
			fmt.Print(text)
		} else if err := os.WriteFile(*sqlOut, []byte(text), 0o644); err != nil {
			fatal(err)
		}
	}

	var res *pdb.Result
	if *optimize {
		best, ranked, err := db.OptimizePlan(q)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("optimizer ranked %d join orders; best: %s (est offending=%d, est rows=%.0f)\n",
			len(ranked), strings.Join(best.Order, ","), best.EstOffending, best.EstRows)
		if *showPlan {
			fmt.Println("plan:", best.Plan)
		}
		res, err = db.EvaluateWithPlanContext(ctx, q, best.Plan, opts)
		if err != nil {
			fatal(err)
		}
	} else if *order != "" {
		plan, err := pdb.LeftDeepPlan(q, strings.Split(*order, ",")...)
		if err != nil {
			fatal(err)
		}
		if *showPlan {
			fmt.Println("plan:", plan)
		}
		res, err = db.EvaluateWithPlanContext(ctx, q, plan, opts)
		if err != nil {
			fatal(err)
		}
	} else {
		if *showPlan {
			if plan, err := pdb.SafePlan(q); err == nil {
				fmt.Println("plan (safe):", plan)
			} else {
				fmt.Println("plan: left-deep, join order chosen by the planner (query is unsafe:", err, "); -explain prints it")
			}
		}
		res, err = db.EvaluateContext(ctx, q, opts)
		if err != nil {
			fatal(err)
		}
	}

	rows := append([]pdb.Row(nil), res.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].P > rows[j].P })
	if len(res.Attrs) == 0 {
		fmt.Printf("Pr(q) = %.9f\n", res.BoolProb())
	} else {
		fmt.Printf("%s  probability\n", strings.Join(res.Attrs, ", "))
		for i, row := range rows {
			if *topK > 0 && i >= *topK {
				fmt.Printf("... (%d more answers)\n", len(rows)-i)
				break
			}
			vals := make([]string, len(row.Vals))
			for j, v := range row.Vals {
				vals[j] = v.String()
			}
			fmt.Printf("%s  %.9f\n", strings.Join(vals, ", "), row.P)
		}
	}
	s := res.Stats
	fmt.Printf("\nstats: strategy=%v answers=%d offending=%d network=%d nodes/%d edges width=%d approx=%v\n",
		s.Strategy, s.Answers, s.OffendingTuples, s.NetworkNodes, s.NetworkEdges, s.InferenceWidth, s.Approximate)
	fmt.Printf("       lineage=%d clauses/%d vars plan=%v inference=%v\n",
		s.LineageClauses, s.LineageVars, s.PlanTime, s.InferenceTime)
	if s.SpilledPartitions > 0 {
		fmt.Printf("       spill: %d partitions, %d bytes (mem peak %d / budget %d)\n",
			s.SpilledPartitions, s.SpillBytes, s.MemPeakBytes, *memBudget)
	}
	for _, js := range s.PerJoin {
		fmt.Printf("       join %s: conditioned %d offending tuples\n", js.Join, js.Conditioned)
	}
	if *explain {
		fmt.Println("\nexplain analyze:")
		if err := res.Explain(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *trace {
		fmt.Println("\noperator trace (post-order):")
		fmt.Printf("%10s %12s %12s  %s\n", "rows", "net growth", "own time", "operator")
		for _, op := range s.Operators {
			fmt.Printf("%10d %12d %12v  %s\n", op.Rows, op.NetworkGrowth, op.Time.Round(time.Microsecond), op.Op)
		}
	}
	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteNetworkDOT(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("AND-OR network written to", *dotOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdbrun:", err)
	os.Exit(1)
}
