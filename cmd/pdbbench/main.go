// Command pdbbench regenerates the paper's evaluation: Table 1 and
// Figures 5–7 of Section 6, comparing the partial-lineage engine with the
// MayBMS-style exact-lineage baseline.
//
// Usage:
//
//	pdbbench -experiment all -scale small
//	pdbbench -experiment fig6 -scale paper
//
// The small scale finishes in seconds and preserves every qualitative shape
// of the paper's plots; the paper scale uses the published parameters
// (Figure 5: N=100, m=10000) and can take many minutes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// experimentNames lists every runnable experiment, in "all"'s execution
// order; the unknown-experiment error enumerates it for the user.
var experimentNames = []string{"table1", "fig5", "fig6", "fig7", "cache", "planner", "incremental", "topk", "spill", "compile"}

func main() {
	var (
		experiment  = flag.String("experiment", "all", "table1, fig5, fig6, fig7, cache, planner, incremental, topk, spill, compile or all")
		scaleName   = flag.String("scale", "small", "small or paper")
		asJSON      = flag.Bool("json", false, "emit measurements as JSON instead of tables (fig experiments)")
		parallelism = flag.Int("parallelism", 0, "worker goroutines for per-answer inference (0 or 1 = sequential; results are identical)")
		timeout     = flag.Duration("timeout", 0, "wall-clock budget per evaluation, e.g. 30s (0 = none)")
		cacheOut    = flag.String("cache-out", "BENCH_cache.json", "file for the cache benchmark artifact")
		plannerOut  = flag.String("planner-out", "BENCH_planner.json", "file for the planner benchmark artifact")
		incrOut     = flag.String("incremental-out", "BENCH_incremental.json", "file for the incremental benchmark artifact")
		topkOut     = flag.String("topk-out", "BENCH_topk.json", "file for the top-k benchmark artifact")
		spillOut    = flag.String("spill-out", "BENCH_spill.json", "file for the spill benchmark artifact")
		compileOut  = flag.String("compile-out", "BENCH_compile.json", "file for the compiled-circuit benchmark artifact")
		memBudget   = flag.Int64("mem-budget", 0, "operator scratch memory budget in bytes for the fig experiments; join/dedup spill to disk past it, results unchanged (0 = unlimited)")
		withMemo    = flag.Bool("memo", true, "cache experiment: include the memoized-inference comparison")
		withCache   = flag.Bool("cache", true, "cache experiment: include the server result-cache comparison")
		metrics     = flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address for the life of the process, e.g. localhost:6060")
	)
	flag.Parse()
	if *metrics != "" {
		addr, err := obs.Serve(*metrics)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "pdbbench: metrics at http://%s/metrics\n", addr)
	}
	sc, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	sc.Parallelism = *parallelism
	sc.Timeout = *timeout
	sc.MemBudget = *memBudget
	emitJSON := func(ms []experiments.Measurement) {
		type record struct {
			Experiment string  `json:"experiment"`
			Query      string  `json:"query"`
			X          float64 `json:"x"`
			Strategy   string  `json:"strategy"`
			Millis     float64 `json:"millis"`
			Offending  int     `json:"offending"`
			Answers    int     `json:"answers"`
			Approx     bool    `json:"approx"`
			Err        string  `json:"error,omitempty"`
		}
		records := make([]record, len(ms))
		for i, m := range ms {
			records[i] = record{
				Experiment: m.Experiment, Query: m.Query, X: m.X,
				Strategy: m.Strategy.String(), Millis: m.Millis,
				Offending: m.Offending, Answers: m.Answers,
				Approx: m.Approx, Err: m.Err,
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fatal(err)
		}
	}
	run := func(name string) {
		switch name {
		case "table1":
			fmt.Println("== Table 1: queries and query plans ==")
			experiments.PrintTable1(os.Stdout)
			fmt.Println()
		case "fig5":
			ms, err := experiments.Fig5(sc)
			if err != nil {
				fatal(err)
			}
			if *asJSON {
				emitJSON(ms)
				return
			}
			experiments.Print(os.Stdout,
				fmt.Sprintf("Figure 5: scalability, 1%% offending tuples (scale=%s, per-group ms)", sc.Name), "m", ms)
			fmt.Println()
		case "fig6":
			ms, err := experiments.Fig6(sc)
			if err != nil {
				fatal(err)
			}
			if *asJSON {
				emitJSON(ms)
				return
			}
			experiments.Print(os.Stdout,
				fmt.Sprintf("Figure 6: varying the fraction of offending tuples r_f (scale=%s, per-group ms)", sc.Name), "r_f", ms)
			fmt.Println()
		case "fig7":
			ms, err := experiments.Fig7(sc)
			if err != nil {
				fatal(err)
			}
			if *asJSON {
				emitJSON(ms)
				return
			}
			experiments.Print(os.Stdout,
				fmt.Sprintf("Figure 7: varying the fraction of deterministic tuples, r_f=1 (scale=%s, per-group ms)", sc.Name), "r_d", ms)
			fmt.Println()
		case "cache":
			rep, err := experiments.CacheBench(sc, experiments.CacheOptions{Memo: *withMemo, Cache: *withCache})
			if err != nil {
				fatal(err)
			}
			f, err := os.Create(*cacheOut)
			if err != nil {
				fatal(err)
			}
			if err := experiments.WriteCacheJSON(f, rep); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("== Cache levels: memoized inference, hash-consing, server result cache (scale=%s) ==\n", sc.Name)
			for _, pt := range rep.Memo {
				if pt.Err != "" {
					fmt.Printf("memo    %-24s err: %s\n", pt.Query, pt.Err)
					continue
				}
				fmt.Printf("memo    %-24s %14d %14d %7.2fx  hits=%d\n", pt.Query, pt.OffNs, pt.OnNs, pt.Speedup, pt.MemoHits)
			}
			for _, pt := range rep.Cons {
				if pt.Err != "" {
					fmt.Printf("consing %-24s err: %s\n", pt.Query, pt.Err)
					continue
				}
				fmt.Printf("consing %-24s %8d nodes %8d nodes %6.2fx\n", pt.Query, pt.NodesOff, pt.NodesOn, pt.Reduction)
			}
			for _, pt := range rep.Serve {
				if pt.Err != "" {
					fmt.Printf("server  %-24s err: %s\n", pt.Query, pt.Err)
					continue
				}
				fmt.Printf("server  %-24s %14d %14d %7.2fx\n", pt.Query, pt.ColdNs, pt.WarmNs, pt.Speedup)
			}
			fmt.Println("cache benchmark written to", *cacheOut)
			fmt.Println()
		case "planner":
			rep, err := experiments.PlannerBench(sc)
			if err != nil {
				fatal(err)
			}
			f, err := os.Create(*plannerOut)
			if err != nil {
				fatal(err)
			}
			if err := experiments.WritePlannerJSON(f, rep); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("== Planner: the planner's plan vs the fixed safe-else-body-order plan (scale=%s) ==\n", sc.Name)
			fmt.Printf("%-22s %14s %14s %8s %18s %s\n", "workload", "fixed (ns)", "adaptive (ns)", "speedup", "offending (f/a)", "plan")
			for _, pt := range rep.Workloads {
				if pt.Err != "" {
					fmt.Printf("%-22s err: %s\n", pt.Query, pt.Err)
					continue
				}
				fmt.Printf("%-22s %14d %14d %7.2fx %10d/%-7d %s [%s]\n",
					pt.Query, pt.FixedNs, pt.AdaptiveNs, pt.Speedup,
					pt.FixedOffending, pt.AdaptiveOffending, pt.PlanSource, pt.PlanOrder)
			}
			for _, c := range rep.Backends {
				fmt.Printf("backend %-16s attempts=%d wins=%d fallbacks=%d mean=%dns\n",
					c.Backend, c.Attempts, c.Wins, c.Fallbacks, c.MeanNs)
			}
			fmt.Println("planner benchmark written to", *plannerOut)
			fmt.Println()
		case "topk":
			rep, err := experiments.TopkBench(sc)
			if err != nil {
				fatal(err)
			}
			f, err := os.Create(*topkOut)
			if err != nil {
				fatal(err)
			}
			if err := experiments.WriteTopkJSON(f, rep); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("== Top-k: dissociation-seeded vs cold multisimulation (scale=%s) ==\n", sc.Name)
			fmt.Printf("%-16s %3s %14s %14s %8s %16s %12s\n", "workload", "k", "cold (ns)", "seeded (ns)", "speedup", "samples (c/s)", "seed-exact")
			for _, pt := range rep.Points {
				if pt.Err != "" {
					fmt.Printf("%-16s err: %s\n", pt.Workload, pt.Err)
					continue
				}
				fmt.Printf("%-16s %3d %14d %14d %7.2fx %9d/%-6d %12d\n",
					pt.Workload, pt.K, pt.ColdNs, pt.SeededNs, pt.Speedup,
					pt.ColdSamples, pt.SeededSamples, pt.SeededExact)
			}
			fmt.Println("top-k benchmark written to", *topkOut)
			fmt.Println()
		case "spill":
			rep, err := experiments.SpillBench(sc)
			if err != nil {
				fatal(err)
			}
			f, err := os.Create(*spillOut)
			if err != nil {
				fatal(err)
			}
			if err := experiments.WriteSpillJSON(f, rep); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("== Spill: in-memory vs 25%%-of-peak budgeted execution (scale=%s) ==\n", sc.Name)
			fmt.Printf("%-14s %14s %14s %8s %12s %10s %12s\n", "workload", "in-mem (ns)", "spill (ns)", "ratio", "budget (B)", "spilled", "spill (B)")
			for _, pt := range rep.Points {
				if pt.Err != "" {
					fmt.Printf("%-14s err: %s\n", pt.Workload, pt.Err)
					continue
				}
				fmt.Printf("%-14s %14d %14d %7.2fx %12d %10d %12d\n",
					pt.Workload, pt.InMemNs, pt.SpillNs, pt.Ratio,
					pt.BudgetBytes, pt.SpilledPartitions, pt.SpillBytes)
			}
			fmt.Println("spill benchmark written to", *spillOut)
			fmt.Println()
		case "incremental":
			rep, err := experiments.IncrementalBench(sc)
			if err != nil {
				fatal(err)
			}
			f, err := os.Create(*incrOut)
			if err != nil {
				fatal(err)
			}
			if err := experiments.WriteIncrementalJSON(f, rep); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("== Incremental: cache retention under churn, patch vs recompute refresh (scale=%s) ==\n", sc.Name)
			for _, pt := range rep.Retention {
				if pt.Err != "" {
					fmt.Printf("retention %-16s err: %s\n", pt.Workload, pt.Err)
					continue
				}
				fmt.Printf("retention %-16s %4d/%-4d warm hits  ratio %.2f\n", pt.Workload, pt.WarmHits, pt.Requests, pt.HitRatio)
			}
			for _, pt := range rep.Refresh {
				if pt.Err != "" {
					fmt.Printf("refresh   %-16s err: %s\n", pt.Kind, pt.Err)
					continue
				}
				fmt.Printf("refresh   %-16s %12d ns mean over %d rounds (%d answers)\n", pt.Kind, pt.MeanNs, pt.Rounds, pt.Answers)
			}
			fmt.Printf("patch speedup %.2fx\n", rep.PatchSpeedup)
			fmt.Println("incremental benchmark written to", *incrOut)
			fmt.Println()
		case "compile":
			rep, err := experiments.CompileBench(sc)
			if err != nil {
				fatal(err)
			}
			f, err := os.Create(*compileOut)
			if err != nil {
				fatal(err)
			}
			if err := experiments.WriteCompileJSON(f, rep); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("== Compile: cached d-DNNF circuit re-evaluation vs Shannon re-solve (scale=%s) ==\n", sc.Name)
			fmt.Printf("%-14s %14s %14s %8s %22s\n", "workload", "shannon (ns)", "circuit (ns)", "speedup", "compiles/hits/evals")
			for _, pt := range rep.Points {
				if pt.Err != "" {
					fmt.Printf("%-14s err: %s\n", pt.Workload, pt.Err)
					continue
				}
				fmt.Printf("%-14s %14d %14d %7.2fx %10d/%d/%d\n",
					pt.Workload, pt.ShannonNs, pt.CircuitNs, pt.Speedup,
					pt.Compiles, pt.Hits, pt.Evals)
			}
			fmt.Println("compile benchmark written to", *compileOut)
			fmt.Println()
		default:
			fatal(fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(experimentNames, ", ")))
		}
	}
	if *experiment == "all" {
		for _, name := range experimentNames {
			run(name)
		}
		return
	}
	run(*experiment)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pdbbench:", err)
	os.Exit(1)
}
