package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// quartiles returns the three cut points of vs the way Python's
// statistics.quantiles(vs, n=4) does (the exclusive method), so that a spread
// computed here is the spread the benchmark driver computes. It needs two
// values; with fewer all three are the value itself.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vs)
	sort.Float64s(s)
	if len(s) < 2 {
		if len(s) == 0 {
			return 0, 0, 0
		}
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share of
// the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// worsening is the share of base by which v is worse, negative when better.
func worsening(m metricSpec, base, v float64) float64 {
	if base == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (base - v) / base
	}
	return (v - base) / base
}

// sameSeedAllocBound replaces BENCHMARK.json's bound on allocs_per_op of a
// workload that repeats one operation, when every run compared had the same
// seed. BENCHMARK.json's bound has to cover ten seeds, that is ten databases
// (the counts spread 0.3-2.6% over them); with one seed fig5-partial's count
// repeats within 0.003% (repeatability.json), and the wide bound would call a
// 7% rise unchanged. Bytes allocated repeat less well (0.3% between two
// runs), so alloc_kb_per_op keeps its bound.
const sameSeedAllocBound = 0.001

// boundFor returns the bound that applies to metric m of the named workload.
func boundFor(m metricSpec, workload string, sameSeed bool) float64 {
	if sameSeed && m.Name == "allocs_per_op" {
		for _, w := range workloads {
			if w.name == workload && w.repeats {
				return sameSeedAllocBound
			}
		}
	}
	return m.Bound
}

// readReports loads every report the pattern names, in file-name order, and
// returns each workload's values of each end-to-end metric in that order. It
// adds the seeds the reports ran with to seeds.
func readReports(pattern string, seeds map[int64]bool) (map[string]map[string][]float64, error) {
	files, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no report matches %q", pattern)
	}
	sort.Strings(files)
	out := map[string]map[string][]float64{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		seeds[rep.Seed] = true
		for _, r := range rep.Results {
			if !r.Correct {
				return nil, fmt.Errorf("%s: workload %s failed its correctness checks; its numbers compare nothing", f, r.Workload)
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.EndToEnd {
				out[r.Workload][name] = append(out[r.Workload][name], m.Value)
			}
		}
	}
	return out, nil
}

// verdict classifies one workload × metric. The runs of the two sides are
// paired in file order, as an alternating comparison produces them.
//
//	unresolved  either side's run-to-run spread is wider than the bound
//	regressed   the new median is worse than the base's by more than the bound
//	improved    the new side wins at least nine pairs in ten and the medians
//	            differ by more than the base's own interquartile distance
//	unchanged   otherwise
func verdict(m metricSpec, base, new []float64) string {
	_, mb, _ := quartiles(base)
	_, mn, _ := quartiles(new)
	if max(spread(base), spread(new)) > m.Bound {
		return "unresolved"
	}
	worse := worsening(m, mb, mn)
	if worse > m.Bound {
		return "regressed"
	}
	wins, decided := 0, 0
	for i := 0; i < min(len(base), len(new)); i++ {
		if w := worsening(m, base[i], new[i]); w != 0 {
			decided++
			if w < 0 {
				wins++
			}
		}
	}
	q1, _, q3 := quartiles(base)
	if worse < 0 && decided > 0 && wins*10 >= decided*9 && math.Abs(mn-mb) > q3-q1 {
		return "improved"
	}
	return "unchanged"
}

// compareReports prints, per workload × end-to-end metric, the base median,
// the new median, their ratio with its base, and the verdict.
func compareReports(sp *spec, basePattern, newPattern string) error {
	seeds := map[int64]bool{}
	base, err := readReports(basePattern, seeds)
	if err != nil {
		return err
	}
	cur, err := readReports(newPattern, seeds)
	if err != nil {
		return err
	}
	sameSeed := len(seeds) == 1
	regressed := false
	fmt.Printf("%-14s %-16s %14s %14s %22s  %s\n", "workload", "metric", "base", "new", "new/base", "verdict")
	for _, w := range sp.Workloads {
		if base[w.Name] == nil || cur[w.Name] == nil {
			continue
		}
		for _, m := range sp.EndToEnd {
			b, n := base[w.Name][m.Name], cur[w.Name][m.Name]
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			_, mb, _ := quartiles(b)
			_, mn, _ := quartiles(n)
			m.Bound = boundFor(m, w.Name, sameSeed)
			v := verdict(m, b, n)
			regressed = regressed || v == "regressed"
			fmt.Printf("%-14s %-16s %14.4f %14.4f %8.4f of %-10.4g  %s (%d vs %d runs, spread %.2f%% / %.2f%%, bound %g%%, %s is better)\n",
				w.Name, m.Name, mb, mn, mn/mb, mb, v, len(b), len(n), 100*spread(b), 100*spread(n), 100*m.Bound, m.Better)
		}
	}
	if regressed {
		return errors.New("at least one end-to-end metric regressed by more than its bound")
	}
	return nil
}

// repeatRuns runs the set `times` times in one process, reversing the
// workload order every other time, and fails when any end-to-end metric
// moves between the runs by more than its bound (boundFor, with one seed). The
// verdict and every value go to path.
func repeatRuns(ctx context.Context, sp *spec, names []string, cfg config, times int, path string) error {
	values := map[string]map[string][]float64{}
	var reports []*report
	for i := 0; i < times; i++ {
		order := slices.Clone(names)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		fmt.Printf("\n== run %d of %d: %v\n", i+1, times, order)
		results, err := runSet(ctx, sp, order, cfg)
		if err != nil {
			return err
		}
		rep := newReport(cfg.seed, cfg.seconds)
		for _, r := range results {
			if !r.Correct {
				return fmt.Errorf("run %d: %s failed its correctness checks", i+1, r.Workload)
			}
			rep.Results = append(rep.Results, *r)
			if values[r.Workload] == nil {
				values[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.EndToEnd {
				values[r.Workload][name] = append(values[r.Workload][name], m.Value)
			}
		}
		reports = append(reports, rep)
	}

	type row struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Values   []float64 `json:"values"`
		Moved    float64   `json:"moved"` // (max - min) / min
		Bound    float64   `json:"bound"`
		Within   bool      `json:"within"`
	}
	var rows []row
	ok := true
	fmt.Printf("\n%-14s %-16s %10s %8s  values\n", "workload", "metric", "moved", "bound")
	for _, name := range names {
		for _, m := range sp.EndToEnd {
			vs := values[name][m.Name]
			lo, hi := slices.Min(vs), slices.Max(vs)
			moved := 0.0
			if lo > 0 {
				moved = (hi - lo) / lo
			}
			bound := boundFor(m, name, true) // every run of a -repeat has cfg.seed
			within := moved <= bound
			ok = ok && within
			rows = append(rows, row{name, m.Name, vs, moved, bound, within})
			fmt.Printf("%-14s %-16s %9.4f%% %7g%%  %v%s\n", name, m.Name, 100*moved, 100*bound, vs, map[bool]string{true: "", false: "  <-- beyond bound"}[within])
		}
	}
	verdict := map[bool]string{true: "repeatable", false: "not repeatable"}[ok]
	if err := writeJSON(path, struct {
		Verdict string    `json:"verdict"`
		Rows    []row     `json:"rows"`
		Runs    []*report `json:"runs"`
	}{verdict, rows, reports}); err != nil {
		return err
	}
	fmt.Printf("\n%s; written to %s\n", verdict, path)
	if !ok {
		return errors.New("the runs disagree by more than a metric's bound")
	}
	return nil
}
