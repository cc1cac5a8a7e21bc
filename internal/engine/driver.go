package engine

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// This file is the strategy-independent pipeline driver. All five strategies
// evaluate in the same shape — a build stage that executes the plan (over
// pL-relations or by full grounding) and yields n independent answer jobs,
// an inference stage that computes each job's confidence on the execution
// context's worker pool, and an assemble stage that folds the confidences
// into result rows. runPipeline owns the timing and error discipline of that
// shape; evalNetwork and evalLineage supply only the strategy-specific
// stages instead of each carrying its own worker-pool and bookkeeping loops.

// confidence is the outcome of one answer job: a probability plus the
// inference-cost metadata the statistics and the trace track.
type confidence struct {
	p           float64
	width, vars int
	approx      bool
	err         error
	// backend names the inference path that produced p ("shannon", "ve",
	// "karp-luby", ...); reason explains a sampling fallback (empty when the
	// computation stayed exact); dur is the job's wall time, stamped by
	// runPipeline for the trace's per-answer spans.
	backend string
	reason  string
	dur     time.Duration
	// fallbacks names the ranked backends that failed deterministically
	// before backend succeeded (answerMarginal's ranking); predictMiss marks
	// an answer whose first-ranked backend was not the one that produced p.
	fallbacks   []string
	predictMiss bool
	// Bounds fields (dissociation strategy): lo/hi bracket the answer
	// probability, dissociated counts the shared variables split. p carries
	// the interval midpoint so ordering and BoolProb stay meaningful.
	lo, hi      float64
	dissociated int
}

// runPipeline drives one evaluation: build (timed into Stats.PlanTime)
// returns the number of independent inference jobs; infer computes job i
// (timed into Stats.InferenceTime, fanned out on ec's workers); assemble
// folds the job outcomes into res. A build returning 0 jobs skips straight
// to assemble with an empty slice (e.g. SkipInference, or every answer
// extensional).
func runPipeline(ec *core.ExecContext, res *Result,
	build func() (int, error),
	infer func(i int) confidence,
	assemble func(conf []confidence) error) error {
	var n int
	if err := timed(&res.Stats.PlanTime, func() error {
		var err error
		n, err = build()
		return err
	}); err != nil {
		return err
	}
	conf := make([]confidence, n)
	if n > 0 {
		if err := timed(&res.Stats.InferenceTime, func() error {
			return forEach(ec, n, func(i int) {
				start := time.Now()
				conf[i] = infer(i)
				conf[i].dur = time.Since(start)
			})
		}); err != nil {
			return err
		}
	}
	for i := range conf {
		if conf[i].err != nil {
			return conf[i].err
		}
	}
	for i := range conf {
		if conf[i].reason != "" {
			res.Stats.FallbackReason = conf[i].reason
			break
		}
	}
	// Fold the backend-choice bookkeeping here, after the fan-out, so the
	// maps are built single-threaded and in job order.
	for i := range conf {
		c := &conf[i]
		if c.backend != "" {
			if res.Stats.BackendChoices == nil {
				res.Stats.BackendChoices = make(map[string]int)
			}
			res.Stats.BackendChoices[c.backend]++
		}
		for _, f := range c.fallbacks {
			if res.Stats.BackendFallbacks == nil {
				res.Stats.BackendFallbacks = make(map[string]int)
			}
			res.Stats.BackendFallbacks[f]++
		}
		if c.predictMiss {
			res.Stats.BackendPredictionMisses++
		}
	}
	return assemble(conf)
}

// recordInference appends the inference stage's spans to the trace: one
// "infer.answer" span per job in job order (backend and fallback reason in
// Detail), then a closing "infer" aggregate span carrying the stage's wall
// time. Everything is recorded here, after the parallel fan-out has
// completed, never from the workers — so the trace is identical for any
// Parallelism setting. Per-answer times are the jobs' own durations and may
// sum to more than the aggregate's wall time when workers overlap.
func recordInference(ec *core.ExecContext, wall time.Duration, conf []confidence, label func(i int) string) {
	if !ec.Tracing() || len(conf) == 0 {
		return
	}
	for i := range conf {
		detail := conf[i].backend
		if conf[i].reason != "" {
			detail += "; fallback: " + conf[i].reason
		}
		ec.RecordOp(core.OpStat{
			Op:     label(i),
			Kind:   "infer.answer",
			Depth:  1,
			Rows:   1,
			Time:   conf[i].dur,
			Detail: detail,
		})
	}
	ec.RecordOp(core.OpStat{
		Op:   fmt.Sprintf("inference (%d jobs)", len(conf)),
		Kind: "infer",
		Rows: len(conf),
		Time: wall,
	})
}

// forEach runs f(0..n-1) on min(ec.Parallelism(), n) workers, polling
// cancellation between jobs so a cancelled evaluation stops feeding work.
// f must handle its own errors (confidence.err); forEach only reports the
// context's.
func forEach(ec *core.ExecContext, n int, f func(i int)) error {
	workers := ec.Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ec.Err(); err != nil {
				return err
			}
			f(i)
		}
		return nil
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				f(i)
			}
		}()
	}
	var err error
	for i := 0; i < n; i++ {
		if err = ec.Err(); err != nil {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return err
}

// timed runs f and adds its duration to *d.
func timed(d *time.Duration, f func() error) error {
	start := time.Now()
	err := f()
	*d += time.Since(start)
	return err
}
