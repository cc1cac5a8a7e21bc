package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/pdb"
)

// churn is the fig5-partial database with a materialized view over P1 and a
// writer beside a reader. The foreground goroutine runs rounds: mutate one
// seeded-random S1 tuple (four rounds in five a probability update, every
// fifth a delete + add), refresh the view, read it, then evaluate P1 ad hoc.
// The background goroutine evaluates P2 and S3 alternately for the whole
// window; its reads are contention, not operations. An operation is one
// round.
type churn struct {
	cfg        config
	db         *pdb.Database
	p1, p2, s3 *pdb.Query
	s1         *pdb.Relation
	view       *pdb.Materialized
	tuples     []pdb.Tuple // S1 as generated: the tuples the rounds pick from
	rng        *rand.Rand
	rounds     int
	// s3First is S3's answer at set-up. S3 does not read S1, so every
	// background evaluation of it must reproduce these bits.
	s3First answers

	materialize time.Duration
	idle        []time.Duration // set-up mutations, before any reader runs

	bgReads atomic.Int64
}

const (
	churnIdleWrites  = 50
	churnStructEvery = 5
)

func (c *churn) setup(ctx context.Context, cfg config) (err error) {
	c.cfg = cfg
	if c.db, err = load(genAll(fig5Params(cfg))); err != nil {
		return err
	}
	qs, err := parseAll([]string{table1[0].QueryText, table1[1].QueryText, table1[4].QueryText})
	if err != nil {
		return err
	}
	c.p1, c.p2, c.s3 = qs[0], qs[1], qs[2]
	if c.s1, err = c.db.Relation("S1"); err != nil {
		return err
	}
	c.tuples = c.s1.Tuples()
	c.rng = rand.New(rand.NewSource(cfg.seed))
	c.rounds = 0

	t0 := time.Now()
	if c.view, err = c.db.Materialize(c.p1, pdb.Options{}); err != nil {
		return err
	}
	c.materialize = time.Since(t0)

	c.idle = c.idle[:0]
	for i := 0; i < cfg.scaled(churnIdleWrites, 5); i++ {
		t := c.tuples[c.rng.Intn(len(c.tuples))]
		t0 := time.Now()
		err := c.s1.SetProb(c.newProb(), t.Vals...)
		c.idle = append(c.idle, time.Since(t0))
		if err != nil {
			return err
		}
	}
	if kind, err := c.view.Refresh(); err != nil || kind != pdb.RefreshPatched {
		return fmt.Errorf("set-up refresh: %v, %v", kind, err)
	}
	// Warm-up: each of the three queries once.
	for _, q := range []*pdb.Query{c.p1, c.p2} {
		if _, err := exact(ctx, c.db, q, pdb.PartialLineage); err != nil {
			return err
		}
	}
	res, err := exact(ctx, c.db, c.s3, pdb.PartialLineage)
	if err != nil {
		return err
	}
	c.s3First = pdbAnswers(res)
	return nil
}

// newProb draws a probability in (0.05, 0.95): strictly inside (0,1), so a
// probability update never changes which rows join.
func (c *churn) newProb() float64 { return 0.05 + 0.9*c.rng.Float64() }

// background evaluates P2 and S3 in a closed loop until stop is closed, then
// reports the first thing that went wrong.
func (c *churn) background(ctx context.Context, stop <-chan struct{}, done chan<- error) {
	var first error
	for i := 0; ; i++ {
		select {
		case <-stop:
			done <- first
			return
		default:
		}
		q := c.p2
		if i%2 == 1 {
			q = c.s3
		}
		res, err := exact(ctx, c.db, q, pdb.PartialLineage)
		if err == nil && q == c.s3 {
			if d := c.s3First.diff(pdbAnswers(res), 0); d != "" {
				err = fmt.Errorf("background S3 changed although nothing it reads did: %s", d)
			}
		}
		if err != nil && first == nil {
			first = fmt.Errorf("background reader: %w", err)
		}
		c.bgReads.Add(1)
	}
}

// round is one operation. With a tracer, each call into pdb is a span under
// the round's span, and its figures go to acc.
func (c *churn) round(ctx context.Context, tr *tracer, acc samples) error {
	c.rounds++
	op := c.rounds
	t := c.tuples[c.rng.Intn(len(c.tuples))]
	p := c.newProb()
	structural := c.rounds%churnStructEvery == 0

	root := -1
	if tr != nil {
		root = tr.begin("op", op, -1)
		defer func() {
			tr.end(root)
			acc.add("trace.op_ms", ms(tr.dur(root)))
		}()
	}
	note := func(metric string, v float64) {
		if tr != nil {
			acc.add(metric, v)
		}
	}
	// timed runs f as a span named name when tracing, plainly otherwise.
	timed := func(name string, f func() error) (time.Duration, error) {
		if tr == nil {
			return 0, f()
		}
		id := tr.begin(name, op, root)
		err := f()
		tr.end(id)
		return tr.dur(id), err
	}

	d, err := timed("pdb.write", func() error {
		if !structural {
			return c.s1.SetProb(p, t.Vals...)
		}
		if err := c.s1.Delete(t.Vals...); err != nil {
			return err
		}
		return c.s1.Add(p, t.Vals...)
	})
	if err != nil {
		return err
	}
	note("pdb.write_ms", ms(d))

	want := pdb.RefreshPatched
	if structural {
		want = pdb.RefreshRecomputed
	}
	var kind pdb.RefreshKind
	d, err = timed("pdb.refresh."+want.String(), func() (err error) {
		kind, err = c.view.Refresh()
		return err
	})
	if err != nil {
		return err
	}
	if kind != want {
		return fmt.Errorf("round %d: refresh was %v, the scripted mutation makes it %v", op, kind, want)
	}
	if structural {
		note("pdb.refresh_recomputed_ms", ms(d))
	} else {
		note("pdb.refresh_patched_us", us(d))
	}

	var viewed, read *pdb.Result
	if _, err = timed("pdb.view_result", func() error {
		viewed = c.view.Result()
		return nil
	}); err != nil {
		return err
	}
	d, err = timed("pdb.eval", func() (err error) {
		read, err = exact(ctx, c.db, c.p1, pdb.PartialLineage)
		return err
	})
	if err != nil {
		return err
	}
	// The view solves full DNF lineage, the ad-hoc read partial lineage: the
	// paper's equivalence, checked on every round's state.
	if diff := pdbAnswers(viewed).diff(pdbAnswers(read), tol); diff != "" {
		return fmt.Errorf("round %d: view against ad-hoc read: %s", op, diff)
	}
	if tr != nil {
		acc.add("pdb.read_ms", ms(d))
		acc.add("pdb.eval_ms", ms(d))
		addStatsSamples(acc, &read.Stats)
	}
	return nil
}

// addStatsSamples records the layer figures an evaluation's own Stats carry,
// for a workload whose database changes under it and so has no replay.
func addStatsSamples(acc samples, st *pdb.Stats) {
	acc.add("planner.plan_ms", ms(st.PlanSelectTime))
	acc.add("planner.candidates", float64(st.PlanCandidates))
	acc.add("pl.offending", float64(st.OffendingTuples))
	acc.add("aonet.nodes", float64(st.NetworkNodes))
	acc.add("aonet.edges", float64(st.NetworkEdges))
	acc.add("aonet.cons_hits", float64(st.ConsHits))
	acc.add("lineage.compiles", float64(st.CircuitCompiles))
	acc.add("lineage.hits", float64(st.CircuitHits))
	acc.add("lineage.evals", float64(st.CircuitEvals))
	acc.add("engine.plan_exec_ms", ms(st.PlanTime))
	acc.add("engine.infer_ms", ms(st.InferenceTime))
}

// contend runs rounds for w.seconds beside the background reader.
func (c *churn) contend(ctx context.Context, w *window, tr *tracer, acc samples) {
	stop, done := make(chan struct{}), make(chan error, 1)
	c.bgReads.Store(0)
	go c.background(ctx, stop, done)
	w.loop(nil, func(int) error { return c.round(ctx, tr, acc) })
	close(stop)
	if err := <-done; err != nil {
		w.fail("%v", err)
	}
	if tr != nil {
		acc.add("pdb.bg_reads_per_s", float64(c.bgReads.Load())/w.wall.Seconds())
	}
}

func (c *churn) run(ctx context.Context, w *window) { c.contend(ctx, w, nil, nil) }

func (c *churn) traced(ctx context.Context, w *window, tr *tracer, acc samples, _ int) error {
	c.contend(ctx, w, tr, acc)
	acc.add("pdb.write_p90_ms", quantile(append([]float64(nil), acc["pdb.write_ms"]...), 0.9))
	acc.add("pdb.write_idle_us", 1e3*quantile(durationsMS(c.idle), 0.5))
	acc.add("pdb.materialize_ms", ms(c.materialize))
	acc.add("pdb.refresh_patched", float64(len(acc["pdb.refresh_patched_us"])))
	acc.add("pdb.refresh_recomputed", float64(len(acc["pdb.refresh_recomputed_ms"])))
	return nil
}

// finish checks the view the rounds left behind against a view materialized
// from scratch on the final database, bit for bit.
func (c *churn) finish(_ context.Context, w *window) {
	fresh, err := c.db.Materialize(c.p1, pdb.Options{})
	if err != nil {
		w.fail("final materialize: %v", err)
		return
	}
	if d := pdbAnswers(c.view.Result()).diff(pdbAnswers(fresh.Result()), 0); d != "" {
		w.fail("refreshed view against a fresh one: %s", d)
	}
}

func (c *churn) close() {}
