package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/tuple"
	"repro/internal/workload"
	"repro/pdb"
)

// CacheOptions selects which cache levels the benchmark exercises
// (pdbbench's -memo and -cache flags).
type CacheOptions struct {
	// Memo runs the shared-memo on-vs-off wall-clock comparison.
	Memo bool
	// Cache runs the server cold-vs-warm result-cache comparison.
	Cache bool
}

// MemoPoint compares one strategy on the shared-core workload with the
// cross-answer memo on (the default) against NoMemo. Answers are
// bit-identical either way; only the wall clock and the hit counters move.
type MemoPoint struct {
	Query    string  `json:"query"`
	OffNs    int64   `json:"memo_off_ns"`
	OnNs     int64   `json:"memo_on_ns"`
	Speedup  float64 `json:"speedup"`
	MemoHits int64   `json:"memo_hits"`
	ConsHits int64   `json:"cons_hits"`
	Err      string  `json:"error,omitempty"`
}

// ConsPoint measures the AND-OR network size of one unsafe-query evaluation
// with hash-consing on vs off: the reduction is the structural sharing the
// consing table recovered.
type ConsPoint struct {
	Query     string  `json:"query"`
	NodesOff  int     `json:"nodes_consing_off"`
	NodesOn   int     `json:"nodes_consing_on"`
	Reduction float64 `json:"node_reduction"`
	Err       string  `json:"error,omitempty"`
}

// ServePoint compares the HTTP service's cold (first-request) latency
// against its warm (cache-hit) p50 on a repeated-query workload.
type ServePoint struct {
	Query   string  `json:"query"`
	ColdNs  int64   `json:"cold_ns"`
	WarmNs  int64   `json:"warm_p50_ns"`
	Speedup float64 `json:"speedup"`
	Err     string  `json:"error,omitempty"`
}

// CacheReport is the BENCH_cache.json artifact: one section per cache level.
type CacheReport struct {
	Memo  []MemoPoint  `json:"memo,omitempty"`
	Cons  []ConsPoint  `json:"consing"`
	Serve []ServePoint `json:"server,omitempty"`
}

// CacheBench measures the three cache levels: memoized inference (wall
// clock on the shared-core workload, whose answers meet one expensive
// common subproblem), hash-consing (network node counts on a
// half-deterministic triangle instance) and the server result cache (cold
// vs warm latency over HTTP, Table 1 queries on the Fig5 instance).
func CacheBench(sc Scale, opts CacheOptions) (*CacheReport, error) {
	rep := &CacheReport{}
	if opts.Memo {
		pts, err := memoBench(sc)
		if err != nil {
			return nil, err
		}
		rep.Memo = pts
	}
	pts, err := consBench(sc)
	if err != nil {
		return nil, err
	}
	rep.Cons = pts
	if opts.Cache {
		pts, err := serveBench(sc)
		if err != nil {
			return nil, err
		}
		rep.Serve = pts
	}
	return rep, nil
}

// sharedCoreDB builds the cross-answer-sharing instance for memoBench:
// q(h) :- G(h), R(x), S(x, y), T(y). Each answer h's lineage is its guard
// tuple g_h conjoined with the one hard triangle core over R, S, T, so after
// the solver conditions the guard away every answer meets the identical
// (expensive, non-read-once) core subproblem — exactly what the shared memo
// exists to catch. The shape mirrors a real pattern: per-user guard tuples
// joined onto one correlated subquery.
func sharedCoreDB(dom, heads int) *relation.Database {
	db := relation.NewDatabase()
	g := relation.New("G", "h")
	r := relation.New("R", "x")
	s := relation.New("S", "x", "y")
	t := relation.New("T", "y")
	for h := 1; h <= heads; h++ {
		g.MustAdd(tuple.Ints(int64(h)), 0.5)
	}
	for x := 1; x <= dom; x++ {
		r.MustAdd(tuple.Ints(int64(x)), 0.5)
		t.MustAdd(tuple.Ints(int64(x)), 0.5)
		for y := 1; y <= dom; y++ {
			s.MustAdd(tuple.Ints(int64(x), int64(y)), 0.5)
		}
	}
	db.AddRelation(g)
	db.AddRelation(r)
	db.AddRelation(s)
	db.AddRelation(t)
	return db
}

// sharedCoreDom/sharedCoreHeads size the memo benchmark instance. The
// triangle core's cost is exponential in its domain, so the size is fixed
// rather than scaled: dom 9 keeps the unmemoized side around a second.
const (
	sharedCoreDom   = 9
	sharedCoreHeads = 6
)

// memoBench times the shared-core workload per exact unsafe strategy with
// the cross-answer memo off and on (best of three runs each, interleaved so
// background noise hits both sides equally).
func memoBench(sc Scale) ([]MemoPoint, error) {
	db := sharedCoreDB(sharedCoreDom, sharedCoreHeads)
	q := query.MustParse("q(h) :- G(h), R(x), S(x, y), T(y)")
	plan, err := query.LeftDeepPlan(q, []string{"G", "R", "S", "T"})
	if err != nil {
		return nil, err
	}
	var out []MemoPoint
	for _, strat := range []core.Strategy{core.DNFLineage, core.FullNetwork} {
		pt := MemoPoint{Query: "shared-core/" + strat.String()}
		run := func(ablate bool) (time.Duration, *engine.Result, error) {
			opts := engine.Options{
				Strategy:    strat,
				Parallelism: sc.Parallelism,
				NoMemo:      ablate,
			}
			opts.Inference.MaxFactorVars = sc.MaxWidth
			opts.Budget.Time = sc.Timeout
			start := time.Now()
			res, err := engine.Evaluate(db, q, plan, opts)
			return time.Since(start), res, err
		}
		var offBest, onBest time.Duration
		var onRes *engine.Result
		for i := 0; i < 3; i++ {
			off, _, errOff := run(true)
			on, res, errOn := run(false)
			if errOff != nil || errOn != nil {
				err := errOff
				if err == nil {
					err = errOn
				}
				pt.Err = err.Error()
				break
			}
			if i == 0 || off < offBest {
				offBest = off
			}
			if i == 0 || on < onBest {
				onBest, onRes = on, res
			}
		}
		if pt.Err == "" {
			pt.OffNs, pt.OnNs = offBest.Nanoseconds(), onBest.Nanoseconds()
			if onBest > 0 {
				pt.Speedup = float64(offBest) / float64(onBest)
			}
			pt.MemoHits = onRes.Stats.MemoHits
			pt.ConsHits = int64(onRes.Stats.ConsHits)
		}
		out = append(out, pt)
	}
	return out, nil
}

// detTriangleDB builds the consing instance: the triangle query's relations
// with the even-y half of S deterministic (p = 1). Every x-group then joins
// the same deterministic S columns, so structurally identical gate subtrees
// recur across groups — which is what the hash-consing table folds together
// (the paper's Section 5.4 regime).
func detTriangleDB(dom int) *relation.Database {
	db := relation.NewDatabase()
	r := relation.New("R", "x")
	s := relation.New("S", "x", "y")
	t := relation.New("T", "y")
	for x := 1; x <= dom; x++ {
		r.MustAdd(tuple.Ints(int64(x)), 0.5)
		t.MustAdd(tuple.Ints(int64(x)), 0.5)
		for y := 1; y <= dom; y++ {
			p := 0.5
			if y%2 == 0 {
				p = 1
			}
			s.MustAdd(tuple.Ints(int64(x), int64(y)), p)
		}
	}
	db.AddRelation(r)
	db.AddRelation(s)
	db.AddRelation(t)
	return db
}

// consBench evaluates the unsafe triangle query on a half-deterministic
// instance and reports the AND-OR network node count with hash-consing on vs
// off, for the strategies that materialize lineage networks.
func consBench(sc Scale) ([]ConsPoint, error) {
	db := detTriangleDB(10)
	q := query.MustParse("q :- R(x), S(x, y), T(y)")
	plan, err := query.LeftDeepPlan(q, []string{"R", "S", "T"})
	if err != nil {
		return nil, err
	}
	var out []ConsPoint
	for _, strat := range []core.Strategy{core.PartialLineage, core.FullNetwork} {
		pt := ConsPoint{Query: "det-triangle/" + strat.String()}
		run := func(noCons bool) (int, error) {
			opts := engine.Options{
				Strategy:    strat,
				Parallelism: sc.Parallelism,
				NoCons:      noCons,
			}
			opts.Inference.MaxFactorVars = sc.MaxWidth
			opts.Budget.Time = sc.Timeout
			res, err := engine.Evaluate(db, q, plan, opts)
			if err != nil {
				return 0, err
			}
			return res.Stats.NetworkNodes, nil
		}
		off, err := run(true)
		if err != nil {
			pt.Err = err.Error()
			out = append(out, pt)
			continue
		}
		on, err := run(false)
		if err != nil {
			pt.Err = err.Error()
			out = append(out, pt)
			continue
		}
		pt.NodesOff, pt.NodesOn = off, on
		if on > 0 {
			pt.Reduction = float64(off) / float64(on)
		}
		out = append(out, pt)
	}
	return out, nil
}

// serveBench stands a query server over each Table 1 query's Fig5 instance
// and measures the first (cold, evaluated) request against the p50 of a
// closed-loop warm run served from the result cache.
func serveBench(sc Scale) ([]ServePoint, error) {
	var out []ServePoint
	for _, qname := range sc.Queries {
		spec, err := workload.SpecByName(qname)
		if err != nil {
			return nil, err
		}
		pt := ServePoint{Query: spec.Name}
		wdb, err := workload.GenerateFor(spec, sc.Fig5)
		if err != nil {
			pt.Err = err.Error()
			out = append(out, pt)
			continue
		}
		db, err := toPDB(wdb)
		if err != nil {
			pt.Err = err.Error()
			out = append(out, pt)
			continue
		}
		cold, warm, err := serveColdWarm(db, spec.QueryText, sc)
		if err != nil {
			pt.Err = err.Error()
			out = append(out, pt)
			continue
		}
		pt.ColdNs, pt.WarmNs = cold.Nanoseconds(), warm
		if warm > 0 {
			pt.Speedup = float64(pt.ColdNs) / float64(warm)
		}
		out = append(out, pt)
	}
	return out, nil
}

func serveColdWarm(db *pdb.Database, queryText string, sc Scale) (time.Duration, int64, error) {
	srv, err := server.New(server.Config{DB: db, MaxInFlight: 4, Metrics: &obs.Registry{}})
	if err != nil {
		return 0, 0, err
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body, err := json.Marshal(server.QueryRequest{Query: queryText, Parallelism: sc.Parallelism})
	if err != nil {
		return 0, 0, err
	}
	// The cold request evaluates and populates the cache.
	start := time.Now()
	coldRep, err := server.RunLoad(ts.URL+"/query", body, 1, 1)
	if err != nil {
		return 0, 0, err
	}
	cold := time.Since(start)
	if coldRep.Errors > 0 {
		return 0, 0, fmt.Errorf("experiments: cold request failed for %q", queryText)
	}
	// Warm requests are all cache hits.
	warmRep, err := server.RunLoad(ts.URL+"/query", body, 1, 50)
	if err != nil {
		return 0, 0, err
	}
	if warmRep.Errors > 0 {
		return 0, 0, fmt.Errorf("experiments: %d warm requests failed for %q", warmRep.Errors, queryText)
	}
	return cold, warmRep.P50NS, nil
}

// toPDB rebuilds a workload database behind the public pdb facade, so the
// served benchmark exercises the same path applications use.
func toPDB(src *relation.Database) (*pdb.Database, error) {
	db := pdb.NewDatabase()
	for _, name := range src.Names() {
		rel, err := src.Relation(name)
		if err != nil {
			return nil, err
		}
		dst := db.CreateRelation(name, rel.Attrs...)
		for _, row := range rel.Rows {
			if err := dst.Add(row.P, row.Tuple...); err != nil {
				return nil, fmt.Errorf("relation %s: %w", name, err)
			}
		}
	}
	return db, nil
}

// WriteCacheJSON renders the benchmark report as indented JSON.
func WriteCacheJSON(w io.Writer, rep *CacheReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
