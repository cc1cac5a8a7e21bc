package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/pdb"
)

// The compile benchmark measures the compiled-circuit backend
// (docs/PERFORMANCE.md): the engine compiles each answer's DNF lineage to a
// d-DNNF circuit cached on its canonical fingerprint, after which confidence
// computation is one linear bottom-up pass instead of a Shannon re-solve.
// Two workloads exercise the two amortization paths:
//
//   - refresh: a materialized view over non-read-once lineage under
//     prob-update churn. A structure-preserving write leaves circuit keys
//     unchanged, so every patched refresh re-evaluates retained compiled
//     structure; the -no-circuit ablation re-runs the Shannon solver on each
//     dirty answer instead.
//   - shared-core: the same multi-answer query evaluated repeatedly against
//     an unchanged database. With circuits, the second and later evaluations
//     serve every answer from the database-shared cache; without, each
//     evaluation pays the full memoized Shannon pass again.
//
// Both comparisons are bit-identical by construction — the circuit compiler
// replays the Shannon recursion — and the benchmark verifies it on every
// round, so the reported speedups are pure re-evaluation wins.

// CompilePoint is one workload's timing comparison.
type CompilePoint struct {
	// Workload is "refresh" or "shared-core".
	Workload string `json:"workload"`
	// Rounds is the number of timed repetitions behind the means.
	Rounds int `json:"rounds"`
	// Answers is the number of result rows per evaluation/refresh.
	Answers int `json:"answers"`
	// ShannonNs and CircuitNs are mean per-round wall times for the
	// -no-circuit ablation and the circuit-enabled run.
	ShannonNs int64 `json:"shannon_ns"`
	CircuitNs int64 `json:"circuit_ns"`
	// Speedup is ShannonNs over CircuitNs.
	Speedup float64 `json:"speedup"`
	// Compiles, Hits and Evals are the circuit-side cache counters after the
	// run: compiles should stay flat across rounds while hits and evals grow.
	Compiles int64  `json:"compiles"`
	Hits     int64  `json:"hits"`
	Evals    int64  `json:"evals"`
	Err      string `json:"error,omitempty"`
}

// CompileReport is the BENCH_compile.json artifact.
type CompileReport struct {
	Points []CompilePoint `json:"points"`
}

// Compile-benchmark shape: compileGroups answer groups, each a triangle join
// over compileFanout x- and y-values. The per-answer lineage R(g,x) ∧ T(x,y)
// ∧ S(g,y) has a complete variable co-occurrence structure, so it is not
// read-once and the Shannon solver does real expansion work on every solve.
const (
	compileRounds        = 20
	compileRefreshGroups = 4
	compileRefreshFanout = 6
	compileSharedGroups  = 12
	compileSharedFanout  = 4
)

// CompileBench runs both workloads and assembles the report.
func CompileBench(sc Scale) (*CompileReport, error) {
	rep := &CompileReport{}
	refresh, err := compileRefreshBench()
	if err != nil {
		return nil, err
	}
	shared, err := compileSharedBench(sc)
	if err != nil {
		return nil, err
	}
	rep.Points = []CompilePoint{refresh, shared}
	return rep, nil
}

// compileDB builds the triangle-join instance: per answer group g,
// R(g,x) for x in 1..fanout, S(g,y) for y in 1..fanout, and a shared
// T(x,y) grid joining them.
func compileDB(groups, fanout int) (*pdb.Database, error) {
	db := pdb.NewDatabase()
	r := db.CreateRelation("R", "g", "x")
	s := db.CreateRelation("S", "g", "y")
	tr := db.CreateRelation("T", "x", "y")
	for x := int64(1); x <= int64(fanout); x++ {
		for y := int64(1); y <= int64(fanout); y++ {
			if err := tr.AddInts(0.5, x, y); err != nil {
				return nil, err
			}
		}
	}
	for g := int64(1); g <= int64(groups); g++ {
		for i := int64(1); i <= int64(fanout); i++ {
			if err := r.AddInts(0.5, g, i); err != nil {
				return nil, err
			}
			if err := s.AddInts(0.5, g, i); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

const compileQuery = "q(g) :- R(g, x), T(x, y), S(g, y)"

// compareRows checks that two results carry bitwise-equal probabilities —
// the circuit backend's correctness contract, asserted on every timed round.
func compareRows(circuit, shannon *pdb.Result) error {
	if len(circuit.Rows) != len(shannon.Rows) {
		return fmt.Errorf("experiments: %d vs %d answers", len(circuit.Rows), len(shannon.Rows))
	}
	for i := range circuit.Rows {
		if circuit.Rows[i].P != shannon.Rows[i].P {
			return fmt.Errorf("experiments: answer %v: circuit %v != shannon %v",
				circuit.Rows[i].Vals, circuit.Rows[i].P, shannon.Rows[i].P)
		}
	}
	return nil
}

// compileRefreshBench times patched view refreshes after prob-updates, with
// the circuit cache retained across the patch vs the -no-circuit ablation
// re-solving every dirty answer with the Shannon solver.
func compileRefreshBench() (CompilePoint, error) {
	pt := CompilePoint{Workload: "refresh", Rounds: compileRounds, Answers: compileRefreshGroups}
	db, err := compileDB(compileRefreshGroups, compileRefreshFanout)
	if err != nil {
		return pt, err
	}
	q, err := pdb.ParseQuery(compileQuery)
	if err != nil {
		return pt, err
	}
	circuitView, err := db.Materialize(q, pdb.Options{Strategy: core.DNFLineage})
	if err != nil {
		return pt, err
	}
	shannonView, err := db.Materialize(q, pdb.Options{Strategy: core.DNFLineage, NoCircuit: true})
	if err != nil {
		return pt, err
	}
	rel, err := db.Relation("T")
	if err != nil {
		return pt, err
	}
	refresh := func(v *pdb.Materialized) (time.Duration, error) {
		start := time.Now()
		kind, err := v.Refresh()
		if err != nil {
			return 0, err
		}
		if kind != pdb.RefreshPatched {
			return 0, fmt.Errorf("experiments: refresh kind %v, want %v", kind, pdb.RefreshPatched)
		}
		return time.Since(start), nil
	}
	var circuitTotal, shannonTotal time.Duration
	probs := []float64{0.3, 0.7, 0.4, 0.6}
	for i := 0; i < compileRounds; i++ {
		// A T prob-update dirties every answer group: T is the shared core,
		// so each refresh re-derives all answers from retained structure.
		x := int64(i%compileRefreshFanout) + 1
		if err := rel.SetProb(probs[i%len(probs)], pdb.Int(x), pdb.Int(1)); err != nil {
			return pt, err
		}
		d, err := refresh(circuitView)
		if err != nil {
			return pt, err
		}
		circuitTotal += d
		d, err = refresh(shannonView)
		if err != nil {
			return pt, err
		}
		shannonTotal += d
		if err := compareRows(circuitView.Result(), shannonView.Result()); err != nil {
			return pt, err
		}
	}
	pt.CircuitNs = circuitTotal.Nanoseconds() / compileRounds
	pt.ShannonNs = shannonTotal.Nanoseconds() / compileRounds
	if pt.CircuitNs > 0 {
		pt.Speedup = float64(pt.ShannonNs) / float64(pt.CircuitNs)
	}
	st := circuitView.CircuitStats()
	pt.Compiles, pt.Hits, pt.Evals = st.Compiles, st.Hits, st.Evals
	return pt, nil
}

// compileSharedBench times repeated evaluation of the multi-answer triangle
// query: circuit-enabled evaluations after a warm-up serve every answer from
// the database-shared cache, the ablation re-runs memoized Shannon per round.
func compileSharedBench(sc Scale) (CompilePoint, error) {
	pt := CompilePoint{Workload: "shared-core", Rounds: compileRounds}
	db, err := compileDB(compileSharedGroups, compileSharedFanout)
	if err != nil {
		return pt, err
	}
	q, err := pdb.ParseQuery(compileQuery)
	if err != nil {
		return pt, err
	}
	opts := pdb.Options{Strategy: core.DNFLineage, Parallelism: sc.Parallelism}
	ablation := opts
	ablation.NoCircuit = true
	// Warm the circuit cache; the compile pass is not part of the measurement
	// (it is paid once per lineage structure, not per evaluation).
	warm, err := db.Evaluate(q, opts)
	if err != nil {
		return pt, err
	}
	pt.Answers = len(warm.Rows)
	var circuitTotal, shannonTotal time.Duration
	for i := 0; i < compileRounds; i++ {
		start := time.Now()
		circuitRes, err := db.Evaluate(q, opts)
		if err != nil {
			return pt, err
		}
		circuitTotal += time.Since(start)
		pt.Compiles += circuitRes.Stats.CircuitCompiles
		pt.Hits += circuitRes.Stats.CircuitHits
		pt.Evals += circuitRes.Stats.CircuitEvals
		start = time.Now()
		shannonRes, err := db.Evaluate(q, ablation)
		if err != nil {
			return pt, err
		}
		shannonTotal += time.Since(start)
		if err := compareRows(circuitRes, shannonRes); err != nil {
			return pt, err
		}
	}
	pt.CircuitNs = circuitTotal.Nanoseconds() / compileRounds
	pt.ShannonNs = shannonTotal.Nanoseconds() / compileRounds
	if pt.CircuitNs > 0 {
		pt.Speedup = float64(pt.ShannonNs) / float64(pt.CircuitNs)
	}
	return pt, nil
}

// WriteCompileJSON renders the benchmark report as indented JSON.
func WriteCompileJSON(w io.Writer, rep *CompileReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
