package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/aonet"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/inference"
	"repro/internal/lineage"
	"repro/internal/pl"
	"repro/internal/planner"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/tuple"
	"repro/pdb"
)

// exactBudget is the engine's default cap on Shannon expansions per answer
// (engine.Options.ExactBudget 0), which the replay must charge alike.
const exactBudget = 500000

// tol is the agreement required between any two exact evaluations of one
// query on one instance: partial against dnf, replay against engine.
const tol = 1e-9

// answers maps an answer's head values (tuple.Key) to its probability.
type answers map[string]float64

func pdbAnswers(res *pdb.Result) answers {
	out := make(answers, len(res.Rows))
	for _, r := range res.Rows {
		out[tuple.Tuple(r.Vals).Key()] = r.P
	}
	return out
}

func engineAnswers(res *engine.Result) answers {
	out := make(answers, len(res.Rows))
	for _, r := range res.Rows {
		out[r.Vals.Key()] = r.P
	}
	return out
}

// diff reports the first disagreement between a and b beyond tolerance
// (0 demands bit identity), or "" when they agree.
func (a answers) diff(b answers, tolerance float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d answers against %d", len(a), len(b))
	}
	for k, p := range a {
		q, ok := b[k]
		if !ok {
			return fmt.Sprintf("answer %s missing", k)
		}
		if d := math.Abs(p - q); d > tolerance || math.IsNaN(d) {
			return fmt.Sprintf("answer %s: %.17g against %.17g", k, p, q)
		}
	}
	return ""
}

// counts are what one replayed query did, read from the values the layers
// return; the times are in the spans.
type counts struct {
	candidates, rows, offending        int
	nodes, edges, consHits             int
	expandClauses, dnfClauses, dnfVars int
	circuit                            lineage.CircuitStats
	// planExec and infer add up the engine's always-on Stats.PlanTime and
	// Stats.InferenceTime: the cross-check on the replay's spans.
	planExec, infer time.Duration
}

// replay evaluates one query layer by layer, calling the packages the way
// engine.evalNetwork (partial) and engine.evalLineage (dnf) do, with a span
// around every call. It returns the answers together with the parsed query
// and the plan, so that the caller can hand the same input to
// engine.EvaluateContext as the enclosing span.
func replay(ctx context.Context, tr *tracer, op, parent int, rdb *relation.Database, text string,
	strat core.Strategy, cache *lineage.CircuitCache, c *counts) (answers, *query.Query, *planner.IR, error) {
	root := tr.begin("replay", op, parent)
	defer tr.end(root)

	id := tr.begin("query.parse", op, root)
	q, err := query.Parse(text)
	tr.end(id)
	if err != nil {
		return nil, nil, nil, err
	}

	id = tr.begin("planner.plan", op, root)
	ir, err := planner.Plan(rdb, q, planner.Options{})
	tr.end(id)
	if err != nil {
		return nil, nil, nil, err
	}
	c.candidates += ir.Candidates

	ec := core.NewExecContext(ctx, core.ExecConfig{Pooling: true})
	var out answers
	if strat == core.DNFLineage {
		out, err = replayLineage(tr, op, root, ec, rdb, q, ir.Physical, cache, c)
	} else {
		out, err = replayNetwork(tr, op, root, ec, rdb, q, ir.Physical, cache, c)
	}
	return out, q, ir, err
}

// replayNetwork mirrors engine.evalNetwork for the partial strategy: run the
// plan over pL-relations on one network, expand every distinct lineage node
// serially through one expander, solve each expansion on the circuit backend.
func replayNetwork(tr *tracer, op, parent int, ec *core.ExecContext, rdb *relation.Database,
	q *query.Query, plan *query.Plan, cache *lineage.CircuitCache, c *counts) (answers, error) {
	net := aonet.New()
	rel, err := execPlan(tr, op, parent, ec, rdb, plan, net, c)
	if err != nil {
		return nil, err
	}
	c.nodes += net.Len()
	c.edges += net.EdgeCount()

	perm, err := headPositions(q, plan)
	if err != nil {
		return nil, err
	}
	var distinct []aonet.NodeID
	seen := map[aonet.NodeID]bool{}
	for _, t := range rel.Tuples {
		if t.Lin != aonet.Epsilon && !seen[t.Lin] {
			seen[t.Lin] = true
			distinct = append(distinct, t.Lin)
		}
	}

	type expansion struct {
		f     *lineage.DNF
		probs []float64
	}
	id := tr.begin("inference.expand", op, parent)
	xp := inference.NewExpander(net, 0)
	exps := make([]expansion, len(distinct))
	for i, lin := range distinct {
		f, probs, err := xp.Expand(lin)
		if err != nil {
			tr.end(id)
			return nil, fmt.Errorf("expand lineage node %d: %w", lin, err)
		}
		exps[i] = expansion{f, probs}
		c.expandClauses += len(f.Clauses)
	}
	tr.end(id)

	id = tr.begin("lineage.solve", op, parent)
	conf := make(map[aonet.NodeID]float64, len(distinct))
	for i, lin := range distinct {
		probs := exps[i].probs
		p, err := lineage.CircuitProbCtx(ec, exps[i].f, func(v lineage.Var) float64 { return probs[v] }, exactBudget, cache, &c.circuit)
		if err != nil {
			tr.end(id)
			return nil, fmt.Errorf("solve lineage node %d: %w", lin, err)
		}
		conf[lin] = p
	}
	tr.end(id)
	c.consHits += net.ConsHits()

	out := make(answers, len(rel.Tuples))
	for _, t := range rel.Tuples {
		vals := t.Vals
		if perm != nil {
			vals = vals.Project(perm)
		}
		p := t.P
		if t.Lin != aonet.Epsilon {
			p *= conf[t.Lin]
		}
		out[vals.Key()] = p
	}
	return out, nil
}

// replayLineage mirrors engine.evalLineage for the dnf strategy: ground the
// full lineage, solve every answer's DNF on the circuit backend.
func replayLineage(tr *tracer, op, parent int, ec *core.ExecContext, rdb *relation.Database,
	q *query.Query, plan *query.Plan, cache *lineage.CircuitCache, c *counts) (answers, error) {
	id := tr.begin("engine.ground", op, parent)
	g, err := engine.GroundCtx(ec, rdb, q, plan)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	c.dnfClauses += g.ClauseCount()
	c.dnfVars += g.VarCount()

	id = tr.begin("lineage.solve", op, parent)
	defer tr.end(id)
	out := make(answers, len(g.Answers))
	for _, a := range g.Answers {
		p, err := lineage.CircuitProbCtx(ec, a.F, func(v lineage.Var) float64 { return g.Probs[v] }, exactBudget, cache, &c.circuit)
		if err != nil {
			return nil, fmt.Errorf("solve answer %v: %w", a.Vals, err)
		}
		out[a.Vals.Key()] = p
	}
	return out, nil
}

// planSpan names the span of each plan operator.
var planSpan = map[query.Op]string{query.OpScan: "pl.scan", query.OpJoin: "pl.join", query.OpProject: "pl.project"}

// execPlan walks the physical plan bottom-up. Every node is a span that
// encloses its inputs' spans, so a node's own cost is its span's self time.
func execPlan(tr *tracer, op, parent int, ec *core.ExecContext, rdb *relation.Database,
	p *query.Plan, net *aonet.Network, c *counts) (*pl.Relation, error) {
	id := tr.begin(planSpan[p.Op], op, parent)
	defer tr.end(id)
	var out *pl.Relation
	switch p.Op {
	case query.OpScan:
		rel, err := rdb.Relation(p.Atom.Pred)
		if err != nil {
			return nil, err
		}
		if out, err = scan(rel, p.Atom); err != nil {
			return nil, err
		}
	case query.OpProject:
		in, err := execPlan(tr, op, id, ec, rdb, p.Left, net, c)
		if err != nil {
			return nil, err
		}
		if out, err = pl.ProjectCtx(ec, in, p.Cols, net); err != nil {
			return nil, err
		}
	case query.OpJoin:
		left, err := execPlan(tr, op, id, ec, rdb, p.Left, net, c)
		if err != nil {
			return nil, err
		}
		right, err := execPlan(tr, op, id, ec, rdb, p.Right, net, c)
		if err != nil {
			return nil, err
		}
		var conditioned int
		if out, conditioned, err = pl.SafeJoinCtx(ec, left, right, net); err != nil {
			return nil, err
		}
		c.offending += conditioned
	default:
		return nil, fmt.Errorf("unknown plan operator %d", p.Op)
	}
	c.rows += out.Len()
	return out, nil
}

// scan turns a base relation into the pL-relation of one atom: the rows that
// pass the atom's constants and repeated variables, projected onto its
// distinct variables. The engine's scan does this inside internal/engine
// (pl.FromBase knows no constants), so the replay restates it here.
func scan(rel *relation.Relation, a *query.Atom) (*pl.Relation, error) {
	if len(rel.Attrs) != len(a.Args) {
		return nil, fmt.Errorf("atom %s has %d arguments, relation has %d attributes", a, len(a.Args), len(rel.Attrs))
	}
	var cols tuple.Schema
	var pos, consts []int
	var eqs [][2]int
	first := map[string]int{}
	for i, arg := range a.Args {
		if !arg.IsVar() {
			consts = append(consts, i)
		} else if j, ok := first[arg.Var]; ok {
			eqs = append(eqs, [2]int{i, j})
		} else {
			first[arg.Var] = i
			cols = append(cols, arg.Var)
			pos = append(pos, i)
		}
	}
	out := &pl.Relation{Attrs: cols}
rows:
	for _, row := range rel.Rows {
		if row.P == 0 {
			continue
		}
		for _, i := range consts {
			if row.Tuple[i] != a.Args[i].Const {
				continue rows
			}
		}
		for _, e := range eqs {
			if row.Tuple[e[0]] != row.Tuple[e[1]] {
				continue rows
			}
		}
		out.Tuples = append(out.Tuples, pl.Tuple{Vals: row.Tuple.Project(pos), P: row.P, Lin: aonet.Epsilon})
	}
	return out, nil
}

// headPositions maps head positions to plan output columns, nil when the plan
// already emits the head order.
func headPositions(q *query.Query, plan *query.Plan) ([]int, error) {
	attrs := tuple.Schema(plan.Attrs())
	perm := make([]int, len(q.Head))
	same := len(attrs) == len(q.Head)
	for i, h := range q.Head {
		j := attrs.Index(h)
		if j < 0 {
			return nil, fmt.Errorf("plan output %v is missing head variable %s", attrs, h)
		}
		perm[i] = j
		same = same && i == j
	}
	if same {
		return nil, nil
	}
	return perm, nil
}

// layered runs one query three ways under one operation: the replay, then
// engine.EvaluateContext on the replay's plan and pdb.EvaluateContext on the
// same text as the enclosing spans. It checks that all three agree and
// returns the facade's result.
type layered struct {
	ctx context.Context
	tr  *tracer
	// replayTotal and engineTotal add up, over the whole pass, the replay's
	// pl + inference + lineage (+ grounding) self time and the engine's own
	// Stats.PlanTime + InferenceTime: the drift check compares the two.
	replayTotal, engineTotal float64
}

func (l *layered) eval(op, parent int, rdb *relation.Database, db *pdb.Database, text string, strat core.Strategy,
	replayCache, engineCache *lineage.CircuitCache, c *counts) (*pdb.Result, error) {
	from := len(l.tr.spans)
	got, q, ir, err := replay(l.ctx, l.tr, op, parent, rdb, text, strat, replayCache, c)
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", text, err)
	}
	self, _ := l.tr.selfSince(from)
	for _, name := range []string{"pl.scan", "pl.join", "pl.project", "inference.expand", "lineage.solve", "engine.ground"} {
		l.replayTotal += self[name]
	}

	id := l.tr.begin("engine.eval", op, parent)
	eres, err := engine.EvaluateContext(l.ctx, rdb, q, ir.Physical, engine.Options{
		Strategy: strat, Circuits: engineCache, PlannerSink: planner.DefaultSink,
	})
	l.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("engine %s: %w", text, err)
	}
	c.planExec += eres.Stats.PlanTime
	c.infer += eres.Stats.InferenceTime
	l.engineTotal += float64(eres.Stats.PlanTime + eres.Stats.InferenceTime)
	if d := got.diff(engineAnswers(eres), tol); d != "" {
		return nil, fmt.Errorf("replay against engine on %s: %s", text, d)
	}

	pq, err := pdb.ParseQuery(text)
	if err != nil {
		return nil, err
	}
	id = l.tr.begin("pdb.eval", op, parent)
	pres, err := db.EvaluateContext(l.ctx, pq, pdb.Options{Strategy: strat})
	l.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("pdb %s: %w", text, err)
	}
	if d := got.diff(pdbAnswers(pres), tol); d != "" {
		return nil, fmt.Errorf("replay against pdb on %s: %s", text, d)
	}
	return pres, nil
}

// maxDrift is how far the replay's layer total may lie from the engine's own
// plan + inference time over a pass before the replay no longer counts as
// doing what the engine does.
const maxDrift = 0.15

// minDriftSample is the engine time a pass must add up before its drift means
// anything: below it, fixed costs per call and timer noise decide the ratio.
const minDriftSample = float64(time.Second)

// check fails the pass when the replay has drifted from the engine.
func (l *layered) check() error {
	if l.engineTotal < minDriftSample {
		return nil
	}
	if d := math.Abs(l.replayTotal-l.engineTotal) / l.engineTotal; d > maxDrift {
		return fmt.Errorf("replay drifted from the engine: layer total %.1f ms against Stats.PlanTime+InferenceTime %.1f ms (%.0f%% apart, limit %.0f%%)",
			l.replayTotal/1e6, l.engineTotal/1e6, 100*d, 100*maxDrift)
	}
	return nil
}
