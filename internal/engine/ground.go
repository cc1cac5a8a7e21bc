package engine

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/lineage"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/tuple"
)

// Grounding is the complete DNF lineage of a query (Definition 3.5), split
// per answer (head binding). Variables are assigned to input tuples lazily;
// tuples with probability 1 never receive a variable (their literal is
// constantly true) and tuples with probability 0 never ground.
type Grounding struct {
	Attrs   []string
	Answers []GroundedAnswer
	Probs   []float64 // probability of each lineage variable
	// Sources maps each lineage variable back to the base tuple it stands
	// for: Sources[v] is the relation name and row index whose presence
	// event variable v encodes. Incremental maintenance uses it to translate
	// a (relation, row) prob-update into a variable re-weight.
	Sources []VarSource
}

// VarSource identifies the base tuple behind one lineage variable.
type VarSource struct {
	Rel string
	Row int
}

// GroundedAnswer pairs one head binding with its lineage.
type GroundedAnswer struct {
	Vals tuple.Tuple
	F    *lineage.DNF
}

// VarCount returns the number of lineage variables allocated.
func (g *Grounding) VarCount() int { return len(g.Probs) }

// ClauseCount returns the total number of clauses across answers.
func (g *Grounding) ClauseCount() int {
	n := 0
	for i := range g.Answers {
		n += len(g.Answers[i].F.Clauses)
	}
	return n
}

// Ground computes the full lineage of q over db, matching atoms in the
// order the plan scans them (left-deep join order). GroundCtx is the
// cancellable variant.
func Ground(db *relation.Database, q *query.Query, plan *query.Plan) (*Grounding, error) {
	return GroundCtx(nil, db, q, plan)
}

// GroundCtx is Ground under an ExecContext: the grounding recursion polls
// cancellation every core.CheckInterval extensions and charges each clause
// against the row budget, so a combinatorial grounding aborts cleanly.
func GroundCtx(ec *core.ExecContext, db *relation.Database, q *query.Query, plan *query.Plan) (*Grounding, error) {
	var atoms []*query.Atom
	plan.Walk(func(p *query.Plan) {
		if p.Op == query.OpScan {
			atoms = append(atoms, p.Atom)
		}
	})
	if len(atoms) != len(q.Atoms) {
		return nil, fmt.Errorf("engine: plan scans %d atoms, query has %d", len(atoms), len(q.Atoms))
	}
	g := &grounder{
		db:     db,
		q:      q,
		atoms:  atoms,
		varID:  make(map[varKey]lineage.Var),
		byHead: make(map[string]int),
		chk:    core.Check{EC: ec},
		ec:     ec,
	}
	if err := g.prepare(); err != nil {
		return nil, err
	}
	if err := g.recurse(0, make(map[string]tuple.Value), make([]lineage.Var, 0, len(atoms))); err != nil {
		return nil, err
	}
	sources := make([]VarSource, len(g.probs))
	for k, v := range g.varID {
		sources[v] = VarSource{Rel: k.pred, Row: k.row}
	}
	out := &Grounding{Attrs: q.Head, Answers: g.answers, Probs: g.probs, Sources: sources}
	return out, nil
}

type varKey struct {
	pred string
	row  int
}

type atomPlan struct {
	rel       *relation.Relation
	args      []query.Term
	boundVars []string // variables bound by earlier atoms, in arg order
	boundPos  []int    // their positions in this atom
	index     map[string][]int
	newVarPos map[string]int // first position of each newly bound variable
}

type grounder struct {
	db      *relation.Database
	q       *query.Query
	atoms   []*query.Atom
	plans   []atomPlan
	varID   map[varKey]lineage.Var
	probs   []float64
	answers []GroundedAnswer
	byHead  map[string]int
	chk     core.Check
	ec      *core.ExecContext
}

// prepare compiles the binding pattern of each atom and builds a hash index
// keyed on the positions bound by earlier atoms plus constants and repeated
// variables.
func (g *grounder) prepare() error {
	bound := make(map[string]bool)
	for _, a := range g.atoms {
		rel, err := g.db.Relation(a.Pred)
		if err != nil {
			return err
		}
		if len(rel.Attrs) != len(a.Args) {
			return fmt.Errorf("engine: atom %s has %d arguments, relation has %d attributes", a.String(), len(a.Args), len(rel.Attrs))
		}
		ap := atomPlan{rel: rel, args: a.Args, newVarPos: make(map[string]int)}
		seenHere := make(map[string]int)
		type fixed struct {
			pos int
			val tuple.Value
		}
		var fixedChecks []fixed
		type eq struct{ pos, with int }
		var eqChecks []eq
		for i, arg := range a.Args {
			switch {
			case !arg.IsVar():
				fixedChecks = append(fixedChecks, fixed{pos: i, val: arg.Const})
			case bound[arg.Var]:
				ap.boundVars = append(ap.boundVars, arg.Var)
				ap.boundPos = append(ap.boundPos, i)
			default:
				if j, ok := seenHere[arg.Var]; ok {
					eqChecks = append(eqChecks, eq{pos: i, with: j})
				} else {
					seenHere[arg.Var] = i
					ap.newVarPos[arg.Var] = i
				}
			}
		}
		ap.index = make(map[string][]int)
		for ri, row := range rel.Rows {
			if row.P == 0 {
				continue
			}
			ok := true
			for _, f := range fixedChecks {
				if row.Tuple[f.pos] != f.val {
					ok = false
					break
				}
			}
			if ok {
				for _, e := range eqChecks {
					if row.Tuple[e.pos] != row.Tuple[e.with] {
						ok = false
						break
					}
				}
			}
			if !ok {
				continue
			}
			k := row.Tuple.KeyAt(ap.boundPos)
			ap.index[k] = append(ap.index[k], ri)
		}
		for v := range ap.newVarPos {
			bound[v] = true
		}
		g.plans = append(g.plans, ap)
	}
	return nil
}

// recurse extends the partial grounding at atom depth with every matching
// row. clause carries the lineage variables of uncertain matched rows.
func (g *grounder) recurse(depth int, binding map[string]tuple.Value, clause []lineage.Var) error {
	if depth == len(g.plans) {
		if err := g.ec.ChargeRows(1); err != nil {
			return err
		}
		vals := make(tuple.Tuple, len(g.q.Head))
		for i, h := range g.q.Head {
			vals[i] = binding[h]
		}
		k := vals.Key()
		ai, ok := g.byHead[k]
		if !ok {
			ai = len(g.answers)
			g.byHead[k] = ai
			g.answers = append(g.answers, GroundedAnswer{Vals: vals, F: &lineage.DNF{}})
		}
		g.answers[ai].F.Add(lineage.NewClause(clause...))
		return nil
	}
	ap := &g.plans[depth]
	key := make(tuple.Tuple, len(ap.boundPos))
	for i, v := range ap.boundVars {
		key[i] = binding[v]
	}
	for _, ri := range ap.index[key.Key()] {
		if err := g.chk.Tick(); err != nil {
			return err
		}
		row := ap.rel.Rows[ri]
		for v, pos := range ap.newVarPos {
			binding[v] = row.Tuple[pos]
		}
		next := clause
		if row.P < 1 {
			next = append(clause, g.varFor(ap.rel.Name, ri, row.P))
		}
		if err := g.recurse(depth+1, binding, next); err != nil {
			return err
		}
	}
	for v := range ap.newVarPos {
		delete(binding, v)
	}
	return nil
}

func (g *grounder) varFor(pred string, row int, p float64) lineage.Var {
	k := varKey{pred: pred, row: row}
	if v, ok := g.varID[k]; ok {
		return v
	}
	v := lineage.Var(len(g.probs))
	g.varID[k] = v
	g.probs = append(g.probs, p)
	return v
}

// dnfConfidence is the per-answer job of everything that solves grounded
// lineage — evalLineage and materialized views: Karp–Luby under MonteCarlo,
// solveExact otherwise, and Karp–Luby again, on the same per-job seed, when
// the exact budget runs out and NoFallback is unset.
func (o Options) dnfConfidence(ec *core.ExecContext, f *lineage.DNF, probOf func(lineage.Var) float64, job int64, lm *lineage.Memo) confidence {
	sample := func(reason string) confidence {
		p, err := o.karpLuby(ec, f, probOf, job)
		if err != nil {
			return confidence{err: err}
		}
		return confidence{p: p, approx: true, backend: "karp-luby", reason: reason}
	}
	if o.Strategy == core.MonteCarlo {
		return sample("Karp–Luby sampling requested (mc strategy)")
	}
	p, backend, err := o.solveExact(ec, f, probOf, lm)
	if errors.Is(err, lineage.ErrBudget) && !o.NoFallback {
		return sample("exact Shannon-expansion budget exhausted on the DNF lineage; Karp–Luby sampling")
	}
	if err != nil {
		return confidence{err: err}
	}
	return confidence{p: p, backend: backend}
}

// evalLineage implements the DNFLineage and MonteCarlo strategies through
// the shared pipeline driver: build = full grounding, one inference job per
// answer, assemble = row materialization in answer order. Approximate paths
// seed deterministically per answer, so parallel and sequential runs agree.
func evalLineage(ec *core.ExecContext, db *relation.Database, q *query.Query, plan *query.Plan, opts Options) (*Result, error) {
	// Grounded answers are built in head-variable order; Attrs must say so
	// (plan.Attrs() can be a permutation of the head, e.g. q(a,b) :- R(b,a)).
	res := &Result{Attrs: append([]string(nil), q.Head...)}
	res.Stats.Strategy = opts.Strategy
	if opts.Strategy == core.MonteCarlo {
		res.Stats.Approximate = true
	}
	// Built by build() once it knows the solver will read it.
	var lm *lineage.Memo
	if opts.circuitCache() != nil && opts.Strategy == core.DNFLineage {
		opts.circuitStats = &lineage.CircuitStats{}
	}
	var g *Grounding
	build := func() (int, error) {
		span := ec.StartOp(0)
		var err error
		g, err = GroundCtx(ec, db, q, plan)
		if err != nil {
			ec.FinishOp(span, 0, core.OpStat{}, true)
			return 0, err
		}
		res.Stats.LineageClauses = g.ClauseCount()
		res.Stats.LineageVars = g.VarCount()
		ec.FinishOp(span, 0, core.OpStat{
			Op:     "ground " + plan.String(),
			Kind:   "ground",
			Rows:   len(g.Answers),
			Detail: fmt.Sprintf("%d clauses over %d variables", g.ClauseCount(), g.VarCount()),
		}, false)
		// All answers share one variable space (Grounding.Probs), so the
		// Shannon solver can share subproblems across answers through one
		// memo table; results are bit-identical with and without it. A
		// single answer has nothing to share — the solver's per-call memo
		// covers repeats within it — and with a circuit cache attached
		// solveExact never reads the table.
		if !opts.NoMemo && opts.Strategy == core.DNFLineage && opts.circuitCache() == nil && len(g.Answers) >= 2 {
			lm = lineage.NewMemo(lineage.MemoConfig{})
		}
		return len(g.Answers), nil
	}
	infer := func(i int) confidence {
		return opts.dnfConfidence(ec, g.Answers[i].F, func(v lineage.Var) float64 { return g.Probs[v] }, int64(i), lm)
	}
	assemble := func(conf []confidence) error {
		recordInference(ec, res.Stats.InferenceTime, conf, func(i int) string {
			if len(g.Answers[i].Vals) == 0 {
				return "answer q()"
			}
			return "answer " + g.Answers[i].Vals.String()
		})
		for i, ans := range g.Answers {
			if conf[i].approx {
				res.Stats.Approximate = true
			}
			res.Rows = append(res.Rows, Row{Vals: ans.Vals, P: conf[i].p, Lo: conf[i].p, Hi: conf[i].p})
		}
		res.Stats.Answers = len(res.Rows)
		return nil
	}
	if err := runPipeline(ec, res, build, infer, assemble); err != nil {
		return nil, err
	}
	res.Stats.Operators = ec.Ops()
	ms := lm.Stats()
	res.Stats.MemoHits = ms.Hits
	res.Stats.MemoMisses = ms.Misses
	res.Stats.MemoEvictions = ms.Evictions
	res.Stats.CircuitCompiles, res.Stats.CircuitHits, res.Stats.CircuitEvals = opts.circuitStats.Snapshot()
	return res, nil
}
