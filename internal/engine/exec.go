package engine

import (
	"errors"
	"fmt"

	"repro/internal/aonet"
	"repro/internal/core"
	"repro/internal/inference"
	"repro/internal/lineage"
	"repro/internal/pl"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/tuple"
)

// ErrNotDataSafe reports that a SafePlanOnly evaluation hit a join requiring
// conditioning: the plan is not data-safe on this instance (Definition 3.4).
// Matchable with errors.Is; callers like the crosscheck harness use it to
// distinguish the strategy legitimately declining an instance from a bug.
var ErrNotDataSafe = errors.New("engine: plan is not data-safe on this instance")

// evalNetwork executes the plan over pL-relations (the SafePlanOnly,
// PartialLineage and FullNetwork strategies) and runs inference on the
// resulting partial-lineage network, through the shared pipeline driver:
// build = plan execution, one inference job per distinct lineage node,
// assemble = row materialization. Answer tuples are emitted in head-variable
// order — the plan's output column order can differ (e.g. q(a, b) :- R(b, a)),
// and every strategy must present answers identically for results to be
// comparable.
func evalNetwork(ec *core.ExecContext, db *relation.Database, q *query.Query, plan *query.Plan, opts Options) (*Result, error) {
	perm, err := headPermutation(q, plan)
	if err != nil {
		return nil, err
	}
	res := &Result{Attrs: append([]string(nil), q.Head...), Net: aonet.New()}
	res.Stats.Strategy = opts.Strategy
	if opts.NoCons {
		res.Net.SetHashConsing(false)
	}
	// Per-evaluation shared memo tables, built by build() once it knows
	// they will be read.
	var lm *lineage.Memo
	// Per-evaluation circuit accumulator: the cache itself is shared across
	// queries, so counters for this evaluation's stats live here.
	if opts.circuitCache() != nil {
		opts.circuitStats = &lineage.CircuitStats{}
	}
	ex := &executor{db: db, net: res.Net, opts: opts, stats: &res.Stats, ec: ec}
	if len(opts.Evidence) > 0 {
		ex.evidenceByRel = make(map[string][]int)
		ex.evidenceMatched = make([]bool, len(opts.Evidence))
		ex.evidenceNodes = make(map[aonet.NodeID]bool)
		for i, ev := range opts.Evidence {
			ex.evidenceByRel[ev.Rel] = append(ex.evidenceByRel[ev.Rel], i)
		}
	}

	var final []finalTuple
	var distinct []aonet.NodeID
	var expansions []expansion
	build := func() (int, error) {
		out, err := ex.exec(plan)
		if err != nil {
			return 0, err
		}
		for i, matched := range ex.evidenceMatched {
			if !matched {
				ev := opts.Evidence[i]
				return 0, fmt.Errorf("engine: evidence tuple %v not found in relation %s (or the relation is not scanned by the plan)", ev.Vals, ev.Rel)
			}
		}
		res.Stats.NetworkNodes = res.Net.Len()
		res.Stats.NetworkEdges = res.Net.EdgeCount()
		if opts.MeasureWidth {
			res.Stats.NetworkWidthBound = res.Net.TreewidthBound(nil)
		}
		if opts.SkipInference {
			res.Stats.Answers = out.Len()
			return 0, nil
		}
		final = make([]finalTuple, 0, out.Len())
		seen := make(map[aonet.NodeID]bool)
		for _, t := range out.Tuples {
			// A copy even when the plan already emits head order: the
			// operators cut rows from shared chunks, and a Result that kept
			// one row's slice would keep its whole chunk alive.
			final = append(final, finalTuple{vals: t.Vals.Project(perm), p: t.P, lin: t.Lin})
			if t.Lin != aonet.Epsilon && !seen[t.Lin] {
				seen[t.Lin] = true
				distinct = append(distinct, t.Lin)
			}
		}
		// Pre-expand every answer's partial lineage serially, sharing one
		// expander: gate nodes common to several answers expand once and
		// keep the same variables, and the serial answer-order pass makes
		// the variable numbering deterministic — identical at every
		// Parallelism and memo setting, which is what keeps memo-on and
		// memo-off results bit-identical.
		if len(ex.evidenceNodes) == 0 && !opts.NoExpansion {
			xp := inference.NewExpander(res.Net, 0)
			expansions = make([]expansion, len(distinct))
			for i, lin := range distinct {
				f, probs, err := xp.Expand(lin)
				expansions[i] = expansion{f: f, probs: probs, err: err}
			}
		}
		// Shared memo tables (disabled by NoMemo): exact results are
		// bit-identical either way, only the work repeats. They only pay
		// for themselves across answers — with a single inference job the
		// solver's per-call memo already catches every repeat — and the
		// lineage table is read only by the Shannon solver, which
		// solveExact replaces with the compiled circuit whenever a circuit
		// cache is attached.
		if !opts.NoMemo && len(distinct) >= 2 {
			opts.Inference.Memo = inference.NewMemo()
			if opts.circuitCache() == nil {
				lm = lineage.NewMemo(lineage.MemoConfig{})
			}
		}
		return len(distinct), nil
	}
	infer := func(i int) confidence {
		var pre *expansion
		if expansions != nil {
			pre = &expansions[i]
		}
		return answerMarginal(ec, res.Net, distinct[i], opts, ex.evidenceNodes, pre, lm)
	}
	assemble := func(conf []confidence) error {
		if opts.SkipInference {
			return nil
		}
		recordInference(ec, res.Stats.InferenceTime, conf, func(i int) string {
			return fmt.Sprintf("lineage node %d", distinct[i])
		})
		byNode := make(map[aonet.NodeID]confidence, len(conf))
		for i, lin := range distinct {
			byNode[lin] = conf[i]
			if conf[i].width > res.Stats.InferenceWidth {
				res.Stats.InferenceWidth = conf[i].width
			}
			if conf[i].vars > res.Stats.InferenceVars {
				res.Stats.InferenceVars = conf[i].vars
			}
			if conf[i].approx {
				res.Stats.Approximate = true
			}
		}
		for _, ft := range final {
			p := ft.p
			if ft.lin != aonet.Epsilon {
				p *= byNode[ft.lin].p
			}
			res.Rows = append(res.Rows, Row{Vals: ft.vals, P: p, Lo: p, Hi: p})
		}
		res.Stats.Answers = len(res.Rows)
		return nil
	}
	if err := runPipeline(ec, res, build, infer, assemble); err != nil {
		return nil, err
	}
	res.Stats.Operators = ec.Ops()
	res.Stats.ConsHits = res.Net.ConsHits()
	ms := lm.Stats()
	veHits, veMisses, veEvictions, _, _ := opts.Inference.Memo.Stats()
	res.Stats.MemoHits = ms.Hits + veHits
	res.Stats.MemoMisses = ms.Misses + veMisses
	res.Stats.MemoEvictions = ms.Evictions + veEvictions
	res.Stats.CircuitCompiles, res.Stats.CircuitHits, res.Stats.CircuitEvals = opts.circuitStats.Snapshot()
	return res, nil
}

// headPermutation maps head positions to plan output columns, for
// tuple.Project at answer assembly. A head variable missing from the plan
// output is an internal plan-construction error.
func headPermutation(q *query.Query, plan *query.Plan) ([]int, error) {
	attrs := tuple.Schema(plan.Attrs())
	perm := make([]int, len(q.Head))
	for i, h := range q.Head {
		j := attrs.Index(h)
		if j < 0 {
			return nil, fmt.Errorf("engine: plan output %v is missing head variable %s", plan.Attrs(), h)
		}
		perm[i] = j
	}
	return perm, nil
}

// executor runs one plan over a shared network.
type executor struct {
	db    *relation.Database
	net   *aonet.Network
	opts  Options
	stats *core.Stats
	ec    *core.ExecContext

	// evidence bookkeeping (Options.Evidence).
	evidenceByRel   map[string][]int
	evidenceMatched []bool
	evidenceNodes   map[aonet.NodeID]bool
}

// opMeta carries the descriptive trace fields only the operator itself
// knows: its span kind, input cardinality and conditioning work.
type opMeta struct {
	kind        string
	rowsIn      int
	conditioned int
}

func (ex *executor) exec(p *query.Plan) (*pl.Relation, error) {
	if err := ex.ec.Err(); err != nil {
		return nil, err
	}
	if !ex.ec.Tracing() {
		out, _, err := ex.execChecked(p)
		return out, err
	}
	span := ex.ec.StartOp(ex.net.Len())
	out, meta, err := ex.execChecked(p)
	rows := 0
	if out != nil {
		rows = out.Len()
	}
	ex.ec.FinishOp(span, ex.net.Len(), core.OpStat{
		Op:          p.String(),
		Kind:        meta.kind,
		Rows:        rows,
		RowsIn:      meta.rowsIn,
		Conditioned: meta.conditioned,
	}, err != nil)
	return out, err
}

// execChecked runs the operator and, when requested, validates the output
// invariants.
func (ex *executor) execChecked(p *query.Plan) (*pl.Relation, opMeta, error) {
	out, meta, err := ex.execOp(p)
	if err != nil {
		return nil, meta, err
	}
	if ex.opts.Validate {
		if err := out.Validate(ex.net); err != nil {
			return nil, meta, fmt.Errorf("engine: invariant violation after %s: %w", p.String(), err)
		}
		if err := ex.net.Validate(); err != nil {
			return nil, meta, fmt.Errorf("engine: network invariant violation after %s: %w", p.String(), err)
		}
	}
	return out, meta, nil
}

func (ex *executor) execOp(p *query.Plan) (*pl.Relation, opMeta, error) {
	switch p.Op {
	case query.OpScan:
		out, base, err := ex.scan(p.Atom)
		return out, opMeta{kind: "scan", rowsIn: base}, err
	case query.OpProject:
		if p.Left.Op == query.OpScan && ex.canStreamScan(p.Left.Atom) {
			// Bounded-memory grounding: the scan drives the project as an
			// iterator instead of materializing its output relation first.
			// The project sees the same tuples in the same order, so the
			// result is byte-identical to the materialized path.
			attrs, it, rowsIn, err := ex.scanIter(p.Left.Atom)
			if err != nil {
				return nil, opMeta{kind: "project"}, err
			}
			out, err := pl.ProjectStreamCtx(ex.ec, attrs, it, p.Cols, ex.net)
			return out, opMeta{kind: "project", rowsIn: *rowsIn}, err
		}
		in, err := ex.exec(p.Left)
		if err != nil {
			return nil, opMeta{kind: "project"}, err
		}
		out, err := pl.ProjectCtx(ex.ec, in, p.Cols, ex.net)
		return out, opMeta{kind: "project", rowsIn: in.Len()}, err
	case query.OpJoin:
		meta := opMeta{kind: "join"}
		left, err := ex.exec(p.Left)
		if err != nil {
			return nil, meta, err
		}
		right, err := ex.exec(p.Right)
		if err != nil {
			return nil, meta, err
		}
		meta.rowsIn = left.Len() + right.Len()
		joined, conditioned, err := pl.SafeJoinCtx(ex.ec, left, right, ex.net)
		if err != nil {
			return nil, meta, err
		}
		meta.conditioned = conditioned
		ex.stats.OffendingTuples += conditioned
		ex.stats.PerJoin = append(ex.stats.PerJoin, core.JoinStat{
			Join:        fmt.Sprintf("%s ⋈ %s", p.Left.String(), p.Right.String()),
			Conditioned: conditioned,
		})
		if conditioned > 0 && ex.opts.Strategy == core.SafePlanOnly {
			return nil, meta, fmt.Errorf("%w: join %s ⋈ %s required conditioning %d offending tuples",
				ErrNotDataSafe, p.Left.String(), p.Right.String(), conditioned)
		}
		return joined, meta, nil
	default:
		return nil, opMeta{}, fmt.Errorf("engine: unknown plan operator %d", p.Op)
	}
}

// scanPattern is an atom's compiled binding pattern: the selections implied
// by constant arguments and repeated variables, and the projection onto the
// atom's distinct variables.
type scanPattern struct {
	eqs    []struct{ pos, with int }
	consts []struct {
		pos int
		val tuple.Value
	}
	outCols tuple.Schema
	outPos  []int
}

func compileScanPattern(a *query.Atom) scanPattern {
	var sp scanPattern
	firstPos := make(map[string]int)
	for i, arg := range a.Args {
		if !arg.IsVar() {
			sp.consts = append(sp.consts, struct {
				pos int
				val tuple.Value
			}{pos: i, val: arg.Const})
			continue
		}
		if j, seen := firstPos[arg.Var]; seen {
			sp.eqs = append(sp.eqs, struct{ pos, with int }{pos: i, with: j})
			continue
		}
		firstPos[arg.Var] = i
		sp.outCols = append(sp.outCols, arg.Var)
		sp.outPos = append(sp.outPos, i)
	}
	return sp
}

// matches reports whether a base row passes the pattern's selections.
func (sp *scanPattern) matches(row relation.Row) bool {
	if row.P == 0 {
		return false
	}
	for _, c := range sp.consts {
		if row.Tuple[c.pos] != c.val {
			return false
		}
	}
	for _, e := range sp.eqs {
		if row.Tuple[e.pos] != row.Tuple[e.with] {
			return false
		}
	}
	return true
}

// scan reads the atom's relation, applies the selections implied by constant
// arguments and repeated variables, and projects onto the atom's distinct
// variables. Under FullNetwork every uncertain tuple is conditioned
// immediately, making the whole evaluation intensional. The int result is
// the base relation's cardinality (the scan's rows-in).
func (ex *executor) scan(a *query.Atom) (*pl.Relation, int, error) {
	rel, err := ex.db.Relation(a.Pred)
	if err != nil {
		return nil, 0, err
	}
	if len(rel.Attrs) != len(a.Args) {
		return nil, 0, fmt.Errorf("engine: atom %s has %d arguments, relation has %d attributes", a.String(), len(a.Args), len(rel.Attrs))
	}
	sp := compileScanPattern(a)
	out := &pl.Relation{Attrs: sp.outCols}
	outRow := make([]int, len(rel.Rows))
	chk := core.Check{EC: ex.ec}
	for ri, row := range rel.Rows {
		if err := chk.Tick(); err != nil {
			return nil, len(rel.Rows), err
		}
		outRow[ri] = -1
		if !sp.matches(row) {
			continue
		}
		outRow[ri] = len(out.Tuples)
		out.Tuples = append(out.Tuples, pl.Tuple{
			Vals: row.Tuple.Project(sp.outPos),
			P:    row.P,
			Lin:  aonet.Epsilon,
		})
	}
	if err := ex.ec.ChargeRows(out.Len()); err != nil {
		return nil, len(rel.Rows), err
	}
	if ex.opts.Strategy == core.FullNetwork {
		for i := range out.Tuples {
			if out.Tuples[i].P < 1 {
				if err := pl.CondCtx(ex.ec, out, i, ex.net); err != nil {
					return nil, len(rel.Rows), err
				}
			}
		}
	}
	if err := ex.applyEvidence(a.Pred, rel, outRow, out); err != nil {
		return nil, len(rel.Rows), err
	}
	return out, len(rel.Rows), nil
}

// canStreamScan reports whether the scan of atom a may drive its consumer as
// an iterator instead of a materialized relation: bounded-memory execution
// only, and only when nothing needs to mutate the scanned tuples in place —
// FullNetwork conditions every uncertain tuple at the scan, and evidence
// pins lineage nodes onto specific scan rows.
func (ex *executor) canStreamScan(a *query.Atom) bool {
	return ex.ec.MemBudget() > 0 &&
		ex.opts.Strategy != core.FullNetwork &&
		len(ex.evidenceByRel[a.Pred]) == 0
}

// scanIter is scan as a stream: it yields the same tuples in the same base
// row order without building the output relation. The returned counter
// tracks rows emitted so far (the consumer's rows-in after the stream is
// drained); rows are charged against the budget as they are emitted, so the
// charged total matches the materialized scan's.
func (ex *executor) scanIter(a *query.Atom) (tuple.Schema, pl.Iterator, *int, error) {
	rel, err := ex.db.Relation(a.Pred)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(rel.Attrs) != len(a.Args) {
		return nil, nil, nil, fmt.Errorf("engine: atom %s has %d arguments, relation has %d attributes", a.String(), len(a.Args), len(rel.Attrs))
	}
	sp := compileScanPattern(a)
	rows := new(int)
	ri := 0
	chk := core.Check{EC: ex.ec}
	it := pl.IterFunc(func() (pl.Tuple, bool, error) {
		for ; ri < len(rel.Rows); ri++ {
			if err := chk.Tick(); err != nil {
				return pl.Tuple{}, false, err
			}
			row := rel.Rows[ri]
			if !sp.matches(row) {
				continue
			}
			if err := ex.ec.ChargeRows(1); err != nil {
				return pl.Tuple{}, false, err
			}
			*rows++
			ri++
			return pl.Tuple{Vals: row.Tuple.Project(sp.outPos), P: row.P, Lin: aonet.Epsilon}, true, nil
		}
		return pl.Tuple{}, false, nil
	})
	return sp.outCols, it, rows, nil
}

// applyEvidence conditions the scanned relation on the observations for
// this predicate: observed tuples get a lineage node pinned to the observed
// value during inference. outRow maps base-relation row indexes to scan
// output indexes (-1 when filtered out by the atom's selections — such
// tuples are independent of the answers, so only the zero-probability check
// applies).
func (ex *executor) applyEvidence(pred string, rel *relation.Relation, outRow []int, out *pl.Relation) error {
	items := ex.evidenceByRel[pred]
	if len(items) == 0 {
		return nil
	}
	for _, idx := range items {
		ev := ex.opts.Evidence[idx]
		found := -1
		for ri, row := range rel.Rows {
			if row.Tuple.Equal(ev.Vals) {
				found = ri
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("engine: evidence tuple %v not in relation %s", ev.Vals, pred)
		}
		ex.evidenceMatched[idx] = true
		p := rel.Rows[found].P
		if p >= 1 && !ev.Present {
			return fmt.Errorf("engine: evidence asserts certain tuple %v of %s absent (probability zero)", ev.Vals, pred)
		}
		if p <= 0 && ev.Present {
			return fmt.Errorf("engine: evidence asserts impossible tuple %v of %s present (probability zero)", ev.Vals, pred)
		}
		if p >= 1 || p <= 0 {
			continue // the observation is already certain
		}
		oi := outRow[found]
		if oi < 0 {
			continue // filtered out by the atom's selections: independent of the answers
		}
		if err := pl.CondCtx(ex.ec, out, oi, ex.net); err != nil {
			return err
		}
		ex.evidenceNodes[out.Tuples[oi].Lin] = ev.Present
	}
	return nil
}
