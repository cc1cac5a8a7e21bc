// Package shell implements the interactive REPL behind cmd/pdbshell: a
// small command language for building probabilistic databases, classifying
// and planning queries, and evaluating them under any strategy. The REPL
// core is an io.Reader→io.Writer transducer so it is scriptable and
// testable.
package shell

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/workload"
	"repro/pdb"
)

// Shell holds one session's state.
type Shell struct {
	db       *pdb.Database
	query    *pdb.Query
	plan     *pdb.Plan
	planDesc string
	strategy pdb.Strategy
	samples  int
}

// New creates a session with an empty database and the partial-lineage
// strategy.
func New() *Shell {
	return &Shell{db: pdb.NewDatabase(), strategy: pdb.PartialLineage, samples: 100000}
}

// Run reads commands line by line until EOF or the quit command, writing
// results and errors to w. Command errors do not stop the session.
func (s *Shell) Run(r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	fmt.Fprintln(w, "pdb shell — type 'help' for commands")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		quit, err := s.exec(line, w)
		if err != nil {
			fmt.Fprintf(w, "error: %v\n", err)
		}
		if quit {
			return nil
		}
	}
	return sc.Err()
}

// exec runs one command line; quit reports whether the session should end.
func (s *Shell) exec(line string, w io.Writer) (quit bool, err error) {
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		s.help(w)
	case "quit", "exit":
		return true, nil
	case "load":
		if len(args) != 1 {
			return false, fmt.Errorf("usage: load <dir>")
		}
		db, err := pdb.LoadDatabase(args[0])
		if err != nil {
			return false, err
		}
		s.db = db
		fmt.Fprintf(w, "loaded %d relations: %s\n", len(db.Names()), strings.Join(db.Names(), ", "))
	case "save":
		if len(args) != 1 {
			return false, fmt.Errorf("usage: save <dir>")
		}
		if err := s.db.SaveDir(args[0]); err != nil {
			return false, err
		}
		fmt.Fprintf(w, "saved to %s\n", args[0])
	case "rel":
		if len(args) < 2 {
			return false, fmt.Errorf("usage: rel <Name> <attr> [attr...]")
		}
		s.db.CreateRelation(args[0], args[1:]...)
		fmt.Fprintf(w, "relation %s(%s) created\n", args[0], strings.Join(args[1:], ", "))
	case "add":
		if len(args) < 3 {
			return false, fmt.Errorf("usage: add <Name> <p> <value> [value...]")
		}
		rel, err := s.db.Relation(args[0])
		if err != nil {
			return false, err
		}
		p, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			return false, fmt.Errorf("bad probability %q: %v", args[1], err)
		}
		vals := make([]pdb.Value, len(args)-2)
		for i, a := range args[2:] {
			vals[i] = parseValue(a)
		}
		if err := rel.Add(p, vals...); err != nil {
			return false, err
		}
	case "gen":
		if len(args) != 7 {
			return false, fmt.Errorf("usage: gen <P1|P2|P3|S2|S3> <n> <m> <fanout> <rf> <rd> <seed>")
		}
		spec, err := workload.SpecByName(args[0])
		if err != nil {
			return false, err
		}
		var p workload.Params
		if p.N, err = strconv.Atoi(args[1]); err != nil {
			return false, fmt.Errorf("bad n: %v", err)
		}
		if p.M, err = strconv.Atoi(args[2]); err != nil {
			return false, fmt.Errorf("bad m: %v", err)
		}
		if p.Fanout, err = strconv.Atoi(args[3]); err != nil {
			return false, fmt.Errorf("bad fanout: %v", err)
		}
		if p.RF, err = strconv.ParseFloat(args[4], 64); err != nil {
			return false, fmt.Errorf("bad rf: %v", err)
		}
		if p.RD, err = strconv.ParseFloat(args[5], 64); err != nil {
			return false, fmt.Errorf("bad rd: %v", err)
		}
		if p.Seed, err = strconv.ParseInt(args[6], 10, 64); err != nil {
			return false, fmt.Errorf("bad seed: %v", err)
		}
		gdb, err := workload.GenerateFor(spec, p)
		if err != nil {
			return false, err
		}
		ndb := pdb.NewDatabase()
		for _, name := range gdb.Names() {
			rel, err := gdb.Relation(name)
			if err != nil {
				return false, err
			}
			pr := ndb.CreateRelation(name, rel.Attrs...)
			for _, row := range rel.Rows {
				if err := pr.Add(row.P, row.Tuple...); err != nil {
					return false, err
				}
			}
		}
		s.db = ndb
		q, err := pdb.ParseQuery(spec.QueryText)
		if err != nil {
			return false, err
		}
		s.query = q
		plan, err := pdb.LeftDeepPlan(q, spec.JoinOrder...)
		if err != nil {
			return false, err
		}
		s.plan, s.planDesc = plan, "Table 1 order "+strings.Join(spec.JoinOrder, ",")
		fmt.Fprintf(w, "generated %s (%d rows) and set query %s\n", spec.Name, gdb.TotalRows(), spec.QueryText)
	case "rels":
		names := s.db.Names()
		if len(names) == 0 {
			fmt.Fprintln(w, "no relations")
			break
		}
		sort.Strings(names)
		for _, n := range names {
			rel, err := s.db.Relation(n)
			if err != nil {
				return false, err
			}
			fmt.Fprintf(w, "%s: %d tuples\n", n, rel.Len())
		}
	case "query":
		if len(args) == 0 {
			return false, fmt.Errorf("usage: query <datalog text>")
		}
		q, err := pdb.ParseQuery(strings.Join(args, " "))
		if err != nil {
			return false, err
		}
		s.query = q
		s.plan, s.planDesc = nil, ""
		fmt.Fprintf(w, "query set: %s (safe: %v, strictly hierarchical: %v)\n",
			q, q.IsSafe(), q.IsStrictlyHierarchical())
	case "strategy":
		if len(args) != 1 {
			return false, fmt.Errorf("usage: strategy partial|safe|network|dnf|mc|dissociation")
		}
		strat, err := pdb.ParseStrategy(args[0])
		if err != nil {
			return false, err
		}
		s.strategy = strat
		fmt.Fprintf(w, "strategy: %v\n", strat)
	case "samples":
		if len(args) != 1 {
			return false, fmt.Errorf("usage: samples <n>")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n <= 0 {
			return false, fmt.Errorf("bad sample count %q", args[0])
		}
		s.samples = n
	case "order":
		if s.query == nil {
			return false, fmt.Errorf("set a query first")
		}
		if len(args) != 1 {
			return false, fmt.Errorf("usage: order R,S,T")
		}
		plan, err := pdb.LeftDeepPlan(s.query, strings.Split(args[0], ",")...)
		if err != nil {
			return false, err
		}
		s.plan, s.planDesc = plan, "explicit order "+args[0]
		fmt.Fprintf(w, "plan: %s\n", plan)
	case "optimize":
		if s.query == nil {
			return false, fmt.Errorf("set a query first")
		}
		best, ranked, err := s.db.OptimizePlan(s.query)
		if err != nil {
			return false, err
		}
		s.plan = best.Plan
		s.planDesc = "optimized order " + strings.Join(best.Order, ",")
		fmt.Fprintf(w, "ranked %d orders; best %s (est offending=%d, est rows=%.0f)\n",
			len(ranked), strings.Join(best.Order, ","), best.EstOffending, best.EstRows)
	case "plan":
		switch {
		case s.plan != nil:
			fmt.Fprintf(w, "%s (%s)\n", s.plan, s.planDesc)
		case s.query == nil:
			return false, fmt.Errorf("set a query first")
		default:
			if p, err := pdb.SafePlan(s.query); err == nil {
				fmt.Fprintf(w, "%s (safe plan)\n", p)
			} else {
				fmt.Fprintf(w, "left-deep, join order chosen by the planner at run (unsafe query: %v)\n", err)
			}
		}
	case "run":
		if s.query == nil {
			return false, fmt.Errorf("set a query first")
		}
		opts := pdb.Options{Strategy: s.strategy, Samples: s.samples}
		var res *pdb.Result
		var err error
		if s.plan != nil {
			res, err = s.db.EvaluateWithPlan(s.query, s.plan, opts)
		} else {
			res, err = s.db.Evaluate(s.query, opts)
		}
		if err != nil {
			return false, err
		}
		s.printResult(w, res)
	case "topk":
		if len(args) != 1 {
			return false, fmt.Errorf("usage: topk <k>")
		}
		k, err := strconv.Atoi(args[0])
		if err != nil || k <= 0 {
			return false, fmt.Errorf("bad k %q", args[0])
		}
		if s.query == nil {
			return false, fmt.Errorf("set a query first")
		}
		res, err := s.db.TopKQuery(s.query, pdb.TopKOptions{K: k, Seed: 1})
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "rank  %s  [lo, hi]\n", strings.Join(s.query.Head(), ", "))
		for i, a := range res.Answers {
			parts := make([]string, len(a.Vals))
			for j, v := range a.Vals {
				parts[j] = v.String()
			}
			mark := ""
			if a.Exact {
				mark = " (exact)"
			}
			fmt.Fprintf(w, "%4d  %s  [%.6f, %.6f]%s\n", i+1, strings.Join(parts, ", "), a.Lo, a.Hi, mark)
		}
		fmt.Fprintf(w, "separated=%v rounds=%d seeded-exact=%d sampled=%d\n",
			res.Separated, res.Rounds, res.SeededExact, res.Sampled)
	case "explain":
		if len(args) == 0 || args[0] != "analyze" {
			return false, fmt.Errorf("usage: explain analyze [<query text>]")
		}
		q, plan := s.query, s.plan
		if len(args) > 1 {
			var err error
			if q, err = pdb.ParseQuery(strings.Join(args[1:], " ")); err != nil {
				return false, err
			}
			plan = nil
		}
		if q == nil {
			return false, fmt.Errorf("set a query first, or: explain analyze <query text>")
		}
		opts := pdb.Options{Strategy: s.strategy, Samples: s.samples, Trace: true}
		var res *pdb.Result
		var err error
		if plan != nil {
			res, err = s.db.EvaluateWithPlan(q, plan, opts)
		} else {
			res, err = s.db.Evaluate(q, opts)
		}
		if err != nil {
			return false, err
		}
		if err := res.Explain(w); err != nil {
			return false, err
		}
	default:
		return false, fmt.Errorf("unknown command %q (try 'help')", cmd)
	}
	return false, nil
}

func (s *Shell) printResult(w io.Writer, res *pdb.Result) {
	if len(res.Attrs) == 0 {
		fmt.Fprintf(w, "Pr = %.9f\n", res.BoolProb())
	} else {
		rows := append([]pdb.Row(nil), res.Rows...)
		sort.Slice(rows, func(i, j int) bool { return rows[i].P > rows[j].P })
		header := "probability"
		if res.Stats.BoundsValued {
			header = "probability [lo, hi]"
		}
		fmt.Fprintf(w, "%s  %s\n", strings.Join(res.Attrs, ", "), header)
		for i, row := range rows {
			if i >= 20 {
				fmt.Fprintf(w, "... (%d more)\n", len(rows)-i)
				break
			}
			parts := make([]string, len(row.Vals))
			for j, v := range row.Vals {
				parts[j] = v.String()
			}
			if res.Stats.BoundsValued {
				fmt.Fprintf(w, "%s  %.9f [%.9f, %.9f]\n", strings.Join(parts, ", "), row.P, row.Lo, row.Hi)
			} else {
				fmt.Fprintf(w, "%s  %.9f\n", strings.Join(parts, ", "), row.P)
			}
		}
	}
	st := res.Stats
	fmt.Fprintf(w, "[%v] answers=%d offending=%d network=%d nodes approx=%v plan=%v inference=%v\n",
		st.Strategy, st.Answers, st.OffendingTuples, st.NetworkNodes, st.Approximate, st.PlanTime, st.InferenceTime)
}

func (s *Shell) help(w io.Writer) {
	fmt.Fprint(w, `commands:
  rel <Name> <attr...>      create a relation
  add <Name> <p> <v...>     add a tuple with probability p
  rels                      list relations
  load <dir> | save <dir>   CSV persistence
  gen <Q> <n> <m> <f> <rf> <rd> <seed>  generate a Table 1 workload
  query <text>              set the query, e.g. query q(h) :- R(h,x), S(h,x,y)
  strategy <name>           partial | safe | network | dnf | mc | dissociation
  samples <n>               sampling budget for approximate paths
  topk <k>                  rank the k most probable answers (bounds-seeded)
  order R,S,T               explicit left-deep join order
  optimize                  data-aware plan selection
  plan                      show the current plan
  run                       evaluate and print answers + statistics
  explain analyze [<text>]  evaluate with tracing and print the operator tree
  quit
`)
}

// parseValue mirrors the query-constant syntax: quoted strings stay
// strings, otherwise ints, then floats, then bare strings.
func parseValue(s string) pdb.Value {
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return pdb.String(s[1 : len(s)-1])
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return pdb.Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return pdb.Float(f)
	}
	return pdb.String(s)
}
