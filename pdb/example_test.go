package pdb_test

import (
	"fmt"

	"repro/pdb"
)

// The canonical unsafe query of the paper's Section 4.1 evaluated with
// partial lineage. Under the plan a caller writes in body order the single
// FD-violating tuple is treated symbolically; the cost-aware planner instead
// picks a join order that is data-safe on this instance, conditioning
// nothing — the probability is identical either way.
func ExampleDatabase_Evaluate() {
	db := pdb.NewDatabase()
	r := db.CreateRelation("R", "x")
	r.AddInts(0.5, 1)
	s := db.CreateRelation("S", "x", "y")
	s.AddInts(0.6, 1, 1)
	s.AddInts(0.4, 1, 2)
	t := db.CreateRelation("T", "y")
	t.AddInts(0.8, 1)
	t.AddInts(0.3, 2)

	q, _ := pdb.ParseQuery("q :- R(x), S(x, y), T(y)")
	plan, _ := pdb.LeftDeepPlan(q, "R", "S", "T")
	body, _ := db.EvaluateWithPlan(q, plan, pdb.Options{Strategy: pdb.PartialLineage})
	fmt.Printf("body order:   Pr(q) = %.4f, offending tuples = %d\n", body.BoolProb(), body.Stats.OffendingTuples)
	adaptive, _ := db.Evaluate(q, pdb.Options{Strategy: pdb.PartialLineage})
	fmt.Printf("planned (%s): Pr(q) = %.4f, offending tuples = %d\n",
		adaptive.Stats.PlanOrder, adaptive.BoolProb(), adaptive.Stats.OffendingTuples)
	// Output:
	// body order:   Pr(q) = 0.2712, offending tuples = 1
	// planned (S,T,R): Pr(q) = 0.2712, offending tuples = 0
}

// Safe queries are recognized by the dichotomy and evaluated purely
// extensionally via a synthesized safe plan.
func ExampleSafePlan() {
	q, _ := pdb.ParseQuery("q :- R(x, y), S(x, z)")
	plan, _ := pdb.SafePlan(q)
	fmt.Println(q.IsSafe(), plan)
	// Output:
	// true π{}((π{x}(R(x, y)) ⋈ π{x}(S(x, z))))
}

// Queries with head variables group answers; Top ranks them.
func ExampleResult_Top() {
	db := pdb.NewDatabase()
	r := db.CreateRelation("Reading", "sensor", "level")
	r.AddInts(0.9, 1, 7)
	r.AddInts(0.2, 2, 7)
	r.AddInts(0.5, 3, 7)

	q, _ := pdb.ParseQuery("hot(s) :- Reading(s, 7)")
	res, _ := db.Evaluate(q, pdb.Options{})
	for _, row := range res.Top(2) {
		fmt.Printf("sensor %v: %.2f\n", row.Vals[0], row.P)
	}
	// Output:
	// sensor 1: 0.90
	// sensor 3: 0.50
}

// The five strategies agree on exact answers; here the MayBMS-style DNF
// baseline confirms the partial-lineage result.
func ExampleOptions() {
	db := pdb.NewDatabase()
	r := db.CreateRelation("R", "x")
	r.AddInts(0.5, 1)
	s := db.CreateRelation("S", "x", "y")
	s.AddInts(0.5, 1, 1)
	s.AddInts(0.5, 1, 2)

	q, _ := pdb.ParseQuery("q :- R(x), S(x, y)")
	partial, _ := db.Evaluate(q, pdb.Options{Strategy: pdb.PartialLineage})
	dnf, _ := db.Evaluate(q, pdb.Options{Strategy: pdb.DNFLineage})
	fmt.Printf("%.6f %.6f\n", partial.BoolProb(), dnf.BoolProb())
	// Output:
	// 0.375000 0.375000
}
