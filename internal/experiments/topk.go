package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/query"
	"repro/internal/relation"
	"repro/internal/topk"
	"repro/internal/tuple"
)

// TopkPoint compares one top-k workload ranked with dissociation-seeded
// intervals (the default) against cold multisimulation (-no-seed-bounds):
// identical top-k sets, but the seeded run starts every answer with a
// guaranteed interval, so Karp–Luby samples are spent only on answers whose
// intervals straddle the k-th boundary.
type TopkPoint struct {
	Workload      string  `json:"workload"`
	K             int     `json:"k"`
	Answers       int     `json:"answers"`
	ColdNs        int64   `json:"cold_ns"`
	SeededNs      int64   `json:"seeded_ns"`
	Speedup       float64 `json:"speedup"`
	ColdSamples   int     `json:"cold_samples"`
	SeededSamples int     `json:"seeded_samples"`
	ColdRounds    int     `json:"cold_rounds"`
	SeededRounds  int     `json:"seeded_rounds"`
	SeededExact   int     `json:"seeded_exact"`
	Err           string  `json:"error,omitempty"`
}

// TopkReport is the BENCH_topk.json artifact.
type TopkReport struct {
	Points []TopkPoint `json:"points"`
}

// topkWorkload is one benchmark instance: a grounding whose per-answer
// lineages are large enough that the exact-clause shortcut does not apply.
type topkWorkload struct {
	name string
	db   *relation.Database
	q    *query.Query
	k    int
}

// readOnceGroupsDB builds the read-once instance: answer h's lineage is
// ∨_a r_ha ∧ (s_ha0 ∨ s_ha1), which factorizes exactly — dissociation
// seeding collapses every interval to a point and the seeded run ranks with
// zero samples, while the cold run has to simulate every answer down to
// separation. Probabilities are graded (≈ h-proportional) and kept small
// enough that the answers spread across (0, 1) instead of saturating.
func readOnceGroupsDB(groups, fanout int) *relation.Database {
	db := relation.NewDatabase()
	r := relation.New("R", "h", "a")
	s := relation.New("S", "h", "a", "b")
	for h := 1; h <= groups; h++ {
		base := float64(h) / float64(2*groups+1)
		for a := 1; a <= fanout; a++ {
			r.MustAdd(tuple.Ints(int64(h), int64(a)), base)
			for b := 0; b < 2; b++ {
				s.MustAdd(tuple.Ints(int64(h), int64(a), int64(b)), 0.2)
			}
		}
	}
	db.AddRelation(r)
	db.AddRelation(s)
	return db
}

// gridGroupsDB is the entangled variant: answer h's lineage is the grid
// ∨_{a,b} r_ha · s_hab · t_hb, where every r is shared across the b's and
// every t across the a's — provably not read-once, so dissociation yields a
// genuine [lo, hi] interval. Probabilities come in bands of four (every
// band shares one R base probability), so the k-th boundary falls in a real
// gap while answers inside a band are near-tied.
func gridGroupsDB(groups, fanout int) *relation.Database {
	db := relation.NewDatabase()
	r := relation.New("R", "h", "a")
	s := relation.New("S", "h", "a", "b")
	tt := relation.New("T", "h", "b")
	for h := 1; h <= groups; h++ {
		band := 1 + (h-1)/4
		base := float64(band) / float64(groups/4+2)
		for b := 0; b < 2; b++ {
			tt.MustAdd(tuple.Ints(int64(h), int64(b)), 0.7)
		}
		for a := 1; a <= fanout; a++ {
			r.MustAdd(tuple.Ints(int64(h), int64(a)), base)
			for b := 0; b < 2; b++ {
				s.MustAdd(tuple.Ints(int64(h), int64(a), int64(b)), 0.15)
			}
		}
	}
	db.AddRelation(r)
	db.AddRelation(s)
	db.AddRelation(tt)
	return db
}

func topkWorkloads(sc Scale) []topkWorkload {
	groups, fanout := sc.TopkGroups, sc.TopkFanout
	return []topkWorkload{
		{"readonce-groups", readOnceGroupsDB(groups, fanout),
			query.MustParse("q(h) :- R(h, a), S(h, a, b)"), 5},
		// k = 4 aligns the boundary with the gap below the top band.
		{"grid-groups", gridGroupsDB(groups, fanout),
			query.MustParse("q(h) :- R(h, a), S(h, a, b), T(h, b)"), 4},
	}
}

// TopkBench measures dissociation-seeded top-k against cold multisimulation:
// best-of-three interleaved wall clocks per mode on each workload, plus the
// sampling effort both modes spent. The correctness cross-check (identical
// top-k sets) runs inline — a benchmark whose two modes disagree reports an
// error instead of a timing.
func TopkBench(sc Scale) (*TopkReport, error) {
	rep := &TopkReport{}
	for _, wl := range topkWorkloads(sc) {
		pt := TopkPoint{Workload: wl.name, K: wl.k}
		plan, err := query.LeftDeepPlan(wl.q, query.BodyOrder(wl.q))
		if err != nil {
			return nil, fmt.Errorf("experiments: topk %s: %w", wl.name, err)
		}
		g, err := engine.Ground(wl.db, wl.q, plan)
		if err != nil {
			return nil, fmt.Errorf("experiments: topk %s: %w", wl.name, err)
		}
		pt.Answers = len(g.Answers)
		run := func(cold bool) (time.Duration, *topk.Result, error) {
			opts := topk.Options{
				K:                wl.k,
				Seed:             1,
				ExactClauseLimit: 1, // force the anytime machinery: no exact shortcut
				NoSeedBounds:     cold,
			}
			start := time.Now()
			res, err := topk.FromGrounding(context.Background(), g, opts)
			return time.Since(start), res, err
		}
		var seeded, cold *topk.Result
		for i := 0; i < 3; i++ {
			dc, rc, err := run(true)
			if err != nil {
				pt.Err = err.Error()
				break
			}
			ds, rs, err := run(false)
			if err != nil {
				pt.Err = err.Error()
				break
			}
			if i == 0 || dc.Nanoseconds() < pt.ColdNs {
				pt.ColdNs, cold = dc.Nanoseconds(), rc
			}
			if i == 0 || ds.Nanoseconds() < pt.SeededNs {
				pt.SeededNs, seeded = ds.Nanoseconds(), rs
			}
		}
		if pt.Err == "" {
			if err := sameTopSet(seeded, cold); err != nil {
				pt.Err = err.Error()
			} else {
				pt.Speedup = float64(pt.ColdNs) / float64(pt.SeededNs)
				pt.ColdSamples, pt.ColdRounds = totalSamples(cold), cold.Rounds
				pt.SeededSamples, pt.SeededRounds = totalSamples(seeded), seeded.Rounds
				pt.SeededExact = seeded.SeededExact
			}
		}
		rep.Points = append(rep.Points, pt)
	}
	return rep, nil
}

// sameTopSet checks the two modes chose the same answer set (order-free:
// near-ties may legitimately swap ranks inside the set).
func sameTopSet(a, b *topk.Result) error {
	if len(a.Top) != len(b.Top) {
		return fmt.Errorf("seeded returned %d answers, cold %d", len(a.Top), len(b.Top))
	}
	seen := make(map[string]bool, len(a.Top))
	for _, ans := range a.Top {
		seen[ans.Vals.Key()] = true
	}
	for _, ans := range b.Top {
		if !seen[ans.Vals.Key()] {
			return fmt.Errorf("cold answer %v not in seeded top-k", ans.Vals)
		}
	}
	return nil
}

func totalSamples(res *topk.Result) int {
	n := 0
	for _, a := range res.All {
		n += a.Samples
	}
	return n
}

// WriteTopkJSON writes the report as indented, HTML-unescaped JSON.
func WriteTopkJSON(w io.Writer, rep *TopkReport) error {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(rep); err != nil {
		return err
	}
	_, err := io.WriteString(w, b.String())
	return err
}
