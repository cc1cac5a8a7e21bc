package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/core"
)

// Span is one operator (or detail sub-span) in a query trace, with its
// children reattached. The measurement fields mirror core.OpStat: Rows is
// the output cardinality, RowsIn the input cardinality, NetworkGrowth the
// AND-OR nodes this span itself added (children excluded), Time the span's
// own wall time (children excluded).
type Span struct {
	Op            string        `json:"op"`
	Kind          string        `json:"kind,omitempty"`
	Rows          int           `json:"rows"`
	RowsIn        int           `json:"rows_in,omitempty"`
	Conditioned   int           `json:"conditioned,omitempty"`
	NetworkGrowth int           `json:"network_growth,omitempty"`
	Time          time.Duration `json:"time_ns"`
	Detail        string        `json:"detail,omitempty"`
	Children      []*Span       `json:"children,omitempty"`
}

// Trace is the hierarchical execution trace of one evaluation: the header
// fields summarize the whole query (mirroring core.Stats), Roots holds the
// reconstructed operator forest — typically the plan's root operator
// followed by the inference aggregate, or a grounding span for the lineage
// strategies.
type Trace struct {
	Query           string        `json:"query,omitempty"`
	Strategy        string        `json:"strategy"`
	Answers         int           `json:"answers"`
	OffendingTuples int           `json:"offending_tuples"`
	NetworkNodes    int           `json:"network_nodes,omitempty"`
	NetworkEdges    int           `json:"network_edges,omitempty"`
	LineageClauses  int           `json:"lineage_clauses,omitempty"`
	LineageVars     int           `json:"lineage_vars,omitempty"`
	Approximate     bool          `json:"approximate"`
	FallbackReason  string        `json:"fallback_reason,omitempty"`
	PlanSource      string        `json:"plan_source,omitempty"`
	PlanOrder       string        `json:"plan_order,omitempty"`
	PlanEstOffend   int           `json:"plan_est_offending,omitempty"`
	PlanCandidates  int           `json:"plan_candidates,omitempty"`
	PlanCache       string        `json:"plan_cache,omitempty"`
	PredictionMiss  int           `json:"backend_prediction_misses,omitempty"`
	RowsCharged     int64         `json:"rows_charged"`
	NodesCharged    int64         `json:"nodes_charged"`
	PlanTime        time.Duration `json:"plan_time_ns"`
	InferenceTime   time.Duration `json:"inference_time_ns"`
	Roots           []*Span       `json:"operators"`
}

// BuildTrace reconstructs the operator tree of one evaluation from its
// statistics. Stats.Operators is a flat post-order list (children recorded
// before their parent) whose Depth field gives each span's nesting level;
// the tree falls out of one pass with a pending stack: a span at depth d
// adopts the maximal run of already-built spans deeper than d as its
// children. Spans left at the end are the roots, in recorded order.
//
// query is the source text of the query (empty is fine); it only decorates
// the rendered header. BuildTrace never returns nil — an untraced
// evaluation yields a Trace with header fields filled and no Roots.
func BuildTrace(query string, s core.Stats) *Trace {
	t := &Trace{
		Query:           query,
		Strategy:        s.Strategy.String(),
		Answers:         s.Answers,
		OffendingTuples: s.OffendingTuples,
		NetworkNodes:    s.NetworkNodes,
		NetworkEdges:    s.NetworkEdges,
		LineageClauses:  s.LineageClauses,
		LineageVars:     s.LineageVars,
		Approximate:     s.Approximate,
		FallbackReason:  s.FallbackReason,
		PlanSource:      s.PlanSource,
		PlanOrder:       s.PlanOrder,
		PlanEstOffend:   s.PlanEstOffending,
		PlanCandidates:  s.PlanCandidates,
		PlanCache:       s.PlanCache,
		PredictionMiss:  s.BackendPredictionMisses,
		RowsCharged:     s.RowsCharged,
		NodesCharged:    s.NodesCharged,
		PlanTime:        s.PlanTime,
		InferenceTime:   s.InferenceTime,
	}
	type entry struct {
		span  *Span
		depth int
	}
	var pending []entry
	for _, op := range s.Operators {
		sp := &Span{
			Op:            op.Op,
			Kind:          op.Kind,
			Rows:          op.Rows,
			RowsIn:        op.RowsIn,
			Conditioned:   op.Conditioned,
			NetworkGrowth: op.NetworkGrowth,
			Time:          op.Time,
			Detail:        op.Detail,
		}
		// Adopt the trailing run of deeper spans as children, preserving
		// their recorded order.
		first := len(pending)
		for first > 0 && pending[first-1].depth > op.Depth {
			first--
		}
		for _, e := range pending[first:] {
			sp.Children = append(sp.Children, e.span)
		}
		pending = append(pending[:first], entry{sp, op.Depth})
	}
	for _, e := range pending {
		t.Roots = append(t.Roots, e.span)
	}
	return t
}

// WriteTree renders the trace in EXPLAIN ANALYZE style: a header block
// summarizing the evaluation, then the operator forest drawn with box
// characters. Every line a golden test could compare is deterministic given
// deterministic Stats (wall times are printed as recorded, so mask or fix
// them when comparing).
func (t *Trace) WriteTree(w io.Writer) error {
	var b strings.Builder
	if t.Query != "" {
		fmt.Fprintf(&b, "query: %s\n", t.Query)
	}
	fmt.Fprintf(&b, "strategy: %s   answers: %d   offending tuples: %d\n",
		t.Strategy, t.Answers, t.OffendingTuples)
	if t.PlanSource != "" {
		fmt.Fprintf(&b, "plan: %s", t.PlanSource)
		if t.PlanOrder != "" {
			fmt.Fprintf(&b, " [%s]", t.PlanOrder)
		}
		if t.PlanCandidates > 0 {
			fmt.Fprintf(&b, " (est offending %d, %d candidates)", t.PlanEstOffend, t.PlanCandidates)
		}
		if t.PlanCache != "" {
			fmt.Fprintf(&b, "   plan cache: %s", t.PlanCache)
		}
		b.WriteByte('\n')
	}
	if t.NetworkNodes > 0 || t.NetworkEdges > 0 {
		fmt.Fprintf(&b, "network: %d nodes, %d edges\n", t.NetworkNodes, t.NetworkEdges)
	}
	if t.LineageClauses > 0 || t.LineageVars > 0 {
		fmt.Fprintf(&b, "lineage: %d clauses over %d variables\n", t.LineageClauses, t.LineageVars)
	}
	fmt.Fprintf(&b, "charged: %d rows, %d network nodes\n", t.RowsCharged, t.NodesCharged)
	fmt.Fprintf(&b, "plan time: %s   inference time: %s\n",
		fmtDur(t.PlanTime), fmtDur(t.InferenceTime))
	if t.Approximate {
		reason := t.FallbackReason
		if reason == "" {
			reason = "sampling fallback"
		}
		fmt.Fprintf(&b, "approximate: %s\n", reason)
	} else {
		b.WriteString("exact\n")
	}
	if len(t.Roots) == 0 {
		b.WriteString("(no operator trace recorded — evaluate with tracing enabled)\n")
	}
	for i, root := range t.Roots {
		writeSpan(&b, root, "", i == len(t.Roots)-1)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSpan(b *strings.Builder, s *Span, prefix string, last bool) {
	branch, childPrefix := "├─ ", prefix+"│  "
	if last {
		branch, childPrefix = "└─ ", prefix+"   "
	}
	b.WriteString(prefix)
	b.WriteString(branch)
	b.WriteString(s.Op)
	var parts []string
	if s.RowsIn > 0 {
		parts = append(parts, fmt.Sprintf("rows=%d (in %d)", s.Rows, s.RowsIn))
	} else {
		parts = append(parts, fmt.Sprintf("rows=%d", s.Rows))
	}
	if s.Conditioned > 0 {
		parts = append(parts, fmt.Sprintf("conditioned=%d", s.Conditioned))
	}
	if s.NetworkGrowth != 0 {
		parts = append(parts, fmt.Sprintf("nodes=%+d", s.NetworkGrowth))
	}
	parts = append(parts, "time="+fmtDur(s.Time))
	fmt.Fprintf(b, "  [%s]", strings.Join(parts, " "))
	if s.Detail != "" {
		fmt.Fprintf(b, "  — %s", s.Detail)
	}
	b.WriteByte('\n')
	for i, c := range s.Children {
		writeSpan(b, c, childPrefix, i == len(s.Children)-1)
	}
}

// fmtDur renders a duration compactly and stably: microsecond precision up
// to a second, millisecond precision beyond, so re-rendering the same
// recorded trace always produces the same bytes.
func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0s"
	case d < time.Second:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

// WriteJSON emits the trace as indented JSON (durations in nanoseconds, as
// the _ns field names advertise). The encoding is deterministic: field
// order is fixed by the struct definitions and empty sections are omitted.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(t)
}
