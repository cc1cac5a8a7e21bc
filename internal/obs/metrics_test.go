package obs

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// feed populates a fresh registry with a deterministic mix of outcomes:
// successes across three strategies, one of them approximate, plus one of
// each classified failure.
func feed(r *Registry) {
	r.ObserveQuery(QueryObservation{
		Strategy: core.PartialLineage,
		Duration: 800 * time.Microsecond,
		Stats: &core.Stats{Answers: 3, OffendingTuples: 2, RowsCharged: 23, NodesCharged: 5,
			MemoHits: 12, MemoMisses: 30, MemoEvictions: 1, ConsHits: 4,
			CircuitCompiles: 2, CircuitHits: 5, CircuitEvals: 7,
			SpilledPartitions: 3, SpillBytes: 4096,
			PlanSource: "greedy", PlanCache: "miss"},
	})
	r.ObserveQuery(QueryObservation{
		Strategy: core.PartialLineage,
		Duration: 40 * time.Millisecond,
		Stats: &core.Stats{Answers: 1, Approximate: true, RowsCharged: 100, NodesCharged: 60,
			PlanSource: "greedy", PlanCache: "plan"},
	})
	r.ObserveQuery(QueryObservation{
		Strategy: core.DNFLineage,
		Duration: 3 * time.Millisecond,
		Stats:    &core.Stats{Answers: 2, RowsCharged: 7, PlanSource: "greedy", PlanCache: "stats"},
	})
	r.ObserveQuery(QueryObservation{
		Strategy: core.MonteCarlo,
		Duration: 12 * time.Second, // beyond the last bucket: +Inf only
		Stats:    &core.Stats{Answers: 1, Approximate: true},
	})
	r.ObserveQuery(QueryObservation{Strategy: core.PartialLineage, Duration: time.Millisecond,
		Err: fmt.Errorf("wrap: %w", core.ErrRowBudget)})
	r.ObserveQuery(QueryObservation{Strategy: core.FullNetwork, Duration: time.Millisecond,
		Err: fmt.Errorf("wrap: %w", core.ErrNodeBudget)})
	r.ObserveQuery(QueryObservation{Strategy: core.DNFLineage, Duration: time.Second,
		Err: context.DeadlineExceeded})
	r.ObserveQuery(QueryObservation{Strategy: core.SafePlanOnly, Duration: time.Millisecond,
		Err: context.Canceled})

	// Server-side observations: two admitted requests (one still in flight,
	// one completed), a queued request, a shed request and a degradation.
	r.ServerRequest("/query")
	r.ServerRequest("/query")
	r.ServerRequest("/healthz")
	r.ServerInFlightAdd(2)
	r.ServerInFlightAdd(-1)
	r.ServerQueuedAdd(1)
	r.ServerResponse("/query", 200, 7*time.Millisecond)
	r.ServerResponse("/healthz", 200, 100*time.Microsecond)
	r.ServerResponse("/query", 504, 2*time.Second)
	r.ServerRejected("overload")
	r.ServerRejected("shutdown")
	r.ServerDegraded()
	r.ServerPanic()

	// Result-cache observations: a miss then two hits, one LRU eviction, and
	// the cache's current size gauges.
	r.ServerCacheMiss()
	r.ServerCacheHit()
	r.ServerCacheHit()
	r.ServerCacheEviction()
	r.ServerCacheSize(3, 2048)
}

func TestWritePromGolden(t *testing.T) {
	r := &Registry{}
	feed(r)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "prom.golden", buf.Bytes())
}

func TestWritePromDeterministic(t *testing.T) {
	render := func() string {
		r := &Registry{}
		feed(r)
		var buf bytes.Buffer
		if err := r.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("WriteProm is not deterministic:\n%s\nvs\n%s", first, got)
		}
	}
}

func TestWritePromEmptyRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Registry{}).WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range MetricNames() {
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Errorf("empty scrape missing family %s", name)
		}
	}
}

func TestMetricNamesMatchExposition(t *testing.T) {
	r := &Registry{}
	feed(r)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	declared := make(map[string]bool)
	for _, name := range MetricNames() {
		declared[name] = true
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Errorf("MetricNames lists %s but WriteProm never emits it", name)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name := strings.Fields(line)[2]
		if !declared[name] {
			t.Errorf("WriteProm emits family %s missing from MetricNames", name)
		}
	}
}

func TestErrorClassification(t *testing.T) {
	r := &Registry{}
	feed(r)
	if got := r.budgetExhausted["rows"]; got != 1 {
		t.Errorf("rows budget count = %d, want 1", got)
	}
	if got := r.budgetExhausted["nodes"]; got != 1 {
		t.Errorf("nodes budget count = %d, want 1", got)
	}
	if got := r.budgetExhausted["time"]; got != 1 {
		t.Errorf("time budget count = %d, want 1", got)
	}
	if r.cancellations != 1 {
		t.Errorf("cancellations = %d, want 1", r.cancellations)
	}
	if got := r.errors["partial"] + r.errors["network"] + r.errors["dnf"] + r.errors["safe"]; got != 4 {
		t.Errorf("total errors = %d, want 4", got)
	}
	if r.inferenceFallbacks != 2 {
		t.Errorf("fallbacks = %d, want 2", r.inferenceFallbacks)
	}
}

func TestServerMetrics(t *testing.T) {
	r := &Registry{}
	feed(r)
	if r.serverInFlight != 1 {
		t.Errorf("in-flight gauge = %d, want 1", r.serverInFlight)
	}
	if r.serverQueued != 1 {
		t.Errorf("queued gauge = %d, want 1", r.serverQueued)
	}
	if got := r.serverRequests["/query"]; got != 2 {
		t.Errorf("/query requests = %d, want 2", got)
	}
	if got := r.serverResponses["200"]; got != 2 {
		t.Errorf("200 responses = %d, want 2", got)
	}
	if got := r.serverResponses["504"]; got != 1 {
		t.Errorf("504 responses = %d, want 1", got)
	}
	if got := r.serverRejected["overload"] + r.serverRejected["shutdown"]; got != 2 {
		t.Errorf("rejected = %d, want 2", got)
	}
	if r.serverDegraded != 1 {
		t.Errorf("degraded = %d, want 1", r.serverDegraded)
	}
	if h := r.serverDurations["/query"]; h == nil || h.total != 2 {
		t.Errorf("/query histogram = %+v, want 2 observations", h)
	}
}

func TestCacheAndMemoMetrics(t *testing.T) {
	r := &Registry{}
	feed(r)
	if r.memoHits != 12 || r.memoMisses != 30 || r.memoEvictions != 1 {
		t.Errorf("memo counters = %d/%d/%d, want 12/30/1", r.memoHits, r.memoMisses, r.memoEvictions)
	}
	if r.consHits != 4 {
		t.Errorf("cons hits = %d, want 4", r.consHits)
	}
	if r.serverCacheHits != 2 || r.serverCacheMisses != 1 || r.serverCacheEvictions != 1 {
		t.Errorf("cache counters = %d/%d/%d, want 2/1/1",
			r.serverCacheHits, r.serverCacheMisses, r.serverCacheEvictions)
	}
	if r.serverCacheEntries != 3 || r.serverCacheBytes != 2048 {
		t.Errorf("cache gauges = %d entries / %d bytes, want 3 / 2048", r.serverCacheEntries, r.serverCacheBytes)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := &histogram{}
	h.observe(0.0009) // below first bound
	h.observe(0.001)  // exactly a bound counts in that bucket
	h.observe(11)     // beyond the last bound: +Inf slot
	if h.counts[0] != 2 {
		t.Errorf("first bucket = %d, want 2", h.counts[0])
	}
	if h.counts[len(h.counts)-1] != 1 {
		t.Errorf("+Inf bucket = %d, want 1", h.counts[len(h.counts)-1])
	}
	if h.total != 3 {
		t.Errorf("total = %d, want 3", h.total)
	}
}
