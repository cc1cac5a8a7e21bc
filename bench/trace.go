package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"
)

// allocReader reads the process-wide heap allocation counters without
// stopping the world. Objects equals runtime.MemStats.Mallocs (tracked
// allocations plus tiny-allocator blocks), bytes equals TotalAlloc. The
// sample buffer lives in the reader so that reading allocates nothing.
type allocReader struct {
	s [4]metrics.Sample
}

func newAllocReader() *allocReader {
	r := &allocReader{}
	r.s[0].Name = "/gc/heap/allocs:objects"
	r.s[1].Name = "/gc/heap/tiny/allocs:objects"
	r.s[2].Name = "/gc/heap/allocs:bytes"
	r.s[3].Name = "/gc/cycles/total:gc-cycles"
	return r
}

func (r *allocReader) read() (objects, bytes, gcCycles uint64) {
	metrics.Read(r.s[:])
	return r.s[0].Value.Uint64() + r.s[1].Value.Uint64(), r.s[2].Value.Uint64(), r.s[3].Value.Uint64()
}

// span is one timed call into a layer: the choosing-metrics record of name,
// start, end and the span that caused it. Spans of one operation share Op.
// Allocs is the heap objects allocated between start and end, recorded only
// by single-goroutine passes, where the process-wide counter is attributable.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs,omitempty"`
}

// tracer keeps the spans of one goroutine in memory; concurrent passes give
// every goroutine its own tracer and merge them afterwards.
type tracer struct {
	t0     time.Time
	spans  []span
	allocs *allocReader // nil: do not count allocations
}

func newTracer(t0 time.Time, countAllocs bool) *tracer {
	t := &tracer{t0: t0}
	if countAllocs {
		t.allocs = newAllocReader()
	}
	return t
}

// begin opens a span under parent (-1 for a root) and returns its id. The
// clock is read last so that the bookkeeping stays outside the span.
func (t *tracer) begin(name string, op, parent int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent})
	if t.allocs != nil {
		t.spans[id].Allocs, _, _ = t.allocs.read()
	}
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

// end closes the span; the clock is read first.
func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	s := &t.spans[id]
	s.End = now
	if t.allocs != nil {
		o, _, _ := t.allocs.read()
		s.Allocs = o - s.Allocs
	}
}

// rename relabels a span whose kind is only known once it has ended (a
// served request is a hit or a miss only after its body is decoded).
func (t *tracer) rename(id int, name string) { t.spans[id].Name = name }

func (t *tracer) dur(id int) time.Duration {
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// merge appends other's spans, renumbering them past t's own.
func (t *tracer) merge(other *tracer) {
	off := len(t.spans)
	for _, s := range other.spans {
		s.ID += off
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// selfSince sums, per span name, the self time and self allocations of the
// spans recorded since index from: a span's own figure minus its children's.
func (t *tracer) selfSince(from int) (ns map[string]float64, allocs map[string]float64) {
	ns, allocs = map[string]float64{}, map[string]float64{}
	for _, s := range t.spans[from:] {
		ns[s.Name] += float64(s.End - s.Start)
		allocs[s.Name] += float64(s.Allocs)
		if s.Parent >= from {
			p := t.spans[s.Parent]
			ns[p.Name] -= float64(s.End - s.Start)
			allocs[p.Name] -= float64(s.Allocs)
		}
	}
	return ns, allocs
}

// write stores the spans as one JSON document, creating the directory.
func (t *tracer) write(path, workload string, seed int64) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// samples collects per-operation values by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// median returns the middle value of name's samples, 0 when there are none.
func (s samples) median(name string) float64 { return quantile(s[name], 0.5) }

// quantile returns the nearest-rank q-quantile of vs (0 when empty); vs is
// sorted in place.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	i := int(q * float64(len(vs)))
	if i >= len(vs) {
		i = len(vs) - 1
	}
	return vs[i]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
