package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lineage"
	"repro/internal/relation"
	"repro/internal/server"
	gen "repro/internal/workload"
	"repro/pdb"
)

// zipf serves a Fig. 5-shaped database with many groups over real loopback
// HTTP and sends it a closed loop of POST /query requests drawn by a seeded
// Zipf over 2000 keys, on one keep-alive connection: the benchmark runs on one
// processor (runWorkload says why). The response cache holds 256 entries, so
// about seven requests in ten are cache hits and the rest parse, plan and scan
// 10 000-row relations. An operation is one request.
type zipf struct {
	cfg  config
	rdb  *relation.Database
	db   *pdb.Database
	srv  *server.Server
	ts   *httptest.Server
	keys []zipfKey
	// rank maps a Zipf draw (0 = most popular) to a key, through a seeded
	// permutation, so that popularity is spread over groups and shapes.
	rank []int
	// requests is every request the run has sent, kept for the checks that
	// need the whole window; stream counts the request streams started, so
	// that no two passes draw the same sequence.
	requests []request
	stream   int64
	client   *http.Client

	replayCache, engineCache *lineage.CircuitCache
}

// zipfKey is one distinct request: a Table 1 shape with the group as a
// constant, Boolean or grouped by x.
type zipfKey struct {
	text string
	body []byte
}

// request is what one sent request came back with.
type request struct {
	key int
	// lat is the time from sending to the last byte of the body; disturbed is
	// how far from quiet the probes around the request's batch found the core.
	lat       time.Duration
	disturbed float64
	status    int
	cached    bool
	bytes     int
	// sig fingerprints the rows and bool_p of a 200 body, bit for bit.
	sig uint64
	err string
}

const (
	zipfS       = 1.05
	zipfWarmups = 2000
	// zipfBatch requests lie between two probes of the core (quiet.go): some
	// 6 ms of requests to 45 µs of probe.
	zipfBatch = 8
	// Keys per cache entry: 2000 keys against 256 entries.
	zipfKeysPerEntry = 2000.0 / 256
)

func (z *zipf) setup(ctx context.Context, cfg config) (err error) {
	z.cfg = cfg
	p := gen.Params{N: cfg.scaled(200, 4), M: 50, Fanout: 4, RF: 0.05, RD: 1, Seed: cfg.seed}
	z.rdb = genAll(p)
	if z.db, err = load(z.rdb); err != nil {
		return err
	}
	z.keys = z.keys[:0]
	for g := 1; g <= p.N; g++ {
		for _, s := range table1 {
			// "q(h) :- R1(h, x), ..." with the group as a constant.
			body := strings.ReplaceAll(strings.SplitN(s.QueryText, " :- ", 2)[1], "(h, ", fmt.Sprintf("(%d, ", g))
			for _, head := range []string{"q", "q(x)"} {
				text := head + " :- " + body
				req, err := json.Marshal(server.QueryRequest{Query: text})
				if err != nil {
					return err
				}
				z.keys = append(z.keys, zipfKey{text: text, body: req})
			}
		}
	}
	z.rank = rand.New(rand.NewSource(cfg.seed)).Perm(len(z.keys))
	entries := int(float64(len(z.keys)) / zipfKeysPerEntry)
	if z.srv, err = server.New(server.Config{DB: z.db, CacheEntries: max(entries, 1)}); err != nil {
		return err
	}
	z.ts = httptest.NewServer(z.srv)
	z.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	z.replayCache, z.engineCache = freshCache(), freshCache()
	z.requests, z.stream = nil, 0

	warm := z.send(ctx, 0, cfg.scaled(zipfWarmups, 20), nil)
	for _, r := range warm {
		if r.err != "" || r.status != http.StatusOK {
			return fmt.Errorf("warm-up request for %q: status %d %s", z.keys[r.key].text, r.status, r.err)
		}
	}
	return nil
}

// send runs the closed loop on the one connection: it draws keys from a
// seeded Zipf stream and posts them one after the other, until seconds have
// passed or, when count > 0, until count requests have been sent. With a
// tracer it records one span per request. Between batches of zipfBatch
// requests it probes the core.
func (z *zipf) send(ctx context.Context, seconds float64, count int, tr *tracer) []request {
	url := z.ts.URL + "/query"
	z.stream++
	rng := rand.New(rand.NewSource(z.cfg.seed*1_000_003 + z.stream))
	draw := rand.NewZipf(rng, zipfS, 1, uint64(len(z.keys)-1))

	var rs []request
	g := newGate()
	// The open batch: its leading probe and its first request.
	before, first := g.probe(), 0
	var flanks [][2]int
	closeBatch := func() {
		after := g.probe()
		for range rs[first:] {
			flanks = append(flanks, [2]int{before, after})
		}
		before, first = after, len(rs)
	}
	start := time.Now()
	for n := 0; count > 0 && n < count || count == 0 && (n == 0 || time.Since(start).Seconds() < seconds); n++ {
		if n > 0 && n%zipfBatch == 0 {
			closeBatch()
		}
		r := request{key: z.rank[draw.Uint64()]}
		span := -1
		if tr != nil {
			span = tr.begin("server.request", len(rs), -1)
		}
		t0 := time.Now()
		body, status, err := post(ctx, z.client, url, z.keys[r.key].body)
		r.lat = time.Since(t0)
		if span >= 0 {
			tr.end(span)
		}
		r.status, r.bytes = status, len(body)
		switch {
		case err != nil:
			r.err = err.Error()
		case status == http.StatusOK:
			r.cached, r.sig, err = readResponse(body)
			if err != nil {
				r.err = err.Error()
			}
		}
		if span >= 0 && r.err == "" && status == http.StatusOK {
			tr.rename(span, map[bool]string{true: "server.hit", false: "server.miss"}[r.cached])
		}
		rs = append(rs, r)
	}
	closeBatch()
	d := g.disturbance()
	for k, f := range flanks {
		rs[k].disturbed = between(d, f[0], f[1])
	}
	return rs
}

func post(ctx context.Context, client *http.Client, url string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

// readResponse decodes the part of a 200 body the checks need.
func readResponse(body []byte) (cached bool, sig uint64, err error) {
	var r struct {
		Rows []struct {
			Vals []string `json:"vals"`
			P    float64  `json:"p"`
		} `json:"rows"`
		BoolP       *float64 `json:"bool_p"`
		Cached      bool     `json:"cached"`
		Approximate bool     `json:"approximate"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return false, 0, err
	}
	if r.Approximate {
		return false, 0, fmt.Errorf("approximate answer")
	}
	s := newSignature()
	for _, row := range r.Rows {
		s.row(row.Vals, row.P)
	}
	s.boolP(r.BoolP)
	return r.Cached, s.sum(), nil
}

// signature hashes an answer set in row order: values as the server renders
// them, probabilities by their bits.
type signature struct{ h hash.Hash64 }

func newSignature() signature { return signature{h: fnv.New64a()} }

func (s signature) float(p float64) {
	s.h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(p)))
}

func (s signature) row(vals []string, p float64) {
	for _, v := range vals {
		io.WriteString(s.h, v)
		s.h.Write([]byte{0})
	}
	s.float(p)
}

func (s signature) boolP(p *float64) {
	if p != nil {
		s.h.Write([]byte{1})
		s.float(*p)
	}
}

func (s signature) sum() uint64 { return s.h.Sum64() }

// direct evaluates a key's query on the database without the server and
// fingerprints the answer the way readResponse fingerprints a body.
func (z *zipf) direct(ctx context.Context, key int) (uint64, time.Duration, error) {
	q, err := pdb.ParseQuery(z.keys[key].text)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	res, err := exact(ctx, z.db, q, pdb.PartialLineage)
	d := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	s := newSignature()
	for _, row := range res.Rows {
		vals := make([]string, len(row.Vals))
		for i, v := range row.Vals {
			vals[i] = v.String()
		}
		s.row(vals, row.P)
	}
	if len(res.Attrs) == 0 {
		p := res.BoolProb()
		s.boolP(&p)
	}
	return s.sum(), d, nil
}

// record folds a pass's requests into its window: every request is an
// operation, anything but a well-formed 200 a failed one.
func (z *zipf) record(w *window, rs []request) {
	for _, r := range rs {
		w.attempted++
		if r.err != "" || r.status != http.StatusOK {
			w.fail("request for %q: status %d %s", z.keys[r.key].text, r.status, r.err)
			continue
		}
		w.lat = append(w.lat, r.lat)
		w.disturbed = append(w.disturbed, r.disturbed)
	}
	z.requests = append(z.requests, rs...)
}

func (z *zipf) run(ctx context.Context, w *window) {
	mem := newAllocReader()
	o0, b0, _ := mem.read()
	start := time.Now()
	rs := z.send(ctx, w.seconds, 0, nil)
	w.wall = time.Since(start)
	o1, b1, _ := mem.read()
	w.objects, w.bytes = o1-o0, b1-b0
	z.record(w, rs)
}

func (z *zipf) traced(ctx context.Context, w *window, tr *tracer, acc samples, firstOp int) error {
	// The request spans go to a tracer that does not count allocations: the
	// server's goroutines allocate beside the connection's.
	reqs := newTracer(tr.t0, false)
	start := time.Now()
	rs := z.send(ctx, w.seconds, 0, reqs)
	w.wall = time.Since(start)
	z.record(w, rs)
	tr.merge(reqs)

	var hits, misses, all []float64
	var bytes, rejected float64
	for _, r := range rs {
		if r.status == http.StatusServiceUnavailable {
			rejected++
		}
		if r.err != "" || r.status != http.StatusOK {
			continue
		}
		all = append(all, ms(r.lat))
		bytes += float64(r.bytes)
		acc.add("trace.op_ms", ms(r.lat))
		if r.cached {
			hits = append(hits, us(r.lat))
		} else {
			misses = append(misses, ms(r.lat))
		}
	}
	if len(all) == 0 {
		return fmt.Errorf("traced pass: no request succeeded")
	}
	acc.add("server.hit_ratio", float64(len(hits))/float64(len(all)))
	acc.add("server.hit_p50_us", quantile(hits, 0.5))
	acc.add("server.miss_p50_ms", quantile(misses, 0.5))
	acc.add("server.p99_ms", quantile(all, 0.99))
	acc.add("server.resp_bytes", bytes/float64(len(all)))
	acc.add("server.rejected", rejected)

	probes := z.cfg.scaled(100, 5)
	if err := z.probeHandler(ctx, acc, 2*probes); err != nil {
		return err
	}
	acc.add("server.http_overhead_us", acc.median("server.hit_p50_us")-acc.median("server.handler_hit_us"))
	if err := z.probeMissOverhead(ctx, acc, probes); err != nil {
		return err
	}

	// The miss path layer by layer: replay a Zipf sample of the keys in
	// process. The engine may route a single-answer lineage to another exact
	// backend than the replay's circuit, so answers are compared but the
	// time-drift check is left to the two library workloads.
	l := &layered{ctx: ctx, tr: tr}
	z.stream++
	draw := rand.NewZipf(rand.New(rand.NewSource(z.cfg.seed*1_000_003+z.stream)), zipfS, 1, uint64(len(z.keys)-1))
	for i := 0; i < probes; i++ {
		text := z.keys[z.rank[draw.Uint64()]].text
		err := tracedOp(tr, acc, firstOp+len(rs)+i, func(root int, c *counts) error {
			_, err := l.eval(firstOp+len(rs)+i, root, z.rdb, z.db, text, core.PartialLineage, z.replayCache, z.engineCache, c)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// serveInProcess hands one request to the server's handler without a socket.
func serveInProcess(ctx context.Context, h http.Handler, body []byte) (time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(t0)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("in-process request: status %d: %s", rec.Code, rec.Body)
	}
	return d, nil
}

// probeHandler times the handler alone on a cached key: what a hit costs
// without loopback HTTP.
func (z *zipf) probeHandler(ctx context.Context, acc samples, n int) error {
	hot := z.keys[z.rank[0]].body
	if _, err := serveInProcess(ctx, z.srv, hot); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		d, err := serveInProcess(ctx, z.srv, hot)
		if err != nil {
			return err
		}
		acc.add("server.handler_hit_us", us(d))
	}
	return nil
}

// probeMissOverhead times the handler on keys a fresh server over the same
// database has never seen, against evaluating the same query directly: the
// difference is JSON decode, admission, the cache insert and the encode.
func (z *zipf) probeMissOverhead(ctx context.Context, acc samples, n int) error {
	cold, err := server.New(server.Config{DB: z.db, CacheEntries: n})
	if err != nil {
		return err
	}
	for i := 0; i < n && i < len(z.keys); i++ {
		key := z.rank[len(z.rank)-1-i]
		// Evaluate once first, so that both timed evaluations find the
		// database's circuit cache in the same state.
		if _, _, err := z.direct(ctx, key); err != nil {
			return err
		}
		served, err := serveInProcess(ctx, cold, z.keys[key].body)
		if err != nil {
			return err
		}
		_, direct, err := z.direct(ctx, key)
		if err != nil {
			return err
		}
		acc.add("server.miss_overhead_us", us(served-direct))
	}
	return nil
}

// finish checks every 200 body of the run against a direct evaluation of its
// key: cached or not, the rows and bool_p must be the reference's bit for bit.
func (z *zipf) finish(ctx context.Context, w *window) {
	byKey := map[int][]request{}
	for _, r := range z.requests {
		if r.err == "" && r.status == http.StatusOK {
			byKey[r.key] = append(byKey[r.key], r)
		}
	}
	keys := make(chan int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ { // checking, not load: use every processor
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range keys {
				want, _, err := z.direct(ctx, key)
				mu.Lock()
				for _, r := range byKey[key] {
					switch {
					case err != nil:
						w.fail("reference for %q: %v", z.keys[key].text, err)
					case r.sig != want:
						w.fail("response for %q (cached=%v) differs from the direct evaluation", z.keys[key].text, r.cached)
					}
				}
				mu.Unlock()
			}
		}()
	}
	for key := range byKey {
		keys <- key
	}
	close(keys)
	wg.Wait()
}

func (z *zipf) close() {
	if z.ts == nil {
		return
	}
	z.client.CloseIdleConnections()
	z.ts.Close()
	z.ts = nil
}
