package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/pdb"
)

// triangleDB is the paper's running instance: R(x), S(x,y), T(y) with seven
// uncertain tuples. Pr[q :- R(a), S(a,b), T(b)] = 0.395184 exactly.
func triangleDB(t testing.TB) *pdb.Database {
	t.Helper()
	db := pdb.NewDatabase()
	r := db.CreateRelation("R", "x")
	s := db.CreateRelation("S", "x", "y")
	tt := db.CreateRelation("T", "y")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(r.AddInts(0.5, 1))
	must(r.AddInts(0.7, 2))
	must(s.AddInts(0.6, 1, 1))
	must(s.AddInts(0.4, 1, 2))
	must(s.AddInts(0.9, 2, 2))
	must(tt.AddInts(0.8, 1))
	must(tt.AddInts(0.3, 2))
	return db
}

const (
	triangleQuery = "q :- R(a), S(a, b), T(b)"
	triangleExact = 0.395184
)

// heavyDB is the all-0.5 dom×dom triangle: dom ≥ 14 sits past the phase
// transition, where exact inference effectively never finishes — the tool
// for exercising deadlines, cancellation and budgets.
func heavyDB(t testing.TB, dom int) *pdb.Database {
	t.Helper()
	db := pdb.NewDatabase()
	r := db.CreateRelation("R", "x")
	s := db.CreateRelation("S", "x", "y")
	tt := db.CreateRelation("T", "y")
	for x := 1; x <= dom; x++ {
		if err := r.AddInts(0.5, int64(x)); err != nil {
			t.Fatal(err)
		}
		if err := tt.AddInts(0.5, int64(x)); err != nil {
			t.Fatal(err)
		}
		for y := 1; y <= dom; y++ {
			if err := s.AddInts(0.5, int64(x), int64(y)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// newTestServer spins up a Server over db behind httptest, with a private
// metric registry so tests never pollute obs.Default.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = &obs.Registry{}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// postQuery posts req to the server and decodes the response body raw.
func postQuery(t testing.TB, url string, req QueryRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func decodeResponse(t testing.TB, data []byte) *QueryResponse {
	t.Helper()
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	return &qr
}

func decodeError(t testing.TB, data []byte) *ErrorResponse {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	return &er
}

// promSnapshot renders a registry in Prometheus text exposition.
func promSnapshot(t testing.TB, reg *obs.Registry) string {
	t.Helper()
	var buf strings.Builder
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestConcurrentMixedStrategies(t *testing.T) {
	db := triangleDB(t)
	_, ts := newTestServer(t, Config{DB: db, MaxInFlight: 4, MaxQueue: 64})

	// The unsafe triangle for the intensional strategies, a hierarchical
	// projection of the same instance for the safe plan.
	safeQuery := "q :- R(a), S(a, b)"
	safeQ, err := pdb.ParseQuery(safeQuery)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.Evaluate(safeQ, pdb.Options{Strategy: pdb.SafePlanOnly})
	if err != nil {
		t.Fatal(err)
	}
	safeExact := direct.BoolProb()

	type job struct {
		req   QueryRequest
		check func(t *testing.T, status int, body []byte)
	}
	exactCheck := func(strategy string) func(*testing.T, int, []byte) {
		return func(t *testing.T, status int, body []byte) {
			if status != http.StatusOK {
				t.Errorf("%s: status %d: %s", strategy, status, body)
				return
			}
			qr := decodeResponse(t, body)
			if qr.BoolP == nil || math.Abs(*qr.BoolP-triangleExact) > 1e-9 {
				t.Errorf("%s: bool_p = %v, want %.9f", strategy, qr.BoolP, triangleExact)
			}
			if qr.Approximate || qr.Degraded {
				t.Errorf("%s: exact answer flagged approximate=%v degraded=%v", strategy, qr.Approximate, qr.Degraded)
			}
		}
	}
	jobs := []job{
		{QueryRequest{Query: triangleQuery, Strategy: "partial"}, exactCheck("partial")},
		{QueryRequest{Query: triangleQuery, Strategy: "network"}, exactCheck("network")},
		{QueryRequest{Query: triangleQuery, Strategy: "dnf"}, exactCheck("dnf")},
		{QueryRequest{Query: triangleQuery, Strategy: "mc", Samples: 40000, Seed: 3},
			func(t *testing.T, status int, body []byte) {
				if status != http.StatusOK {
					t.Errorf("mc: status %d: %s", status, body)
					return
				}
				qr := decodeResponse(t, body)
				if qr.BoolP == nil || math.Abs(*qr.BoolP-triangleExact) > 0.02 {
					t.Errorf("mc: bool_p = %v, want %.6f ± 0.02", qr.BoolP, triangleExact)
				}
				if !qr.Approximate {
					t.Error("mc: answer not flagged approximate")
				}
			}},
		{QueryRequest{Query: safeQuery, Strategy: "safe"},
			func(t *testing.T, status int, body []byte) {
				if status != http.StatusOK {
					t.Errorf("safe: status %d: %s", status, body)
					return
				}
				qr := decodeResponse(t, body)
				if qr.BoolP == nil || *qr.BoolP != safeExact {
					t.Errorf("safe: bool_p = %v, want exactly %v", qr.BoolP, safeExact)
				}
			}},
		{QueryRequest{Query: triangleQuery, Strategy: "safe"},
			func(t *testing.T, status int, body []byte) {
				// The triangle is unsafe: the extensional-only strategy must
				// decline, not return a wrong marginal.
				if status != http.StatusUnprocessableEntity {
					t.Errorf("safe/unsafe: status %d, want 422: %s", status, body)
					return
				}
				if er := decodeError(t, body); er.Code != "not_data_safe" {
					t.Errorf("safe/unsafe: code %q, want not_data_safe", er.Code)
				}
			}},
	}

	const rounds = 5
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				status, body := postQuery(t, ts.URL, j.req)
				j.check(t, status, body)
			}(j)
		}
	}
	wg.Wait()
}

func TestDeadlineReturns504WithPartialTrace(t *testing.T) {
	db := heavyDB(t, 14)
	_, ts := newTestServer(t, Config{DB: db, MaxInFlight: 2})

	status, body := postQuery(t, ts.URL, QueryRequest{
		Query:      triangleQuery,
		Strategy:   "network",
		DeadlineMS: 80,
		Trace:      true,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", status, body)
	}
	er := decodeError(t, body)
	if er.Code != "deadline" {
		t.Errorf("code = %q, want deadline", er.Code)
	}
	if len(er.PartialTrace) == 0 {
		t.Fatal("504 carries no partial trace")
	}
	// The partial trace is real trace JSON: it names the query and carries
	// the operator work done before the cut.
	var trace struct {
		Query string `json:"query"`
	}
	if err := json.Unmarshal(er.PartialTrace, &trace); err != nil {
		t.Fatalf("partial trace is not JSON: %v\n%s", err, er.PartialTrace)
	}
	if !strings.Contains(trace.Query, "R(a)") {
		t.Errorf("partial trace query = %q, want the triangle", trace.Query)
	}

	// Without trace enabled the 504 stays lean.
	status, body = postQuery(t, ts.URL, QueryRequest{
		Query:      triangleQuery,
		Strategy:   "network",
		DeadlineMS: 80,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("untraced status = %d, want 504: %s", status, body)
	}
	if er := decodeError(t, body); len(er.PartialTrace) != 0 {
		t.Error("untraced 504 carries a partial trace")
	}
}

func TestOverloadSheds503WithRetryAfter(t *testing.T) {
	db := heavyDB(t, 14)
	reg := &obs.Registry{}
	srv, ts := newTestServer(t, Config{
		DB:          db,
		MaxInFlight: 1,
		MaxQueue:    1,
		RetryAfter:  2 * time.Second,
		Metrics:     reg,
	})

	heavy := QueryRequest{Query: triangleQuery, Strategy: "network", DeadlineMS: 60_000}
	body, err := json.Marshal(heavy)
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the single worker slot and the single queue place with requests
	// the test cancels once the shed has been observed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return // canceled below: the transport error is expected
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
	}
	launch()
	waitFor(t, 5*time.Second, "first request in flight", func() bool { return srv.InFlight() == 1 })
	launch()
	waitFor(t, 5*time.Second, "second request queued", func() bool { return srv.Queued() == 1 })

	// The third request finds in-flight and queue both full: shed, not queued.
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	shed, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", resp.StatusCode, shed)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want %q", got, "2")
	}
	er := decodeError(t, shed)
	if er.Code != "overload" {
		t.Errorf("code = %q, want overload", er.Code)
	}
	if er.RetryAfterMS != 2000 {
		t.Errorf("retry_after_ms = %d, want 2000", er.RetryAfterMS)
	}

	cancel()
	wg.Wait()
	waitFor(t, 5*time.Second, "slots to unwind", func() bool {
		return srv.InFlight() == 0 && srv.Queued() == 0
	})

	snap := promSnapshot(t, reg)
	if !strings.Contains(snap, `pdb_server_rejected_total{reason="overload"} 1`) {
		t.Errorf("rejected counter not recorded:\n%s", snap)
	}
}

func TestDegradationReturnsApproximate(t *testing.T) {
	db := heavyDB(t, 6)
	_, ts := newTestServer(t, Config{DB: db, MaxInFlight: 2})

	q, err := pdb.ParseQuery(triangleQuery)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := db.Evaluate(q, pdb.Options{})
	if err != nil {
		t.Fatal(err)
	}

	req := QueryRequest{
		Query:    triangleQuery,
		Strategy: "network",
		Budget:   &BudgetSpec{Nodes: 10},
		Degrade:  true,
		Samples:  40000,
		Seed:     11,
	}
	status, body := postQuery(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", status, body)
	}
	qr := decodeResponse(t, body)
	if !qr.Degraded || !qr.Approximate {
		t.Errorf("degraded=%v approximate=%v, want both true", qr.Degraded, qr.Approximate)
	}
	if qr.Strategy != "mc" || qr.RequestedStrategy != "network" {
		t.Errorf("strategy = %q (requested %q), want mc (requested network)", qr.Strategy, qr.RequestedStrategy)
	}
	if qr.BoolP == nil || math.Abs(*qr.BoolP-exact.BoolProb()) > 0.05 {
		t.Errorf("degraded bool_p = %v, want %.6f ± 0.05", qr.BoolP, exact.BoolProb())
	}

	// Same request, same seed: the degraded answer is reproducible bit for
	// bit (JSON round-trips float64 exactly).
	status2, body2 := postQuery(t, ts.URL, req)
	if status2 != http.StatusOK {
		t.Fatalf("repeat status = %d: %s", status2, body2)
	}
	qr2 := decodeResponse(t, body2)
	if qr2.BoolP == nil || *qr2.BoolP != *qr.BoolP {
		t.Errorf("same seed gave %v then %v", *qr.BoolP, *qr2.BoolP)
	}

	// Without the opt-in, the same budget exhaustion surfaces as 422.
	req.Degrade = false
	status, body = postQuery(t, ts.URL, req)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("no-degrade status = %d, want 422: %s", status, body)
	}
	if er := decodeError(t, body); er.Code != "budget_nodes" {
		t.Errorf("no-degrade code = %q, want budget_nodes", er.Code)
	}

	// A server with degradation disabled refuses the flag outright.
	_, tsOff := newTestServer(t, Config{DB: db, DisableDegrade: true})
	req.Degrade = true
	status, body = postQuery(t, tsOff.URL, req)
	if status != http.StatusBadRequest {
		t.Fatalf("disabled-degrade status = %d, want 400: %s", status, body)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	baseline := runtime.NumGoroutine()

	db := heavyDB(t, 10)
	reg := &obs.Registry{}
	srv, ts := newTestServer(t, Config{DB: db, MaxInFlight: 2, Metrics: reg})

	// Two slow-but-bounded sampling queries occupy both slots. 100k
	// Karp–Luby rounds over the dom-10 lineage keep each one busy long
	// enough for the poll below to observe it, and they finish on their own
	// — drain must wait for them, not kill them.
	slow := QueryRequest{Query: triangleQuery, Strategy: "mc", Samples: 100_000, Seed: 5, DeadlineMS: 120_000}
	type outcome struct {
		status int
		body   []byte
	}
	results := make(chan outcome, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, body := postQuery(t, ts.URL, slow)
			results <- outcome{status, body}
		}()
	}
	waitFor(t, 10*time.Second, "both slots occupied", func() bool { return srv.InFlight() == 2 })

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(ctx)
	}()

	// While draining: health reports it and new queries are shed.
	waitFor(t, 5*time.Second, "healthz to report draining", func() bool {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var h HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			return false
		}
		return resp.StatusCode == http.StatusServiceUnavailable && h.Status == "draining"
	})
	status, body := postQuery(t, ts.URL, QueryRequest{Query: triangleQuery})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status = %d, want 503: %s", status, body)
	}
	if er := decodeError(t, body); er.Code != "shutdown" {
		t.Errorf("during drain: code = %q, want shutdown", er.Code)
	}

	// Both in-flight queries complete normally: none dropped.
	for i := 0; i < 2; i++ {
		select {
		case out := <-results:
			if out.status != http.StatusOK {
				t.Errorf("drained request %d: status = %d: %s", i, out.status, out.body)
				continue
			}
			qr := decodeResponse(t, out.body)
			if qr.BoolP == nil || !qr.Approximate {
				t.Errorf("drained request %d: bool_p=%v approximate=%v", i, qr.BoolP, qr.Approximate)
			}
		case <-time.After(120 * time.Second):
			t.Fatal("in-flight request did not complete during drain")
		}
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if srv.InFlight() != 0 || srv.Queued() != 0 {
		t.Errorf("after drain: in-flight=%d queued=%d, want 0/0", srv.InFlight(), srv.Queued())
	}

	snap := promSnapshot(t, reg)
	if !strings.Contains(snap, `pdb_server_rejected_total{reason="shutdown"} 1`) {
		t.Errorf("shutdown rejection not counted:\n%s", snap)
	}

	// No goroutines leak once the server and its keep-alive connections are
	// gone: the acceptance criterion's leak check.
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, 10*time.Second, "goroutines to settle", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}

func TestServerValidation(t *testing.T) {
	db := triangleDB(t)
	_, ts := newTestServer(t, Config{DB: db})
	before := db.Version()

	// A body one object past the cap: leading whitespace is legal JSON, so
	// the decoder has to read through all of it.
	oversized := func(obj string) string { return strings.Repeat(" ", maxBodyBytes) + obj }
	cases := []struct {
		name   string
		path   string
		body   string
		status int    // expected status; 0 = any error
		want   string // expected error code
	}{
		{"malformed JSON", "/query", `{"query":`, 400, "bad_request"},
		{"missing query", "/query", `{}`, 400, "bad_request"},
		{"bad syntax", "/query", `{"query":"not a query!!"}`, 400, "bad_request"},
		{"unknown strategy", "/query", fmt.Sprintf(`{"query":%q,"strategy":"exactish"}`, triangleQuery), 400, "bad_request"},
		{"half-set epsilon", "/query", fmt.Sprintf(`{"query":%q,"strategy":"mc","epsilon":0.1}`, triangleQuery), 0, "internal"},
		{"unrepresentable sample count", "/query", fmt.Sprintf(`{"query":%q,"strategy":"mc","epsilon":1e-10,"delta":0.5}`, triangleQuery), 400, "bad_request"},
		{"missing relation", "/query", `{"query":"q :- Nope(a)"}`, 0, "internal"},
		{"misspelt option", "/query", fmt.Sprintf(`{"query":%q,"paralellism":4}`, triangleQuery), 400, "bad_request"},
		{"misspelt cache switch", "/query", fmt.Sprintf(`{"query":%q,"no_cahce":true}`, triangleQuery), 400, "bad_request"},
		{"oversized query body", "/query", oversized(fmt.Sprintf(`{"query":%q}`, triangleQuery)), 413, "too_large"},
		{"malformed mutate JSON", "/mutate", `{"ops":`, 400, "bad_request"},
		{"misspelt mutate field", "/mutate", `{"ops":[{"op":"add","relation":"T","vals":["3"],"prob":0.5}]}`, 400, "bad_request"},
		{"oversized mutate body", "/mutate", oversized(`{"ops":[{"op":"delete","relation":"T","vals":["1"]}]}`), 413, "too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode < 400 || (tc.status != 0 && resp.StatusCode != tc.status) {
				t.Fatalf("status = %d, want %d (0 = any error): %.200s", resp.StatusCode, tc.status, data)
			}
			if er := decodeError(t, data); er.Code != tc.want {
				t.Errorf("code = %q, want %q: %.200s", er.Code, tc.want, data)
			}
		})
	}
	// The refused mutations must not have reached the database.
	if v := db.Version(); v != before {
		t.Errorf("database version moved from %d to %d across refused requests", before, v)
	}

	if _, err := New(Config{}); err == nil {
		t.Error("New without a DB must fail")
	}
}

func TestHealthzAndMetricsRoutes(t *testing.T) {
	db := triangleDB(t)
	_, ts := newTestServer(t, Config{DB: db})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Errorf("healthz: %d %+v", resp.StatusCode, h)
	}

	// /metrics and /debug/pprof ride on the same mux.
	for _, route := range []string{"/metrics", "/debug/pprof/"} {
		resp, err := http.Get(ts.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", route, resp.StatusCode)
		}
	}
}

// TestEpsilonDeltaOverHTTP pins satellite 4 end to end: an (ε, δ) request
// with a fixed seed is reproducible through the server and lands within the
// requested relative error.
func TestEpsilonDeltaOverHTTP(t *testing.T) {
	db := heavyDB(t, 4)
	_, ts := newTestServer(t, Config{DB: db})

	req := QueryRequest{
		Query:    triangleQuery,
		Strategy: "mc",
		Epsilon:  0.05,
		Delta:    0.01,
		Seed:     7,
	}
	status, body := postQuery(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status = %d: %s", status, body)
	}
	qr := decodeResponse(t, body)

	q, err := pdb.ParseQuery(triangleQuery)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.Evaluate(q, pdb.Options{Strategy: pdb.MonteCarlo, Epsilon: 0.05, Delta: 0.01, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if qr.BoolP == nil || *qr.BoolP != direct.BoolProb() {
		t.Errorf("served %v, direct %v: same seed must agree exactly", qr.BoolP, direct.BoolProb())
	}
	exact, err := db.Evaluate(q, pdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(*qr.BoolP-exact.BoolProb()) / exact.BoolProb(); rel > 0.05 {
		t.Errorf("relative error %.4f beyond ε=0.05", rel)
	}
}
