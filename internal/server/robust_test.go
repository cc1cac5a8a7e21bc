package server

import (
	"context"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/pdb"
)

// tiedDB builds n answers of q(a) :- R(a), S(a, b), T(b) that are copies of
// one another: 70 clauses each (past the exact-evaluation limit) and equal
// probabilities, so cold multisimulation can never separate a top-k set and
// refines until its round budget — seconds of work with no deadline.
func tiedDB(t testing.TB, n int) *pdb.Database {
	t.Helper()
	db := pdb.NewDatabase()
	r := db.CreateRelation("R", "a")
	s := db.CreateRelation("S", "a", "b")
	tt := db.CreateRelation("T", "b")
	for b := int64(0); b < 70; b++ {
		if err := tt.AddInts(0.5, b); err != nil {
			t.Fatal(err)
		}
	}
	for a := int64(0); a < int64(n); a++ {
		if err := r.AddInts(0.5, a); err != nil {
			t.Fatal(err)
		}
		for b := int64(0); b < 70; b++ {
			if err := s.AddInts(0.5, a, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// TestTopKHonoursDeadline: a top_k request runs under the request's context
// like any other evaluation — an expired deadline is a 504 with code
// "deadline", and the worker slot is free for the next request.
func TestTopKHonoursDeadline(t *testing.T) {
	db := tiedDB(t, 8)
	reg := &obs.Registry{}
	srv, ts := newTestServer(t, Config{DB: db, MaxInFlight: 1, MaxQueue: 1, Metrics: reg})

	start := time.Now()
	code, data := postQuery(t, ts.URL, QueryRequest{
		Query: "q(a) :- R(a), S(a, b), T(b)", TopK: 2, NoSeedBounds: true, Seed: 1, DeadlineMS: 40,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("top_k past its deadline: status %d (%s), want 504", code, data)
	}
	if er := decodeError(t, data); er.Code != "deadline" {
		t.Errorf("error code %q, want deadline", er.Code)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("a 40 ms deadline answered after %v", d)
	}
	waitFor(t, time.Second, "the worker slot to be released", func() bool { return srv.InFlight() == 0 })

	// The only slot is free again: a cheap request is served, not queued out.
	code, data = postQuery(t, ts.URL, QueryRequest{Query: "q :- T(b)"})
	if code != http.StatusOK {
		t.Fatalf("request after the timed-out top_k: status %d (%s)", code, data)
	}
}

// TestPanicRecovery: a panicking handler is answered 500 "internal", counted,
// and leaves nothing behind — not the worker slot, not the admission count,
// not a single-flight leader that never finishes.
func TestPanicRecovery(t *testing.T) {
	// The middleware logs the stack; keep the test output readable.
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard)

	db := triangleDB(t)
	reg := &obs.Registry{}
	srv, ts := newTestServer(t, Config{DB: db, MaxInFlight: 1, MaxQueue: 1, Metrics: reg})
	var mu sync.Mutex
	armed := true
	srv.faultHook = func(req *QueryRequest) {
		mu.Lock()
		defer mu.Unlock()
		if armed && req.Seed == 666 {
			panic("injected fault")
		}
	}

	// The fault hits inside the worker slot, on the cacheable path.
	code, data := postQuery(t, ts.URL, QueryRequest{Query: triangleQuery, Seed: 666})
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d (%s), want 500", code, data)
	}
	if er := decodeError(t, data); er.Code != "internal" || !strings.Contains(er.Error, "injected fault") {
		t.Errorf("panicking request: body %+v, want code internal naming the fault", er)
	}
	if srv.InFlight() != 0 || srv.Queued() != 0 {
		t.Errorf("after the panic: %d in flight, %d queued", srv.InFlight(), srv.Queued())
	}
	prom := promSnapshot(t, reg)
	for _, want := range []string{
		"pdb_server_panics_total 1",
		`pdb_server_responses_total{code="500"} 1`,
		"pdb_server_in_flight 0",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics lack %q", want)
		}
	}

	// With one slot and one queue place, two leaked reservations would shed
	// everything from here on; the same key must also evaluate, not wait for
	// the leader that panicked.
	mu.Lock()
	armed = false
	mu.Unlock()
	for i := 0; i < 3; i++ {
		code, data = postQuery(t, ts.URL, QueryRequest{Query: triangleQuery, Seed: 666, DeadlineMS: 2000})
		if code != http.StatusOK {
			t.Fatalf("request %d after the panic: status %d (%s)", i, code, data)
		}
	}
	if !decodeResponse(t, data).Cached {
		t.Error("the key that panicked never became cacheable again")
	}

	// A drain still completes: the panicked request left the wait group.
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("shutdown after a panic: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("shutdown never drained after a panic")
	}
}
