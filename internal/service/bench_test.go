package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"twoecss/internal/graph"
)

// warmHandler starts a one-worker service, solves a cached n=256 instance
// once through its handler and returns the call that serves that instance
// again, a memory-cache hit every time.
func warmHandler(tb testing.TB) func() {
	s := New(Config{Workers: 1})
	tb.Cleanup(func() { s.Drain(context.Background()) })
	g, err := graph.ByFamily("er", 256, 7)
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(SolveRequest{Graph: WireGraph(g), Wait: true})
	if err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	serve := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			tb.Fatalf("solve: code %d: %s", w.Code, w.Body)
		}
	}
	serve() // the one solve
	return serve
}

// BenchmarkWarmHandler serves a cached n=256 instance through the solve
// handler in process: the warm-hit path of request decode, hash, cache
// lookup and response write, without a socket.
func BenchmarkWarmHandler(b *testing.B) {
	serve := warmHandler(b)
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
}

// TestWarmHitAllocs bounds the allocations of one memory-cache hit served
// through Handler(), the recorder and request included. A hit builds no
// graph: decoding the body, hashing its edges and writing the response are
// all it allocates for. Measured on this er n=256 instance: 57 allocations
// per hit when the handler decoded through json.Decoder and built the graph
// to hash it, 40 with the one-pass decoder, the wire-edge digest and the
// hand-written response.
func TestWarmHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so counts vary")
	}
	const bound = 40
	serve := warmHandler(t)
	if got := testing.AllocsPerRun(20, serve); got > bound {
		t.Fatalf("a warm hit allocates %.0f times, want at most %d", got, bound)
	}
}
