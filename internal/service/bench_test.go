package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"twoecss/internal/graph"
)

// BenchmarkWarmHandler serves a cached n=256 instance through the solve
// handler in process: the warm-hit path of request decode, graph build,
// hash, cache lookup and response encode, without a socket.
func BenchmarkWarmHandler(b *testing.B) {
	s := New(Config{Workers: 1})
	defer s.Drain(b.Context())
	g, err := graph.ByFamily("er", 256, 7)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(SolveRequest{Graph: WireGraph(g), Wait: true})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	serve := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("solve: code %d: %s", w.Code, w.Body)
		}
	}
	serve() // the one solve; every timed request is a hit
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
}
