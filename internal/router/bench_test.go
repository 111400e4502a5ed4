package router

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"twoecss/internal/graph"
	"twoecss/internal/service"
)

// BenchmarkRoutedWarmHit serves a cached er n=256 instance through the
// router's solve handler in process, forwarded over loopback HTTP to one
// one-worker shard: the router's body read, decode, digest and relay,
// plus the shard's memory-cache hit.
func BenchmarkRoutedWarmHit(b *testing.B) {
	svc := service.New(service.Config{Workers: 1})
	b.Cleanup(func() { svc.Drain(context.Background()) })
	shard := httptest.NewServer(svc.Handler())
	b.Cleanup(shard.Close)
	rt, err := New(quietConfig(), []string{shard.URL})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	g, err := graph.ByFamily("er", 256, 7)
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(service.SolveRequest{Graph: service.WireGraph(g), Wait: true})
	if err != nil {
		b.Fatal(err)
	}
	h := rt.Handler()
	serve := func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("solve: code %d: %s", w.Code, w.Body)
		}
	}
	serve() // the one solve
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
}
