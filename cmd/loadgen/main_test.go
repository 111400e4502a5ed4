package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// exposition serves doc at /metrics.
func exposition(doc string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(doc))
	}))
}

// TestMinEngineRoundsGatesEachTarget: -min-engine-rounds holds every
// target to the minimum on its own, so a target whose exposition lost the
// engine family fails the run even when another target carries plenty.
func TestMinEngineRoundsGatesEachTarget(t *testing.T) {
	withRounds := exposition("# TYPE ecss_engine_rounds_total counter\n" +
		`ecss_engine_rounds_total{kind="simulated"} 120` + "\n" +
		`ecss_engine_rounds_total{kind="charged"} 7` + "\n" +
		"# TYPE ecss_engine_messages_total counter\necss_engine_messages_total 4000\n")
	defer withRounds.Close()
	without := exposition("# TYPE ecss_solves_total counter\necss_solves_total 3\n")
	defer without.Close()

	client := withRounds.Client()
	if err := reportEngineTotals(client, []string{withRounds.URL}, 127); err != nil {
		t.Fatalf("target reporting 127 rounds failed a minimum of 127: %v", err)
	}
	err := reportEngineTotals(client, []string{withRounds.URL, without.URL}, 1)
	if err == nil {
		t.Fatal("a target without ecss_engine_rounds_total passed -min-engine-rounds 1")
	}
	if !strings.Contains(err.Error(), without.URL) || strings.Contains(err.Error(), withRounds.URL) {
		t.Fatalf("error %q should name only the target without rounds", err)
	}
	if err := reportEngineTotals(client, []string{withRounds.URL, without.URL}, -1); err != nil {
		t.Fatalf("-min-engine-rounds -1 must not gate: %v", err)
	}
}
