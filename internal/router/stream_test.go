package router

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"twoecss/internal/faults"
	"twoecss/internal/graph"
	"twoecss/internal/obs"
	"twoecss/internal/service"
)

// TestRouterOpensNoShardStreams checks that an idle router talks to its
// shards only through the prober: it holds no event stream or any other
// connection of its own to a shard.
func TestRouterOpensNoShardStreams(t *testing.T) {
	var (
		mu   sync.Mutex
		seen []string
	)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Method+" "+r.URL.Path)
		mu.Unlock()
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}))
	defer stub.Close()
	cfg := quietConfig()
	cfg.ProbeInterval = 20 * time.Millisecond
	rt, err := New(cfg, []string{stub.URL})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * cfg.ProbeInterval)
	rt.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("the prober sent no request in ten probe intervals")
	}
	for _, req := range seen {
		if req != "GET /healthz" {
			t.Fatalf("idle router sent %q to a shard; want only GET /healthz (all: %v)", req, seen)
		}
	}
}

// TestJobStreamThroughRouter follows a cold job's SSE stream through the
// router: the owning shard's stream is relayed with its headers, flushed
// live, and ends in exactly one terminal event.
func TestJobStreamThroughRouter(t *testing.T) {
	// Each stage takes at least 100ms, so the solve outlives the time the
	// stream needs to open and relay its first event.
	if err := faults.Arm("solve.stage:delay=100ms"); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()

	svc := service.New(service.Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := svc.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	done := svc.Obs().Bus.Subscribe(obs.SubOptions{Types: []string{obs.EvJobDone}})
	defer done.Close()
	shard := httptest.NewServer(svc.Handler())
	defer shard.Close()
	rt, err := New(quietConfig(), []string{shard.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	g, err := graph.ByFamily("ring", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(service.SolveRequest{Graph: service.WireGraph(g)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(front.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		JobID string `json:"job_id"`
	}
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.JobID == "" {
		t.Fatalf("wait=false submit: code=%d job=%q, want 202 with a job id", resp.StatusCode, sub.JobID)
	}

	resp, err = http.Get(front.URL + "/v1/jobs/" + sub.JobID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: code=%d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.ShardHeader); got != shard.URL {
		t.Fatalf("%s = %q, want %q", obs.ShardHeader, got, shard.URL)
	}
	if got := resp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", got)
	}
	var events []obs.Event
	err = obs.ReadSSE(resp.Body, func(ev obs.SSEvent) error {
		var e obs.Event
		if err := json.Unmarshal(ev.Data, &e); err != nil {
			t.Fatalf("event %d: %v", len(events), err)
		}
		if len(events) == 0 {
			select {
			case <-done.C():
				t.Fatal("first streamed event arrived after job.done was published: the relay buffers")
			default:
			}
		}
		events = append(events, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Type != obs.EvJobAdmitted {
		t.Fatalf("stream opened with %v, want %s first", events, obs.EvJobAdmitted)
	}
	for i, e := range events {
		if i > 0 && e.Seq <= events[i-1].Seq {
			t.Fatalf("sequence not strictly increasing at event %d: %d after %d", i, e.Seq, events[i-1].Seq)
		}
		if e.Terminal != (i == len(events)-1) {
			t.Fatalf("event %d (%s) terminal=%v; want exactly one terminal event, last", i, e.Type, e.Terminal)
		}
	}

	resp, err = http.Get(front.URL + "/v1/jobs/no-such-job/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job stream: code=%d, want 404", resp.StatusCode)
	}
}
