package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"twoecss/internal/faults"
	"twoecss/internal/graph"
	"twoecss/internal/obs"
	"twoecss/internal/service"
)

// testBody marshals a small valid solve request whose content hash varies
// with seed, so tests can steer distinct keys at the ring.
func testBody(t *testing.T, seed int64) []byte {
	t.Helper()
	g, err := graph.ByFamily("ring", 8, seed)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(service.SolveRequest{Graph: service.WireGraph(g), Wait: true})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// bodyForPrimary finds a solve body whose key's primary replica is the given
// shard index — tests that must exercise a specific backend first pin their
// traffic with this instead of hoping a random seed routes there.
func bodyForPrimary(t *testing.T, rt *Router, shard int) []byte {
	t.Helper()
	for seed := int64(1); seed < 256; seed++ {
		g, err := graph.ByFamily("ring", 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		if rt.ring.order(keyPoint(g.Hash()))[0] == shard {
			return testBody(t, seed)
		}
	}
	t.Fatalf("no seed in [1,256) mapped primary to shard %d", shard)
	return nil
}

// okHandler answers every solve with a fixed done job tagged with the
// shard's name, so tests can see who served what.
func okHandler(name string, hits *atomic.Int64) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		writeJSON(w, http.StatusOK, map[string]string{"job_id": name, "status": "done"})
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// quietConfig disables the active prober and retry jitter so unit tests
// exercise exactly the passive path they mean to.
func quietConfig() Config {
	return Config{ProbeInterval: time.Hour, RetryJitter: time.Nanosecond}
}

func postVia(t *testing.T, rt *Router, body []byte) (int, map[string]string, http.Header) {
	t.Helper()
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode (HTTP %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, out, resp.Header
}

func TestRingStableAndComplete(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "e"}
	r := newRing(ids)
	counts := make([]int, len(ids))
	for k := 0; k < 2000; k++ {
		key := uint64(k) * 0x9e3779b97f4a7c15
		o1, o2 := r.order(key), r.order(key)
		if len(o1) != len(ids) {
			t.Fatalf("order(%d) covers %d shards, want %d", key, len(o1), len(ids))
		}
		seen := make(map[int]bool)
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatalf("order(%d) not deterministic", key)
			}
			if seen[o1[i]] {
				t.Fatalf("order(%d) repeats shard %d", key, o1[i])
			}
			seen[o1[i]] = true
		}
		counts[o1[0]]++
	}
	// 64 vnodes over 5 shards: primary ownership should be within a loose
	// factor of fair share (400), catching gross ring bugs, not variance.
	for i, c := range counts {
		if c < 100 || c > 1000 {
			t.Fatalf("shard %d owns %d/2000 keys — ring badly unbalanced: %v", i, c, counts)
		}
	}
}

func TestConsistentRoutingPinsKeyToShard(t *testing.T) {
	var hits [3]atomic.Int64
	var addrs []string
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(okHandler(fmt.Sprintf("s%d", i), &hits[i]))
		defer srv.Close()
		addrs = append(addrs, srv.URL)
	}
	rt, err := New(quietConfig(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// One key, many posts: exactly one shard serves them all.
	body := testBody(t, 1)
	for i := 0; i < 8; i++ {
		if code, out, _ := postVia(t, rt, body); code != http.StatusOK || out["status"] != "done" {
			t.Fatalf("post %d: code=%d out=%v", i, code, out)
		}
	}
	nonzero := 0
	for i := range hits {
		if hits[i].Load() > 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatalf("one key spread over %d shards, want 1 (hits: %d %d %d)",
			nonzero, hits[0].Load(), hits[1].Load(), hits[2].Load())
	}

	// Many keys: more than one shard sees traffic.
	for seed := int64(2); seed < 40; seed++ {
		postVia(t, rt, testBody(t, seed))
	}
	nonzero = 0
	for i := range hits {
		if hits[i].Load() > 0 {
			nonzero++
		}
	}
	if nonzero < 2 {
		t.Fatalf("38 keys all routed to %d shard(s)", nonzero)
	}
}

func TestRetryFailsOverTo5xxFreeReplica(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "injected"})
	}))
	defer bad.Close()
	var goodHits atomic.Int64
	good := httptest.NewServer(okHandler("good", &goodHits))
	defer good.Close()

	rt, err := New(quietConfig(), []string{bad.URL, good.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// One request pinned to the bad primary guarantees a retry; the rest are
	// arbitrary keys that must all come back from the good shard regardless
	// of where they route first.
	bodies := [][]byte{bodyForPrimary(t, rt, 0)}
	for seed := int64(1); seed <= 5; seed++ {
		bodies = append(bodies, testBody(t, seed))
	}
	for i, b := range bodies {
		code, out, _ := postVia(t, rt, b)
		if code != http.StatusOK || out["job_id"] != "good" {
			t.Fatalf("request %d: code=%d out=%v, want 200 from good shard", i, code, out)
		}
	}
	if goodHits.Load() != 6 {
		t.Fatalf("good shard served %d/6", goodHits.Load())
	}
	st := rt.Stats()
	if st.Retries == 0 {
		t.Fatalf("no retries recorded: %+v", st)
	}
	if st.Shards[0].Failures == 0 {
		t.Fatalf("bad shard shows no failures: %+v", st.Shards[0])
	}
}

func TestCircuitBreakerEjectsThenRecovers(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	// hits counts routed solves only, not health probes.
	var hits atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/solve" {
			hits.Add(1)
		}
		if failing.Load() {
			writeJSON(w, http.StatusBadGateway, map[string]string{"error": "down"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"job_id": "flaky", "status": "done"})
	}))
	defer flaky.Close()
	good := httptest.NewServer(okHandler("good", nil))
	defer good.Close()

	cfg := quietConfig()
	cfg.EjectAfter = 2
	cfg.EjectBackoff = 30 * time.Millisecond
	rt, err := New(cfg, []string{flaky.URL, good.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Pin a key whose primary replica is the flaky shard so each request
	// exercises it before failing over, then drive failures until the
	// breaker trips.
	body := bodyForPrimary(t, rt, 0)
	for i := 0; i < 4; i++ {
		if code, _, _ := postVia(t, rt, body); code != http.StatusOK {
			t.Fatalf("request %d not failed over: %d", i, code)
		}
	}
	// While ejected, no traffic reaches it. The ejection window is held
	// open across the check, so three round trips need not finish inside
	// the 30 ms backoff; the breaker's own deadline is restored afterwards.
	// Only eligible() moves an ejected shard to half-open, and nothing
	// calls it between the last post and the lock below.
	sh := rt.shards[0]
	sh.mu.Lock()
	state, until := sh.state, sh.until
	sh.until = time.Now().Add(time.Hour)
	sh.mu.Unlock()
	if state != StateEjected {
		t.Fatalf("flaky shard state %s after repeated failures, want ejected", state)
	}
	if rt.Stats().Ejections == 0 {
		t.Fatal("no ejection counted")
	}
	before := hits.Load()
	for i := 0; i < 3; i++ {
		if code, out, _ := postVia(t, rt, body); code != http.StatusOK || out["job_id"] != "good" {
			t.Fatalf("request %d while ejected: code=%d out=%v, want 200 from good shard", i, code, out)
		}
	}
	if hits.Load() != before {
		t.Fatalf("ejected shard still receiving traffic (%d -> %d)", before, hits.Load())
	}
	if got := sh.stats(); got.State != StateEjected {
		t.Fatalf("flaky shard state %s during the check, want ejected", got.State)
	}
	sh.mu.Lock()
	sh.until = until
	sh.mu.Unlock()
	// Heal the backend, wait out the backoff: the half-open trial restores it.
	failing.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for sh.stats().State != StateHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("flaky shard never recovered: %+v", sh.stats())
		}
		time.Sleep(10 * time.Millisecond)
		postVia(t, rt, body)
	}
}

func TestSlowPrimaryIsWaitedOut(t *testing.T) {
	const slowDelay = 100 * time.Millisecond
	var slow atomic.Bool
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if slow.Load() {
			time.Sleep(slowDelay)
		}
		writeJSON(w, http.StatusOK, map[string]string{"job_id": "primary", "status": "done"})
	}))
	defer primary.Close()
	other := httptest.NewServer(okHandler("other", nil))
	defer other.Close()

	rt, err := New(quietConfig(), []string{primary.URL, other.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	body := bodyForPrimary(t, rt, 0)
	// A run of fast answers is what an adaptive latency trigger would learn
	// from; a slow one after it must still be waited out, not raced.
	for i := 0; i < 16; i++ {
		if code, out, _ := postVia(t, rt, body); code != http.StatusOK || out["job_id"] != "primary" {
			t.Fatalf("fast request %d: code=%d out=%v", i, code, out)
		}
	}
	before := rt.shards[1].stats().Forwards
	slow.Store(true)
	code, out, hdr := postVia(t, rt, body)
	if code != http.StatusOK || out["job_id"] != "primary" || hdr.Get(obs.ShardHeader) != primary.URL {
		t.Fatalf("slow request: code=%d out=%v shard=%q, want the primary's answer", code, out, hdr.Get(obs.ShardHeader))
	}
	if got := rt.shards[1].stats().Forwards; got != before {
		t.Fatalf("other shard forwards %d -> %d while the primary was merely slow", before, got)
	}
	if st := rt.Stats(); st.Retries != 0 {
		t.Fatalf("slow primary caused %d retries", st.Retries)
	}
}

func TestClientCancelAbortsAttemptWithoutVerdict(t *testing.T) {
	started := make(chan struct{}, 1)
	canceled := make(chan struct{}, 1)
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/solve" {
			// Only a solve is held; a health probe is not one.
			http.NotFound(w, r)
			return
		}
		// Consume the body first: Go's server only watches for client
		// disconnect (canceling r.Context()) once the body is drained —
		// exactly what the real solve handler's JSON decode does.
		io.Copy(io.Discard, r.Body)
		started <- struct{}{}
		select {
		case <-r.Context().Done():
			canceled <- struct{}{}
		case <-time.After(10 * time.Second):
			writeJSON(w, http.StatusOK, map[string]string{"job_id": "hung", "status": "done"})
		}
	}))
	defer hung.Close()
	var otherHits atomic.Int64
	other := httptest.NewServer(okHandler("other", &otherHits))
	defer other.Close()

	rt, err := New(quietConfig(), []string{hung.URL, other.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer(rt.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/solve", bytes.NewReader(bodyForPrimary(t, rt, 0)))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the primary")
	}
	cancel()
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("client cancel never reached the in-flight shard attempt")
	}
	if err := <-errc; err == nil {
		t.Fatal("canceled client got a response")
	}
	srv.Close() // waits for the router's handler to return

	st := rt.Stats()
	if st.Retries != 0 || otherHits.Load() != 0 {
		t.Fatalf("client cancel was retried: retries=%d other hits=%d", st.Retries, otherHits.Load())
	}
	for _, ss := range st.Shards {
		if ss.State != StateHealthy || ss.Failures != 0 || ss.ConsecFails != 0 {
			t.Fatalf("client cancel changed shard %s: %+v", ss.Addr, ss)
		}
	}
}

func TestRouteLatencySLOCountsFailedAttempts(t *testing.T) {
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(80 * time.Millisecond)
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "injected"})
	}))
	defer failing.Close()
	replica := httptest.NewServer(okHandler("replica", nil))
	defer replica.Close()

	cfg := quietConfig()
	cfg.SLOLatency = 50 * time.Millisecond
	rt, err := New(cfg, []string{failing.URL, replica.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	// The replica answers at once, but the client waited out the failed
	// primary first: the request is slow, and the SLO must say so.
	code, out, _ := postVia(t, rt, bodyForPrimary(t, rt, 0))
	if code != http.StatusOK || out["job_id"] != "replica" {
		t.Fatalf("code=%d out=%v, want 200 from the replica", code, out)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// The one request is the 5m window's only event, and it was bad.
	if want := `ecss_slo_error_ratio{slo="route-latency",window="5m"} 1` + "\n"; !bytes.Contains(doc, []byte(want)) {
		t.Fatalf("router /metrics missing %q", want)
	}
}

func TestDrainingShardLeavesRotation(t *testing.T) {
	var draining atomic.Bool
	var hits atomic.Int64
	drainable := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			if draining.Load() {
				writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			} else {
				writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
			}
			return
		}
		hits.Add(1)
		if draining.Load() {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"job_id": "drainable", "status": "done"})
	}))
	defer drainable.Close()
	good := httptest.NewServer(okHandler("good", nil))
	defer good.Close()

	cfg := quietConfig()
	cfg.ProbeInterval = 20 * time.Millisecond
	cfg.ProbeTimeout = time.Second
	rt, err := New(cfg, []string{drainable.URL, good.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	body := testBody(t, 1)
	if code, _, _ := postVia(t, rt, body); code != http.StatusOK {
		t.Fatalf("pre-drain request failed: %d", code)
	}
	draining.Store(true)
	// The active prober must park the shard in draining within an interval
	// or two — without an ejection penalty.
	deadline := time.Now().Add(2 * time.Second)
	for rt.shards[0].stats().State != StateDraining {
		if time.Now().After(deadline) {
			t.Fatalf("shard never marked draining: %+v", rt.shards[0].stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rt.Stats().Ejections != 0 {
		t.Fatalf("draining cost an ejection: %+v", rt.Stats())
	}
	// All new traffic bypasses it...
	before := hits.Load()
	for i := 0; i < 5; i++ {
		code, out, _ := postVia(t, rt, body)
		if code != http.StatusOK || out["job_id"] != "good" {
			t.Fatalf("during drain: code=%d out=%v", code, out)
		}
	}
	if hits.Load() != before {
		t.Fatal("draining shard still receives new requests")
	}
	// ...and it re-enters rotation the moment it reports healthy again.
	draining.Store(false)
	deadline = time.Now().Add(2 * time.Second)
	for rt.shards[0].stats().State != StateHealthy {
		if time.Now().After(deadline) {
			t.Fatalf("shard never returned from draining: %+v", rt.shards[0].stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPassive503MarksDrainingImmediately(t *testing.T) {
	drainer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "2")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "service: draining"})
	}))
	defer drainer.Close()
	good := httptest.NewServer(okHandler("good", nil))
	defer good.Close()

	rt, err := New(quietConfig(), []string{drainer.URL, good.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// Pin a key whose primary replica is the draining shard so the 503 is
	// actually observed (an arbitrary seed might route straight to good).
	code, out, _ := postVia(t, rt, bodyForPrimary(t, rt, 0))
	if code != http.StatusOK || out["job_id"] != "good" {
		t.Fatalf("code=%d out=%v", code, out)
	}
	st := rt.shards[0].stats()
	if st.State != StateDraining {
		t.Fatalf("503-ing shard state %s, want draining (no probe needed)", st.State)
	}
	if rt.Stats().Ejections != 0 {
		t.Fatal("passive drain detection cost an ejection")
	}
}

func TestNoEligibleShard503WithRetryAfter(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	}))
	defer dead.Close()
	rt, err := New(quietConfig(), []string{dead.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.shards[0].setDraining()
	code, out, hdr := postVia(t, rt, testBody(t, 1))
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("no-shard response: code=%d hdr=%v out=%v, want 503 + Retry-After", code, hdr, out)
	}
	if rt.Stats().NoShard == 0 {
		t.Fatal("no_shard not counted")
	}
}

func TestRouterForwardFaultPoint(t *testing.T) {
	good := httptest.NewServer(okHandler("good", nil))
	defer good.Close()
	rt, err := New(quietConfig(), []string{good.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := faults.Arm("router.forward:error=chaos,count=1"); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()
	code, out, _ := postVia(t, rt, testBody(t, 1))
	if code != http.StatusBadGateway || out["error"] == "" {
		t.Fatalf("armed fault: code=%d out=%v, want explicit 502", code, out)
	}
	if code, out, _ := postVia(t, rt, testBody(t, 1)); code != http.StatusOK {
		t.Fatalf("count=1 fault kept firing: code=%d out=%v", code, out)
	}
	st := rt.Stats()
	if st.Faults["router.forward"].Fires != 1 {
		t.Fatalf("fault counters not surfaced in stats: %+v", st.Faults)
	}
}

func TestJobFanout(t *testing.T) {
	withJob := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/jobs/j42" {
			writeJSON(w, http.StatusOK, map[string]string{"job_id": "j42", "status": "done"})
			return
		}
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
	}))
	defer withJob.Close()
	without := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
	}))
	defer without.Close()

	rt, err := New(quietConfig(), []string{without.URL, withJob.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/jobs/j42")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	json.NewDecoder(resp.Body).Decode(&out)
	if resp.StatusCode != http.StatusOK || out["job_id"] != "j42" {
		t.Fatalf("fanout lookup: code=%d out=%v", resp.StatusCode, out)
	}
	if resp, err = http.Get(srv.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: code=%d, want 404", resp.StatusCode)
	}
}

func TestRouterHealthzStates(t *testing.T) {
	good := httptest.NewServer(okHandler("good", nil))
	defer good.Close()
	rt, err := New(quietConfig(), []string{good.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	get := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}
	if code, out := get(); code != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthy router: code=%d out=%v", code, out)
	}
	rt.shards[0].setDraining()
	if code, out := get(); code != http.StatusServiceUnavailable || out["status"] != "no-healthy-shard" {
		t.Fatalf("shardless router: code=%d out=%v", code, out)
	}
	rt.MarkDraining()
	if code, out := get(); code != http.StatusServiceUnavailable || out["status"] != "draining" {
		t.Fatalf("draining router: code=%d out=%v", code, out)
	}
}

func TestProfileFanoutAndShardEngineMetrics(t *testing.T) {
	withProfile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs/j7/profile":
			writeJSON(w, http.StatusOK, map[string]any{"job_id": "j7", "status": "done",
				"profile": map[string]any{"stride": 1, "rounds_observed": 9}})
		case "/v1/stats":
			writeJSON(w, http.StatusOK, map[string]any{"engine": service.EngineStats{
				SimulatedRounds: 120, ChargedRounds: 7, Messages: 4000, Words: 5000, ProfiledSolves: 3}})
		default:
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown"})
		}
	}))
	defer withProfile.Close()
	without := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/stats" {
			writeJSON(w, http.StatusOK, map[string]any{"engine": service.EngineStats{
				SimulatedRounds: 30, Messages: 1000}})
			return
		}
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown"})
	}))
	defer without.Close()

	rt, err := New(quietConfig(), []string{without.URL, withProfile.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/jobs/j7/profile")
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out["job_id"] != "j7" || out["profile"] == nil {
		t.Fatalf("profile fanout: code=%d out=%v", resp.StatusCode, out)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if _, err := obs.ValidateExposition(doc); err != nil {
		t.Fatalf("router exposition invalid: %v", err)
	}
	for _, want := range []string{
		`ecss_engine_rounds_total{kind="simulated",shard="` + withProfile.URL + `"} 120`,
		`ecss_engine_rounds_total{kind="simulated",shard="` + without.URL + `"} 30`,
		`ecss_engine_messages_total{shard="` + withProfile.URL + `"} 4000`,
		`ecss_slo_burn_rate{slo="route-availability"`,
		`ecss_slo_error_ratio{slo="route-latency"`,
	} {
		if !bytes.Contains(doc, []byte(want)) {
			t.Fatalf("router /metrics missing %q", want)
		}
	}
	// The fleet total sums across shard labels.
	if sum, ok := obs.SumSeries(doc, "ecss_engine_messages_total"); !ok || sum != 5000 {
		t.Fatalf("fleet messages sum %.0f (ok=%v), want 5000", sum, ok)
	}
}

// TestRouterRefusesWhatAShardRefuses sends bodies a shard refuses both to
// a shard and through the router: the router decodes through the shard's
// own decoder, so it answers the same 400 with the same text and forwards
// nothing. A valid request followed by more data is among them.
func TestRouterRefusesWhatAShardRefuses(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Drain(context.Background())
	shard := httptest.NewServer(svc.Handler())
	defer shard.Close()
	rt, err := New(quietConfig(), []string{shard.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	valid := string(testBody(t, 1))
	for _, body := range []string{
		valid + ` garbage`,
		valid + `{"x":1}`,
		valid + `]`,
		valid[:len(valid)/2],
		``,
		`{"graph":{"n":8,"edges":[[0,1,1.5]]}}`,
		`{"graph":{"n":8,"edges":[[0,01,1]]}}`,
		`{"graph":{"n":"8"}}`,
		`{"graph":{"n":8,"edges":[[0,0,1]]}}`,
		`{"graph":{"n":-1}}`,
	} {
		direct, err := http.Post(shard.URL+"/v1/solve", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		var want map[string]string
		err = json.NewDecoder(direct.Body).Decode(&want)
		direct.Body.Close()
		if err != nil || direct.StatusCode != http.StatusBadRequest {
			t.Fatalf("%q: shard answered %d (%v), want 400", body, direct.StatusCode, err)
		}
		code, got, _ := postVia(t, rt, []byte(body))
		if code != http.StatusBadRequest || got["error"] != want["error"] {
			t.Errorf("%q: router answered %d %q, want the shard's 400 %q", body, code, got["error"], want["error"])
		}
	}
	if n := svc.Stats().Submitted; n != 0 {
		t.Fatalf("the shard admitted %d submissions, want none", n)
	}
	if f := rt.shards[0].stats().Forwards; f != 0 {
		t.Fatalf("the router forwarded %d bodies, want none", f)
	}
}
