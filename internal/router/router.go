// Package router is the fault-tolerant routing tier in front of N ecssd
// shards (DESIGN.md §10). Solve requests are consistent-hashed on the
// instance's content hash (graph.Hash prefix), so one graph always lands on
// the same shard's warm cache; every key also has a stable failover order
// over the remaining shards. The router survives any
// single shard's failure or drain: active /healthz probes plus a passive
// consecutive-failure circuit breaker (exponential backoff, half-open
// trials) eject dead shards, and a forward tries the key's eligible shards
// one at a time in ring order, retrying connect errors, 5xx, 429 and 503 on
// the next shard after a bounded jittered delay. Results are
// content-addressed and the solver is deterministic, so any shard can
// (re)produce byte-identical bytes for any key: failover needs no
// replication protocol, only a warm or cold re-solve. Job ids are
// shard-local: every GET /v1/jobs/{id}... route fans out to the shards and
// streams the one that knows the job. The router keeps no copy of its
// shards' events.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"twoecss/internal/faults"
	"twoecss/internal/obs"
	"twoecss/internal/service"
)

// Config tunes the router. Zero values select the documented defaults.
type Config struct {
	// ProbeInterval is the active health-check period (default 500ms);
	// ProbeTimeout bounds one probe (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// EjectAfter is the consecutive-failure threshold that trips the
	// breaker (default 3). EjectBackoff is the first ejection's length
	// (default 500ms), doubling per re-ejection up to ejectBackoffMax.
	EjectAfter   int
	EjectBackoff time.Duration
	// RetryJitter is the upper bound of the uniform random delay before
	// each retry attempt, decorrelating retry storms (default 25ms).
	RetryJitter time.Duration
	// SLOLatency is the route-latency SLO threshold: a routed 2xx counting
	// as "good" must be relayed within it (default 2s). Objectives are fixed
	// (99% latency, 99.9% availability), exported as ecss_slo_* burn rates.
	SLOLatency time.Duration
	// Obs is the router's observability hub (nil: a private one is
	// created). The router publishes its own router.* events on its bus
	// and registers its metrics there; shard events stay on the shards.
	Obs *obs.Obs
}

// vnodes is the number of virtual ring points per shard; ejectBackoffMax
// caps the doubling ejection backoff.
const (
	vnodes          = 64
	ejectBackoffMax = 15 * time.Second
)

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.EjectBackoff <= 0 {
		c.EjectBackoff = 500 * time.Millisecond
	}
	if c.RetryJitter < 0 {
		c.RetryJitter = 0
	} else if c.RetryJitter == 0 {
		c.RetryJitter = 25 * time.Millisecond
	}
	if c.SLOLatency <= 0 {
		c.SLOLatency = 2 * time.Second
	}
	return c
}

// maxRelayBytes bounds one buffered backend response; matches the service's
// own request bound.
const maxRelayBytes = 1 << 28

// Router fronts a fixed shard set. Create with New, stop with Close.
type Router struct {
	cfg    Config
	shards []*shard
	ring   *ring
	client *http.Client
	// o is the observability hub (never nil after New); sloLatency and
	// sloAvail are the declared routing SLOs (observe.go).
	o          *obs.Obs
	sloLatency *obs.SLO
	sloAvail   *obs.SLO

	requests  atomic.Int64 // solve requests received
	retries   atomic.Int64 // extra attempts after a retryable failure
	ejections atomic.Int64 // breaker trips, active + passive
	noShard   atomic.Int64 // requests failed for want of any eligible shard
	draining  atomic.Bool

	stop chan struct{}
	wg   sync.WaitGroup // the prober
}

// New builds a router over shardAddrs (base URLs) and starts its active
// prober. All shards start healthy; the first probe round corrects that
// within one ProbeInterval.
func New(cfg Config, shardAddrs []string) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(shardAddrs) == 0 {
		return nil, errors.New("router: need at least one shard")
	}
	rt := &Router{
		cfg: cfg,
		// Transport defaults suffice; no overall client timeout because
		// wait=true solves legitimately block. Cancellation is per-request
		// via context.
		client: &http.Client{},
		o:      cfg.Obs,
		stop:   make(chan struct{}),
	}
	if rt.o == nil {
		rt.o = obs.New()
	}
	seen := make(map[string]bool, len(shardAddrs))
	ids := make([]string, 0, len(shardAddrs))
	for i, addr := range shardAddrs {
		addr = strings.TrimRight(strings.TrimSpace(addr), "/")
		if addr == "" || seen[addr] {
			return nil, fmt.Errorf("router: empty or duplicate shard address %q", shardAddrs[i])
		}
		seen[addr] = true
		ids = append(ids, addr)
		rt.shards = append(rt.shards, &shard{
			id:      i,
			addr:    addr,
			state:   StateHealthy,
			backoff: cfg.EjectBackoff,
		})
	}
	rt.ring = newRing(ids)
	rt.registerMetrics()
	rt.wg.Add(1)
	go rt.prober()
	return rt, nil
}

// Close stops the prober. In-flight forwards finish on their own contexts.
func (rt *Router) Close() {
	close(rt.stop)
	rt.wg.Wait()
}

// MarkDraining flips the router's own /healthz to 503 draining; forwarding
// continues so in-flight and straggler requests still get answers.
func (rt *Router) MarkDraining() {
	rt.draining.Store(true)
	rt.emit(obs.Event{Type: obs.EvRouterDrain})
}

func (rt *Router) noteEjection(sh *shard, cause error) {
	rt.ejections.Add(1)
	e := obs.Event{Type: obs.EvRouterEject, Shard: sh.addr}
	if cause != nil {
		e.Err = cause.Error()
	}
	rt.emit(e)
}

// candidates returns the key's eligible shards in ring preference order:
// the primary first, then the failover tail. Draining and ejected
// shards are skipped; an ejected shard past its backoff re-enters here as
// half-open.
func (rt *Router) candidates(key uint64) []*shard {
	now := time.Now()
	order := rt.ring.order(key)
	out := make([]*shard, 0, len(order))
	for _, idx := range order {
		if sh := rt.shards[idx]; sh.eligible(now) {
			out = append(out, sh)
		}
	}
	return out
}

// attemptResult is one backend attempt's outcome, buffered in full so a
// failed attempt can be classified before anything reaches the client.
type attemptResult struct {
	shard  *shard
	status int
	header http.Header
	body   []byte
	err    error
}

// deliverable reports whether the response should be relayed to the client
// rather than retried on another shard: any response the backend produced
// deliberately about THIS request (2xx/4xx/504), as opposed to transport
// errors, 5xx, and shed/draining statuses that another replica may well
// answer.
func (a *attemptResult) deliverable() bool {
	if a.err != nil {
		return false
	}
	switch {
	case a.status == http.StatusTooManyRequests, a.status == http.StatusServiceUnavailable:
		return false
	case a.status >= 500 && a.status != http.StatusGatewayTimeout:
		// 504 is the deadline-DOA contract — request-intrinsic, retrying
		// elsewhere would burn the remaining deadline for the same answer.
		return false
	}
	return true
}

// breakerRelevant reports whether the failure should count against the
// shard's circuit breaker: connect errors and 5xx crashes, but not 429
// (alive, shedding) or 503 (alive, draining — handled by state instead).
func (a *attemptResult) breakerRelevant() bool {
	if a.err != nil {
		return true
	}
	return a.status >= 500 && a.status != http.StatusServiceUnavailable && a.status != http.StatusGatewayTimeout
}

// attempt posts body to sh, buffering the full response. jitter bounds a
// random delay before the send (retry decorrelation); a canceled context
// aborts both the delay and the request. Every attempt of one forward
// carries the same request id, so the shards' traces stitch into one.
func (rt *Router) attempt(ctx context.Context, sh *shard, reqID string, body []byte, jitter time.Duration) *attemptResult {
	res := &attemptResult{shard: sh}
	if jitter > 0 {
		t := time.NewTimer(time.Duration(rand.Int63n(int64(jitter))))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			res.err = ctx.Err()
			return res
		}
	}
	sh.mu.Lock()
	sh.forwards++
	sh.mu.Unlock()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.addr+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, reqID)
	resp, err := rt.client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	res.header = resp.Header
	res.body, res.err = io.ReadAll(io.LimitReader(resp.Body, maxRelayBytes))
	return res
}

// errNoShard is returned (as a 503) when no shard is eligible for a key.
var errNoShard = errors.New("router: no healthy shard available")

// forward drives one client request to a deliverable response. It tries
// cands in ring order, one attempt per shard, waiting a jittered delay
// before each retry, and returns the first deliverable response; when every
// shard has failed it returns the last failure. A done ctx (client gone)
// ends the forward without a verdict on the shard it was waiting for.
func (rt *Router) forward(ctx context.Context, reqID string, body []byte, cands []*shard) (*attemptResult, error) {
	if len(cands) == 0 {
		rt.noShard.Add(1)
		rt.emit(obs.Event{Type: obs.EvRouterNoShard, Req: reqID})
		return nil, errNoShard
	}
	var last *attemptResult
	for i, sh := range cands {
		var jitter time.Duration
		if i > 0 {
			rt.retries.Add(1)
			rt.emit(obs.Event{Type: obs.EvRouterRetry, Req: reqID, Shard: sh.addr,
				Err: failureCause(last).Error()})
			jitter = rt.cfg.RetryJitter
		}
		res := rt.attempt(ctx, sh, reqID, body, jitter)
		if res.deliverable() {
			if recovered := sh.reportSuccess(rt.cfg, false); recovered {
				rt.emit(obs.Event{Type: obs.EvRouterShardRecovered, Shard: sh.addr})
			}
			return res, nil
		}
		if err := ctx.Err(); err != nil {
			// The client went away mid-attempt: not a shard verdict.
			return nil, err
		}
		if res.breakerRelevant() {
			if sh.reportFailure(rt.cfg, failureCause(res)) {
				rt.noteEjection(sh, failureCause(res))
			}
		} else if res.status == http.StatusServiceUnavailable {
			// The shard told us it is draining; believe it immediately
			// instead of waiting for the next probe round.
			if sh.setDraining() {
				rt.emit(obs.Event{Type: obs.EvRouterShardDrain, Shard: sh.addr})
			}
		}
		last = res
	}
	return last, nil
}

func failureCause(res *attemptResult) error {
	if res.err != nil {
		return res.err
	}
	return fmt.Errorf("HTTP %d", res.status)
}

// Handler returns the router's HTTP API, a drop-in superset of one shard's:
//
//	POST /v1/solve             routed by content hash, retried across shards
//	GET  /v1/jobs/{id}         fanned out to eligible shards, first 200 streamed
//	GET  /v1/jobs/{id}/stream  per-job SSE, fanned out the same way
//	GET  /v1/jobs/{id}/trace   job event timeline, fanned out the same way
//	GET  /v1/jobs/{id}/profile engine round profile, fanned out the same way
//	GET  /v1/events            the router's own router.* events
//	GET  /v1/stats             router + per-shard health and counters
//	GET  /metrics              Prometheus text exposition
//	GET  /healthz              200 while >=1 shard is eligible, else (or draining) 503
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", rt.handleSolve)
	for _, p := range []string{"", "/stream", "/trace", "/profile"} {
		mux.HandleFunc("GET /v1/jobs/{id}"+p, rt.fanoutGet)
	}
	mux.HandleFunc("GET /v1/events", rt.o.Bus.ServeFirehose)
	mux.HandleFunc("GET /v1/stats", rt.handleStats)
	mux.Handle("GET /metrics", rt.o.Metrics.Handler())
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	return mux
}

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.requests.Add(1)
	// The router is usually the first tier to see the request: mint the
	// trace id here (or adopt the client's) so every shard attempt of this
	// forward shares it, and echo it on all responses including errors.
	reqID := r.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, reqID)
	if err := faults.Point("router.forward"); err != nil {
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	}
	body, err := service.ReadBody(w, r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "read body: " + err.Error()})
		return
	}
	// The shard's own decoder and digest: the router refuses exactly the
	// bodies a shard would, with the same text, and routes on the cache
	// key without building the graph.
	var req service.SolveRequest
	if err := req.UnmarshalJSON(body); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	ghash, err := req.Graph.Hash()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad graph: " + err.Error()})
		return
	}
	res, err := rt.forward(r.Context(), reqID, body, rt.candidates(keyPoint(ghash)))
	// SLO classification: the routing tier is available when it relayed a
	// deliverable non-5xx answer; 2xx relays additionally count against the
	// route-latency objective, timed from receipt so failed attempts and
	// retry jitter count too.
	good := err == nil && res.err == nil && res.status < http.StatusInternalServerError
	rt.sloAvail.Observe(good)
	if good && res.status < http.StatusMultipleChoices {
		rt.sloLatency.ObserveLatency(time.Since(start), rt.cfg.SLOLatency)
	}
	switch {
	case errors.Is(err, errNoShard):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	case err != nil:
		// Client context canceled/expired mid-forward.
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	case res.err != nil:
		// Every candidate failed at the transport layer.
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": res.err.Error()})
		return
	}
	relay(w, res)
}

// relay writes a buffered backend response to the client, preserving the
// contract-bearing headers (Retry-After on 429/503 in particular) and
// naming the shard whose attempt won so job ids — shard-local — can be
// followed up against the right backend.
func relay(w http.ResponseWriter, res *attemptResult) {
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if res.shard != nil {
		w.Header().Set(obs.ShardHeader, res.shard.addr)
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// fanoutGet serves every GET /v1/jobs/{id}... route. Job ids are
// shard-local, so it asks the eligible shards in id order for the same path,
// query and Last-Event-ID, and streams the first 200 through, flushing
// after each read so a job's SSE events arrive live. No other shard could
// answer 200 for that id, so committing to the first one loses nothing.
func (rt *Router) fanoutGet(w http.ResponseWriter, r *http.Request) {
	path := r.URL.EscapedPath()
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	now := time.Now()
	for _, sh := range rt.shards {
		if !sh.eligible(now) {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, sh.addr+path, nil)
		if err != nil {
			continue
		}
		if v := r.Header.Get("Last-Event-ID"); v != "" {
			req.Header.Set("Last-Event-ID", v)
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			// Read to the end so the connection goes back to the pool.
			io.Copy(io.Discard, io.LimitReader(resp.Body, maxRelayBytes))
			resp.Body.Close()
			continue
		}
		defer resp.Body.Close()
		for _, h := range []string{"Content-Type", "Cache-Control", "X-Accel-Buffering"} {
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.Header().Set(obs.ShardHeader, sh.addr)
		w.WriteHeader(http.StatusOK)
		fl, _ := w.(http.Flusher)
		buf := make([]byte, 16<<10)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				if _, werr := w.Write(buf[:n]); werr != nil {
					return
				}
				if fl != nil {
					fl.Flush()
				}
			}
			if err != nil {
				return
			}
		}
	}
	writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("%q not found on any shard", r.URL.Path)})
}

// Stats is the router's /v1/stats document: its own routing counters plus
// the per-shard health view its breaker and prober maintain.
type Stats struct {
	Shards   []ShardStats `json:"shards"`
	Eligible int          `json:"eligible"`

	Requests  int64 `json:"requests"`
	Retries   int64 `json:"retries"`
	Ejections int64 `json:"ejections"`
	NoShard   int64 `json:"no_shard"`

	// Hedges and HedgesWon are always 0: the router no longer hedges. They
	// stay only because the repository benchmark (benchmark/serve.go) reads
	// these two fields.
	Hedges    int64 `json:"hedges"`
	HedgesWon int64 `json:"hedges_won"`

	// Faults mirrors the armed fault plan's counters (router.forward).
	Faults map[string]faults.PointStats `json:"faults,omitempty"`
}

// Stats snapshots the router counters.
func (rt *Router) Stats() Stats {
	st := Stats{
		Requests:  rt.requests.Load(),
		Retries:   rt.retries.Load(),
		Ejections: rt.ejections.Load(),
		NoShard:   rt.noShard.Load(),
		Faults:    faults.Snapshot(),
	}
	now := time.Now()
	for _, sh := range rt.shards {
		st.Shards = append(st.Shards, sh.stats())
		if sh.eligible(now) {
			st.Eligible++
		}
	}
	return st
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats())
}

// handleHealthz reports router readiness: serving (>=1 eligible shard),
// degraded to 503 when every shard is out, and 503 draining once
// MarkDraining was called.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := rt.Stats()
	if rt.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining", "eligible": st.Eligible})
		return
	}
	if st.Eligible == 0 {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "no-healthy-shard", "eligible": 0})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "eligible": st.Eligible})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
