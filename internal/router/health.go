package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"twoecss/internal/obs"
)

// State is a shard's position in the router's health state machine:
//
//	healthy ──consecutive failures──▶ ejected ──backoff elapses──▶ half-open
//	   ▲                                 ▲                            │
//	   │                                 └────────any failure─────────┤
//	   └───────────────────────success────────────────────────────────┘
//
//	healthy ◀──/healthz 200──  draining  ◀──/healthz 503 "draining"── any
//
// Draining is deliberate removal, not failure: the shard finishes its
// in-flight work and keeps answering its prober, so it re-enters rotation
// the moment /healthz reports ok again — no backoff penalty.
type State int8

const (
	StateHealthy State = iota
	StateEjected
	StateHalfOpen
	StateDraining
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateEjected:
		return "ejected"
	case StateHalfOpen:
		return "half-open"
	case StateDraining:
		return "draining"
	}
	return fmt.Sprintf("state(%d)", int8(s))
}

// MarshalJSON renders the state name, not the enum value.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// shard is the router's view of one backend. The circuit breaker combines
// passive signals (forward outcomes) and active ones (prober results); both
// funnel through reportSuccess / reportFailure under mu.
type shard struct {
	id   int
	addr string // base URL, no trailing slash

	mu          sync.Mutex
	state       State
	consecFails int
	backoff     time.Duration // next ejection's length
	until       time.Time     // ejected: when half-open probing may begin

	// Counters, all monotone.
	forwards  int64 // solve attempts sent, retries included
	successes int64
	failures  int64 // connect errors + 5xx counted against the breaker
	ejections int64

	lastErr  string
	lastSeen time.Time // last successful response or probe
}

// ShardStats is the JSON view of one shard in /v1/stats and /healthz.
type ShardStats struct {
	Addr        string `json:"addr"`
	State       State  `json:"state"`
	ConsecFails int    `json:"consec_fails,omitempty"`
	Forwards    int64  `json:"forwards"`
	Successes   int64  `json:"successes"`
	Failures    int64  `json:"failures"`
	Ejections   int64  `json:"ejections"`
	LastError   string `json:"last_error,omitempty"`
}

func (sh *shard) stats() ShardStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return ShardStats{
		Addr:        sh.addr,
		State:       sh.state,
		ConsecFails: sh.consecFails,
		Forwards:    sh.forwards,
		Successes:   sh.successes,
		Failures:    sh.failures,
		Ejections:   sh.ejections,
		LastError:   sh.lastErr,
	}
}

// eligible reports whether new requests may route to the shard right now.
// An ejected shard whose backoff has elapsed transitions to half-open here,
// so the next request (or probe) is its trial.
func (sh *shard) eligible(now time.Time) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch sh.state {
	case StateHealthy, StateHalfOpen:
		return true
	case StateEjected:
		if now.After(sh.until) {
			sh.state = StateHalfOpen
			return true
		}
	}
	return false
}

// reportSuccess is the passive close of the breaker: any successful
// response (or probe) restores the shard to healthy and resets the backoff
// ladder — except that only a probe success brings a draining shard back,
// since a draining shard still answers the requests it already holds. It
// reports whether this call recovered the shard — a transition from any
// out-of-rotation state back to healthy — so the caller can emit exactly
// one recovery event per outage.
func (sh *shard) reportSuccess(cfg Config, probe bool) (recovered bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.successes++
	sh.consecFails = 0
	sh.backoff = cfg.EjectBackoff
	sh.lastErr = ""
	sh.lastSeen = time.Now()
	if sh.state != StateDraining || probe {
		recovered = sh.state != StateHealthy
		sh.state = StateHealthy
	}
	return recovered
}

// reportFailure counts a breaker-relevant failure (connect error or 5xx).
// A half-open shard re-ejects on its first failure; a healthy one ejects
// after cfg.EjectAfter consecutive failures. Each ejection doubles the
// backoff up to ejectBackoffMax. Returns true when this call ejected.
func (sh *shard) reportFailure(cfg Config, cause error) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.failures++
	sh.consecFails++
	if cause != nil {
		sh.lastErr = cause.Error()
	}
	if sh.state == StateEjected || sh.state == StateDraining {
		return false
	}
	if sh.state == StateHalfOpen || sh.consecFails >= cfg.EjectAfter {
		sh.state = StateEjected
		sh.until = time.Now().Add(sh.backoff)
		sh.backoff = min(2*sh.backoff, ejectBackoffMax)
		sh.ejections++
		sh.consecFails = 0
		return true
	}
	return false
}

// setDraining moves the shard out of new-request rotation without the
// ejection penalty: its /healthz said "draining", which is deliberate.
// Reports whether this call changed the state, so repeated drain probes
// produce one event, not a stream.
func (sh *shard) setDraining() bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	changed := sh.state != StateDraining
	sh.state = StateDraining
	sh.lastErr = ""
	sh.lastSeen = time.Now()
	return changed
}

// probe is one active health check. It feeds the same breaker as live
// traffic, and it is the only path that can park a shard in — or recover
// it from — the draining state.
func (rt *Router) probe(sh *shard) {
	client := &http.Client{Timeout: rt.cfg.ProbeTimeout}
	resp, err := client.Get(sh.addr + "/healthz")
	if err != nil {
		if sh.reportFailure(rt.cfg, err) {
			rt.noteEjection(sh, err)
		}
		return
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
	}
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<10)).Decode(&body)
	switch {
	case resp.StatusCode == http.StatusOK:
		if sh.reportSuccess(rt.cfg, true) {
			rt.emit(obs.Event{Type: obs.EvRouterShardRecovered, Shard: sh.addr})
		}
	case resp.StatusCode == http.StatusServiceUnavailable && body.Status == "draining":
		if sh.setDraining() {
			rt.emit(obs.Event{Type: obs.EvRouterShardDrain, Shard: sh.addr})
		}
	default:
		err := fmt.Errorf("healthz HTTP %d", resp.StatusCode)
		if sh.reportFailure(rt.cfg, err) {
			rt.noteEjection(sh, err)
		}
	}
}

// prober drives the active health checks until the router closes.
func (rt *Router) prober() {
	defer rt.wg.Done()
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
		}
		var wg sync.WaitGroup
		for _, sh := range rt.shards {
			wg.Add(1)
			go func(sh *shard) {
				defer wg.Done()
				rt.probe(sh)
			}(sh)
		}
		wg.Wait()
	}
}
