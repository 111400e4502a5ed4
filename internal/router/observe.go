package router

// This file is the router's observability wiring (DESIGN.md §11): router.*
// events on the shared bus, the per-shard firehose aggregator that
// republishes every shard's events tagged with the origin shard address,
// the routing SLOs and the shard-tagged engine ledger on /metrics, and the
// SSE proxy that follows a shard-local job stream through the router.

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"twoecss/internal/obs"
	"twoecss/internal/service"
)

// Obs returns the router's observability hub (never nil after New).
func (rt *Router) Obs() *obs.Obs { return rt.o }

func (rt *Router) emit(e obs.Event) { rt.o.Bus.Publish(e) }

// registerMetrics declares the routing SLOs and registers the collector
// re-exporting the shards' engine ledgers at scrape time.
func (rt *Router) registerMetrics() {
	m := rt.o.Metrics
	// Declared routing SLOs (DESIGN.md §12.4): requests good iff relayed as
	// a 2xx within Config.SLOLatency (99% target), and good iff answered
	// with a deliverable non-5xx at all (99.9% availability target).
	rt.sloLatency = obs.NewSLO(m, "route-latency", 0.99)
	rt.sloAvail = obs.NewSLO(m, "route-availability", 0.999)
	m.Collect(func(emit func(obs.Sample)) {
		c := func(name, help string, v float64, labels ...obs.Label) {
			emit(obs.Sample{Name: name, Help: help, Type: "counter", Value: v, Labels: labels})
		}
		for _, row := range rt.scrapeShardEngines() {
			l := obs.L("shard", row.addr)
			c("ecss_engine_rounds_total", "Engine rounds consumed across all solves, by accounting kind.",
				float64(row.engine.SimulatedRounds), l, obs.L("kind", "simulated"))
			c("ecss_engine_rounds_total", "Engine rounds consumed across all solves, by accounting kind.",
				float64(row.engine.ChargedRounds), l, obs.L("kind", "charged"))
			c("ecss_engine_messages_total", "Engine messages delivered across all solves.",
				float64(row.engine.Messages), l)
		}
	})
}

// shardEngineTimeout bounds the per-scrape shard /v1/stats fetch: a scrape
// must answer promptly even with a dead shard in the set.
const shardEngineTimeout = 750 * time.Millisecond

type shardEngineRow struct {
	addr   string
	engine service.EngineStats
}

// scrapeShardEngines fetches every eligible shard's engine cost ledger from
// its /v1/stats, concurrently and bounded by shardEngineTimeout, so the
// router's /metrics exposes the fleet's round/message totals shard-tagged.
// Shards that fail to answer are omitted from this scrape (the series are
// cumulative counters on the shard side, so gaps read as stalls, not
// resets).
func (rt *Router) scrapeShardEngines() []shardEngineRow {
	ctx, cancel := context.WithTimeout(context.Background(), shardEngineTimeout)
	defer cancel()
	now := time.Now()
	rows := make([]shardEngineRow, len(rt.shards))
	ok := make([]bool, len(rt.shards))
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		if !sh.eligible(now) {
			continue
		}
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.addr+"/v1/stats", nil)
			if err != nil {
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var doc struct {
				Engine service.EngineStats `json:"engine"`
			}
			if json.NewDecoder(resp.Body).Decode(&doc) != nil {
				return
			}
			rows[i] = shardEngineRow{addr: sh.addr, engine: doc.Engine}
			ok[i] = true
		}(i, sh)
	}
	wg.Wait()
	out := rows[:0]
	for i := range rows {
		if ok[i] {
			out = append(out, rows[i])
		}
	}
	return out
}

// aggregateReconnect paces firehose reconnects to a shard that is down or
// closed the stream.
const aggregateReconnect = time.Second

// aggregate follows one shard's /v1/events firehose for the router's
// lifetime, republishing every event on the router bus tagged with the
// origin shard address; the shard's own sequence number is preserved in
// ShardSeq and the router bus re-stamps Seq. Reconnects resume from the
// last republished ShardSeq (Last-Event-ID against the shard's replay
// ring), so a short shard outage loses nothing still retained there.
func (rt *Router) aggregate(sh *shard) {
	defer rt.wg.Done()
	var lastSeq uint64
	for {
		select {
		case <-rt.stop:
			return
		default:
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			select {
			case <-rt.stop:
				cancel()
			case <-ctx.Done():
			}
		}()
		lastSeq = rt.followFirehose(ctx, sh, lastSeq)
		cancel()
		select {
		case <-rt.stop:
			return
		case <-time.After(aggregateReconnect):
		}
	}
}

// followFirehose holds one SSE connection to sh's firehose, returning the
// last shard sequence number relayed (for resume).
func (rt *Router) followFirehose(ctx context.Context, sh *shard, fromSeq uint64) uint64 {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, sh.addr+"/v1/events", nil)
	if err != nil {
		return fromSeq
	}
	if fromSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(fromSeq, 10))
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return fromSeq
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fromSeq
	}
	last := fromSeq
	_ = obs.ReadSSE(resp.Body, func(ev obs.SSEvent) error {
		var e obs.Event
		if err := json.Unmarshal(ev.Data, &e); err != nil {
			return nil // tolerate foreign frames; the stream goes on
		}
		last = e.Seq
		e.Shard, e.ShardSeq, e.Seq = sh.addr, e.Seq, 0
		rt.o.Bus.Publish(e)
		return nil
	})
	return last
}

// handleJobStream proxies a per-job SSE stream from the shard that knows
// the job: job ids are shard-local, so the router locates the owner by
// fanning out the stream request and pipes the first 200 through, flushing
// per chunk so events arrive live. Last-Event-ID / ?from= pass through to
// the shard untouched.
func (rt *Router) handleJobStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	now := time.Now()
	for _, sh := range rt.shards {
		if !sh.eligible(now) {
			continue
		}
		url := sh.addr + "/v1/jobs/" + id + "/stream"
		if r.URL.RawQuery != "" {
			url += "?" + r.URL.RawQuery
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
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
			resp.Body.Close()
			continue
		}
		defer resp.Body.Close()
		fl, _ := w.(http.Flusher)
		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		h.Set("X-Accel-Buffering", "no")
		h.Set(obs.ShardHeader, sh.addr)
		w.WriteHeader(http.StatusOK)
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
	writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job " + strconv.Quote(id) + " on any shard"})
}
