package router

// This file is the router's observability wiring (DESIGN.md §11): its own
// router.* events on its bus, the routing SLOs, and the shard-tagged engine
// ledger on /metrics. Shard events stay on the shards; a job's stream,
// trace and profile are fanned out to them like any job lookup.

import (
	"context"
	"encoding/json"
	"net/http"
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
