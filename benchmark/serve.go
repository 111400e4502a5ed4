package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"twoecss/internal/obs"
	"twoecss/internal/router"
	"twoecss/internal/service"
	"twoecss/internal/store"
)

// shard is one in-process solver service behind its own HTTP server,
// configured like cmd/ecssd's defaults with a disk store.
type shard struct {
	svc *service.Service
	o   *obs.Obs
	srv *httptest.Server
	dir string
}

// deployment is the serving stack of a workload: one shard, or a router
// over several. Requests enter at url. Spans are recorded into the tracer
// the deployment currently holds; with none, the wrappers cost one atomic
// load per request.
type deployment struct {
	shards []*shard
	rt     *router.Router
	rsrv   *httptest.Server
	url    string
	client *http.Client
	tracer atomic.Pointer[tracer]
}

// Serving configuration, as cmd/ecssd and cmd/ecssrouter default it.
const (
	queueDepth    = 256
	cacheEntries  = 512
	storeMaxBytes = 256 << 20
	profileRounds = 512
)

// deploy starts nShards shards, each with a store in a fresh directory
// under tmp, and a router in front of them when routed. The shards share
// this machine's CPUs, so each gets an equal share of solver workers, as
// ecssd gives one worker per CPU of its own machine.
func deploy(tmp string, nShards int, routed bool) (*deployment, error) {
	d := &deployment{client: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1024,
		MaxIdleConnsPerHost: 1024,
	}}}
	for i := 0; i < nShards; i++ {
		sh, err := d.startShard(tmp, max(1, runtime.GOMAXPROCS(0)/nShards))
		if err != nil {
			d.close()
			return nil, err
		}
		d.shards = append(d.shards, sh)
	}
	d.url = d.shards[0].srv.URL
	if routed {
		addrs := make([]string, len(d.shards))
		for i, sh := range d.shards {
			addrs[i] = sh.srv.URL
		}
		rt, err := router.New(router.Config{Obs: obs.New()}, addrs)
		if err != nil {
			d.close()
			return nil, err
		}
		d.rt = rt
		d.rsrv = httptest.NewServer(d.wrap(spanRouter, "", rt.Handler()))
		d.url = d.rsrv.URL
	}
	return d, nil
}

func (d *deployment) startShard(tmp string, workers int) (*shard, error) {
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return nil, err
	}
	o := obs.New()
	st, err := store.OpenWith(dir, store.Options{MaxBytes: storeMaxBytes, Bus: o.Bus})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("open store: %w", err)
	}
	svc := service.New(service.Config{
		Workers:       workers,
		QueueDepth:    queueDepth,
		CacheEntries:  cacheEntries,
		Store:         st,
		Obs:           o,
		ProfileRounds: profileRounds,
	})
	// Service spans carry the shard's address, which is how a router names
	// the shard whose answer it relayed.
	srv := httptest.NewUnstartedServer(nil)
	srv.Config.Handler = d.wrap(spanService, "http://"+srv.Listener.Addr().String(), svc.Handler())
	srv.Start()
	return &shard{svc: svc, o: o, srv: srv, dir: dir}, nil
}

// wrap records a span named name around every solve request h serves
// while the deployment holds a tracer.
func (d *deployment) wrap(name, where string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := d.tracer.Load()
		if tr == nil || r.URL.Path != "/v1/solve" {
			h.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		h.ServeHTTP(w, r)
		tr.add(name, r.Header.Get(obs.RequestIDHeader), where, start, tr.now())
	})
}

// reply is a decoded solve response and the shard a router relayed it from.
type reply struct {
	service.JobResponse
	shard string
}

// post sends the solve request of in under s.req and records the outcome
// in s. It returns the reply of a completed solve and nil otherwise; the
// caller checks the result bytes.
func (d *deployment) post(in *input, s *sample) *reply {
	tr := d.tracer.Load()
	var start int64
	if tr != nil {
		start = tr.now()
	}
	r, err := d.send(in.body, s.req)
	if tr != nil {
		tr.add(spanClient, s.req, "", start, tr.now())
	}
	if err != nil {
		s.err = err.Error()
		return nil
	}
	s.cached, s.elapsedMS, s.shard = r.Cached, r.ElapsedMS, r.shard
	if r.Status != service.StatusDone || len(r.Result) == 0 {
		s.err = fmt.Sprintf("job %s without a result: %s", r.Status, r.Error)
		return nil
	}
	s.ok = true
	return r
}

func (d *deployment) send(body []byte, reqID string) (*reply, error) {
	req, err := http.NewRequest(http.MethodPost, d.url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.RequestIDHeader, reqID)
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	r := &reply{shard: resp.Header.Get(obs.ShardHeader)}
	if err := json.Unmarshal(raw, &r.JobResponse); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return r, nil
}

// counters are the serving stack's own counts, summed over shards.
type counters struct {
	solves, memHits, storeHits, mmapMaps, fallbacks, published int64
	retries, hedges, hedgesWon                                 int64
	routed                                                     bool // the stack has a router
}

func (d *deployment) counters() counters {
	var c counters
	for _, sh := range d.shards {
		st := sh.svc.Stats()
		c.solves += st.Solves
		c.memHits += st.CacheHits
		c.storeHits += st.StoreHits
		if st.Store != nil {
			c.mmapMaps += st.Store.Mmap.Maps
			c.fallbacks += st.Store.Mmap.Fallbacks
		}
		c.published += int64(sh.o.Bus.Stats().Published)
	}
	if d.rt != nil {
		st := d.rt.Stats()
		c.retries, c.hedges, c.hedgesWon, c.routed = st.Retries, st.Hedges, st.HedgesWon, true
	}
	return c
}

// plus adds o's counts to c's, scaled by sign (1 or -1).
func (c counters) plus(o counters, sign int64) counters {
	return counters{
		solves: c.solves + sign*o.solves, memHits: c.memHits + sign*o.memHits, storeHits: c.storeHits + sign*o.storeHits,
		mmapMaps: c.mmapMaps + sign*o.mmapMaps, fallbacks: c.fallbacks + sign*o.fallbacks, published: c.published + sign*o.published,
		retries: c.retries + sign*o.retries, hedges: c.hedges + sign*o.hedges, hedgesWon: c.hedgesWon + sign*o.hedgesWon,
		routed: c.routed,
	}
}

// close stops the router, drains every shard and removes their stores.
func (d *deployment) close() error {
	if d.rt != nil {
		d.rt.Close()
		d.rsrv.Close()
	}
	var first error
	for _, sh := range d.shards {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := sh.svc.Drain(ctx); err != nil && first == nil {
			first = fmt.Errorf("drain shard: %w", err)
		}
		cancel()
		sh.srv.Close()
		os.RemoveAll(sh.dir)
	}
	d.client.CloseIdleConnections()
	// The router forwards through the default transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return first
}
