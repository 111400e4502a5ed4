// Command ecssd is the long-running 2-ECSS solver service: it fronts the
// Theorem 1.1 pipeline with a bounded job queue, a solver worker pool
// running each solve on its own CONGEST network, and a content-addressed
// result cache (internal/service, DESIGN.md §7), exposed as an HTTP JSON API:
//
//	POST /v1/solve     submit a solve ({"graph":{"n":..,"edges":[[u,v,w],..]},
//	                   "options":{"eps":..,"variant":..,"mst":..,"root":..},
//	                   "wait":true})
//	GET  /v1/jobs/{id} job status, progress phase, and result
//	GET  /v1/jobs/{id}/stream  live SSE of the job's lifecycle events
//	GET  /v1/jobs/{id}/trace   recorded per-job event trace (JSON)
//	GET  /v1/jobs/{id}/profile engine round profile and per-stage costs (JSON)
//	GET  /v1/events    SSE firehose of every lifecycle event (?types= filter)
//	GET  /v1/stats     queue/cache counters
//	GET  /metrics      Prometheus text exposition
//	GET  /healthz      liveness
//
// With -store-dir the result cache is disk-backed and crash-safe
// (internal/store, DESIGN.md §8): completed solves are written through to
// content-addressed files, a restart replays the store's index — verifying
// checksums and dropping corrupt entries — and a memory-cache miss reads
// the store before solving, so previously solved instances are served
// byte-identically with no new solves. -store-max-bytes bounds the on-disk
// size via LRU eviction. Every store read re-reads the entry file and
// verifies its checksum: a file that fails is unlinked and the request
// re-solves it. A job served from the store keeps its own copy of the
// result. With -store-read-only the directory is never mutated, so N
// shards can serve one warm store concurrently (behind ecssrouter, say),
// sharing the kernel's page cache for its files.
//
// SIGINT/SIGTERM triggers a graceful drain: admission stops (503), queued
// jobs finish, pending store writes are flushed, then the process exits 0.
//
// For chaos testing, -faults (or the ECSS_FAULTS environment variable; the
// flag wins) arms the internal/faults injection plan — see that package for
// the spec grammar (DESIGN.md §9).
//
// Usage:
//
//	ecssd [-addr :8080] [-queue 256] [-workers N] [-cache 512]
//	      [-drain-timeout 30s] [-debug-addr ADDR]
//	      [-store-dir DIR] [-store-max-bytes 268435456]
//	      [-profile-rounds 512] [-slo-latency 2s]
//	      [-faults "solve.stage:panic,p=0.01;store.fsync:error,p=0.05"]
//
// -debug-addr starts a second listener serving net/http/pprof (profiles,
// goroutine dumps) away from the public API port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux (-debug-addr)
	"os"
	"os/signal"
	"syscall"
	"time"

	"twoecss/internal/faults"
	"twoecss/internal/obs"
	"twoecss/internal/service"
	"twoecss/internal/store"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ecssd:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	queue := flag.Int("queue", 256, "job queue depth (admission bound)")
	workers := flag.Int("workers", 0, "solver workers (<=0: GOMAXPROCS)")
	cache := flag.Int("cache", 512, "result cache entries")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on shutdown")
	storeDir := flag.String("store-dir", "", "disk-backed result store directory (empty: results are not persisted)")
	storeMaxBytes := flag.Int64("store-max-bytes", 256<<20, "on-disk store budget, LRU-evicted (<=0: unbounded)")
	storeReadOnly := flag.Bool("store-read-only", false, "open -store-dir read-only: serve a warm directory without writing, evicting, or unlinking (shareable across shards)")
	profileRounds := flag.Int("profile-rounds", 512, "per-job engine round profile samples (<0: profiling disabled)")
	sloLatency := flag.Duration("slo-latency", 2*time.Second, "solve-latency SLO threshold for burn-rate exposition")
	debugAddr := flag.String("debug-addr", "", "pprof/debug listen address (empty: disabled)")
	faultSpec := flag.String("faults", "", "fault-injection plan (overrides ECSS_FAULTS; see internal/faults)")
	flag.Parse()

	spec := *faultSpec
	if spec == "" {
		spec = os.Getenv("ECSS_FAULTS")
	}
	if spec != "" {
		if err := faults.Arm(spec); err != nil {
			return err
		}
		log.Printf("ecssd: fault injection ARMED: %v", faults.Points())
	}

	// One observability hub per process: the store and the service publish
	// to the same bus, so /v1/events interleaves both layers' lifecycles.
	o := obs.New()

	if *storeReadOnly && *storeDir == "" {
		return errors.New("-store-read-only requires -store-dir")
	}
	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.OpenWith(*storeDir, store.Options{
			MaxBytes: *storeMaxBytes,
			Bus:      o.Bus,
			ReadOnly: *storeReadOnly,
		})
		if err != nil {
			return fmt.Errorf("open store %s: %w", *storeDir, err)
		}
		mode := ""
		if *storeReadOnly {
			mode = " (read-only)"
		}
		sst := st.Stats()
		log.Printf("ecssd: store %s%s: %d entries / %d bytes warm, %d corrupt (dropped)",
			*storeDir, mode, sst.Entries, sst.Bytes, sst.Corruptions)
	}
	svc := service.New(service.Config{
		QueueDepth:    *queue,
		Workers:       *workers,
		CacheEntries:  *cache,
		Store:         st, // service owns it: Drain flushes and closes
		Obs:           o,
		ProfileRounds: *profileRounds,
		SLOLatency:    *sloLatency,
	})
	if *debugAddr != "" {
		go func() {
			log.Printf("ecssd: debug/pprof listening on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("ecssd: debug listener: %v", err)
			}
		}()
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: svc.Handler(),
		// Bound header reads and idle keep-alives so a stalled client
		// cannot hold Shutdown past the drain budget. No overall
		// Read/WriteTimeout: wait=true solve requests legitimately block.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.ListenAndServe()
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := svc.Config()
	log.Printf("ecssd: listening on %s (workers=%d queue=%d cache=%d)",
		*addr, cfg.Workers, cfg.QueueDepth, cfg.CacheEntries)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard

	log.Printf("ecssd: signal received, draining (budget %s)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain the service first so in-flight wait=true requests complete as
	// their jobs finish and new submissions are rejected with 503; then
	// close the listener and idle connections.
	if err := svc.Drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	stats := svc.Stats()
	log.Printf("ecssd: drained clean: %d submitted, %d solves, %d cache hits, %d store hits, %d coalesced, %d failed",
		stats.Submitted, stats.Solves, stats.CacheHits, stats.StoreHits, stats.Coalesced, stats.Failed)
	if stats.Store != nil {
		log.Printf("ecssd: store flushed: %d entries / %d bytes on disk, %d puts, %d evictions, %d corruptions",
			stats.Store.Entries, stats.Store.Bytes, stats.Store.Puts, stats.Store.Evictions,
			stats.Store.Corruptions)
	}
	return nil
}
