// Command ecssrouter is the fault-tolerant routing tier in front of N ecssd
// shards (internal/router, DESIGN.md §10). It consistent-hashes each solve
// on the instance's content hash so identical graphs hit the same shard's
// warm cache, health-checks every shard actively (/healthz probes, drain
// detection) and passively (consecutive-failure circuit breaker with
// exponential backoff and half-open trials), and tries a key's shards one
// at a time in ring order: connect errors, 5xx, 429 and 503 retry on the
// next shard after a bounded jittered delay. The solver is deterministic
// and results are content-addressed, so any shard serves byte-identical
// bytes for a key: one shard's kill -9 costs cache warmth, never
// acknowledged results.
//
//	POST /v1/solve             routed, retried
//	GET  /v1/jobs/{id}         fanned out to eligible shards; the owning
//	                           shard's answer is streamed through
//	GET  /v1/jobs/{id}/stream  per-job SSE, fanned out the same way
//	GET  /v1/jobs/{id}/trace   per-job event trace, fanned out the same way
//	GET  /v1/jobs/{id}/profile engine round profile, fanned out the same way
//	GET  /v1/events            SSE of the router's own router.* events
//	GET  /v1/stats             router + per-shard health, ejections, retries
//	GET  /metrics              Prometheus text exposition (shard-tagged engine
//	                           rounds and messages, routing SLO burn rates)
//	GET  /healthz              200 while >=1 shard eligible; 503 otherwise/draining
//
// Each shard's own events stay on that shard's /v1/events; the router holds
// no connection to a shard between requests and probes.
//
// SIGINT/SIGTERM marks the router draining (healthz 503), then gracefully
// finishes in-flight forwards and exits 0. -faults (or ECSS_FAULTS) arms
// the shared injection plan; the router wires the router.forward point.
//
// Usage:
//
//	ecssrouter -addr :8080 -shards http://s1:8081,http://s2:8082,... \
//	           [-probe-interval 500ms] [-probe-timeout 2s] [-eject-after 3]
//	           [-eject-backoff 500ms] [-retry-jitter 25ms] [-slo-latency 2s]
//	           [-drain-timeout 30s] [-debug-addr ADDR] [-faults SPEC]
//
// -debug-addr starts a second listener serving net/http/pprof away from the
// routed API port.
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
	"strings"
	"syscall"
	"time"

	"twoecss/internal/faults"
	"twoecss/internal/router"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ecssrouter:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.String("shards", "", "comma-separated shard base URLs (required)")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "active health-check period")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "health-check timeout")
	ejectAfter := flag.Int("eject-after", 3, "consecutive failures before ejection")
	ejectBackoff := flag.Duration("eject-backoff", 500*time.Millisecond, "first ejection backoff (doubles per re-ejection, up to 15s)")
	retryJitter := flag.Duration("retry-jitter", 25*time.Millisecond, "max random delay before each retry")
	sloLatency := flag.Duration("slo-latency", 2*time.Second, "route-latency SLO threshold for burn-rate exposition")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on shutdown")
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
		log.Printf("ecssrouter: fault injection ARMED: %v", faults.Points())
	}

	var addrs []string
	for _, a := range strings.Split(*shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	rt, err := router.New(router.Config{
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		EjectAfter:    *ejectAfter,
		EjectBackoff:  *ejectBackoff,
		RetryJitter:   *retryJitter,
		SLOLatency:    *sloLatency,
	}, addrs)
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		go func() {
			log.Printf("ecssrouter: debug/pprof listening on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("ecssrouter: debug listener: %v", err)
			}
		}()
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: rt.Handler(),
		// No overall Read/WriteTimeout: wait=true solves legitimately block
		// through the forward; header reads and idle conns stay bounded.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.ListenAndServe()
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.Printf("ecssrouter: listening on %s, %d shards %v", *addr, len(addrs), addrs)

	select {
	case err := <-errCh:
		rt.Close()
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills hard

	log.Printf("ecssrouter: signal received, draining (budget %s)", *drainTimeout)
	rt.MarkDraining() // healthz flips to 503 so upstream balancers eject us
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	rt.Close()
	st := rt.Stats()
	log.Printf("ecssrouter: drained clean: %d requests, %d retries, %d ejections, %d no-shard",
		st.Requests, st.Retries, st.Ejections, st.NoShard)
	return nil
}
