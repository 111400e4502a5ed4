// Command loadgen drives a live ecssd with a concurrent mixed-graph-family
// workload and reports throughput, latency percentiles, and the cache hit
// ratio. The workload is a matrix of (family, seed) instances generated
// with graph.ByFamily — the same deterministic construction the rest of the
// repository uses — so replaying a seed re-submits a content-identical
// graph and exercises the service's content-addressed cache.
//
// Gates (CI smoke uses these; each <0 value disables its check):
// -min-cache-hits fails unless the server reports at least that many
// memory-cache hits; -min-store-hits does the same for disk-store hits;
// -max-solves fails if the server ran MORE than that many solver
// invocations — `-max-solves 0` against a warm-restarted ecssd asserts that
// every request was served from the persisted store with zero new solves.
//
// Chaos mode (-chaos) drives a server with armed fault injection: requests
// carry randomized priority classes and deadlines, and every response is
// classified — acknowledged results, explicit deadline expiries, 429/503
// shedding (whose Retry-After contract is asserted), injected 5xx failures,
// and connection errors are all tolerated, but a failure without an explicit
// error message is not. Acknowledged results are appended to -acked-out as
// "name sha256(result)" lines; a later run with -verify-acked FILE (against
// a restarted server) replays exactly those instances and fails if any is no
// longer served, or served with different bytes — the zero-lost-acks gate.
// -min-acked and -min-restored gate the chaos run itself (the latter polls
// the server until the store reports that many reverifier restores).
//
// Multi-target mode (-targets) spreads the workload round-robin over a
// comma-separated list of servers — ecssd shards directly, or one or more
// ecssrouter fronts — and reports outcomes per target, so a shard loss in a
// kill-one chaos run shows up as that target's counted connection errors
// (and nothing else): never a silent failure. -min-acked-per-target gates
// that every target actually acknowledged work.
//
// Stream mode (-stream) submits with wait=false and consumes each job's
// lifecycle over GET /v1/jobs/{id}/stream instead of polling: the SSE
// stream must open, start with an admission event (job.admitted,
// job.cached, or job.coalesced), carry strictly increasing sequence
// numbers, and end with exactly one terminal event — anything else is a
// protocol violation and fails the run. Terminal job.done / job.cached
// outcomes are confirmed acked via GET /v1/jobs/{id}; explicit expiries,
// sheds, and injected faults are tolerated the same way chaos mode
// tolerates them. -min-streamed gates how many protocol-clean streams the
// run must complete.
//
// -check-metrics (any mode) scrapes GET /metrics from every target after
// the load and fails on an unparseable Prometheus exposition. When metrics
// are scraped (-check-metrics or -min-engine-rounds >= 0) the run also
// reports each target's engine cost totals — CONGEST rounds and messages,
// summed over its ecss_engine_rounds_total / ecss_engine_messages_total
// series (a router re-exports its shards' counters shard-tagged, so a
// router target sees the whole fleet behind it) — and -min-engine-rounds
// fails the run unless EVERY target reports at least that many engine
// rounds, asserting the engine telemetry pipeline end to end on each
// daemon: solver -> accounting -> registry -> exposition.
//
// Usage:
//
//	loadgen [-addr http://127.0.0.1:8080] [-targets URL1,URL2,...]
//	        [-duration 10s] [-concurrency 8]
//	        [-n 96] [-families er,grid,ring,random,ba] [-seeds 4]
//	        [-eps 0.25] [-min-cache-hits -1] [-min-store-hits -1]
//	        [-max-solves -1] [-check-metrics]
//	        [-min-engine-rounds -1]
//	        [-stream] [-min-streamed -1]
//	        [-chaos] [-acked-out FILE] [-verify-acked FILE]
//	        [-min-acked -1] [-min-restored -1] [-min-acked-per-target -1]
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"twoecss/internal/graph"
	"twoecss/internal/obs"
	"twoecss/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type workItem struct {
	name string
	req  service.SolveRequest // template; chaos mode varies priority/deadline
	body []byte               // pre-marshaled req for the steady-state path
}

type sample struct {
	ns     int64
	cached bool
}

func run() error {
	addr := flag.String("addr", "http://127.0.0.1:8080", "ecssd base URL")
	targetsFlag := flag.String("targets", "", "comma-separated server base URLs, round-robin per request (overrides -addr)")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	concurrency := flag.Int("concurrency", 8, "concurrent client workers")
	n := flag.Int("n", 96, "vertices per instance")
	families := flag.String("families", "er,grid,ring,random,ba", "comma-separated graph families")
	seeds := flag.Int("seeds", 4, "seeds per family (workload matrix size = families x seeds)")
	eps := flag.Float64("eps", 0.25, "approximation slack")
	minCacheHits := flag.Int64("min-cache-hits", -1, "fail unless the server reports at least this many cache hits (<0: no check)")
	minStoreHits := flag.Int64("min-store-hits", -1, "fail unless the server reports at least this many disk-store hits (<0: no check)")
	maxSolves := flag.Int64("max-solves", -1, "fail if the server ran more than this many solves (<0: no check; 0 gates a warm restart)")
	stream := flag.Bool("stream", false, "stream mode: submit wait=false and consume per-job SSE streams instead of polling")
	minStreamed := flag.Int64("min-streamed", -1, "stream mode: fail unless at least this many protocol-clean streams completed (<0: no check)")
	checkMetrics := flag.Bool("check-metrics", false, "scrape /metrics from every target after the load and fail on an unparseable exposition")
	minEngineRounds := flag.Int64("min-engine-rounds", -1, "fail unless every target's /metrics reports at least this many engine rounds (<0: no check; asserts engine telemetry end to end on each target)")
	chaos := flag.Bool("chaos", false, "chaos mode: mixed priorities and deadlines, fault-tolerant outcome classification")
	ackedOut := flag.String("acked-out", "", "chaos mode: write acknowledged results here as 'name sha256' lines")
	verifyAcked := flag.String("verify-acked", "", "replay the acked file against the server and fail on any lost or altered result")
	minAcked := flag.Int64("min-acked", -1, "chaos mode: fail unless at least this many results were acknowledged (<0: no check)")
	minExpired := flag.Int64("min-expired", -1, "chaos mode: fail unless at least this many requests expired with an explicit deadline error (<0: no check)")
	minRestored := flag.Int64("min-restored", -1, "fail unless the server stores report at least this many reverifier restores in total (<0: no check)")
	minAckedPerTarget := flag.Int64("min-acked-per-target", -1, "chaos mode: fail unless every target acknowledged at least this many results (<0: no check)")
	flag.Parse()

	targets := []string{strings.TrimRight(*addr, "/")}
	if *targetsFlag != "" {
		targets = targets[:0]
		for _, t := range strings.Split(*targetsFlag, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targets = append(targets, strings.TrimRight(t, "/"))
			}
		}
		if len(targets) == 0 {
			return fmt.Errorf("-targets %q names no server", *targetsFlag)
		}
	}
	items, err := buildWorkload(*families, *n, *seeds, *eps)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 5 * time.Minute}
	for _, t := range targets {
		if err := waitHealthy(client, t, 15*time.Second); err != nil {
			return err
		}
	}
	var modeErr error
	switch {
	case *verifyAcked != "":
		// Replay through the first target: via a router that is the whole
		// fleet; against shards directly, any single live one must serve
		// (or deterministically re-produce) every acknowledged byte.
		modeErr = runVerifyAcked(client, targets[0], items, *verifyAcked)
	case *chaos:
		modeErr = runChaos(client, targets, items, *duration, *concurrency, *ackedOut, *minAcked, *minExpired, *minRestored, *minAckedPerTarget)
	case *stream:
		modeErr = runStream(client, targets, items, *duration, *concurrency, *minStreamed)
	default:
		modeErr = runSteady(client, targets, items, *duration, *concurrency, *minCacheHits, *minStoreHits, *maxSolves)
	}
	if modeErr != nil {
		return modeErr
	}
	if *checkMetrics {
		if err := checkAllMetrics(client, targets); err != nil {
			return err
		}
	}
	if *checkMetrics || *minEngineRounds >= 0 {
		return reportEngineTotals(client, targets, *minEngineRounds)
	}
	return nil
}

// reportEngineTotals prints each target's engine cost counters — CONGEST
// rounds and messages, summed over the series of its own exposition — and
// gates the run on -min-engine-rounds per target. Each target is gated
// alone: an ecssd shard reports its own ledger and a router its shards'
// ledgers re-exported shard-tagged, so a fleet sum would count a router's
// shards twice and would let a target whose exposition lost the family
// pass on another target's rounds.
func reportEngineTotals(client *http.Client, targets []string, minEngineRounds int64) error {
	var short []string
	for _, t := range targets {
		resp, err := client.Get(t + "/metrics")
		if err != nil {
			return fmt.Errorf("scrape %s/metrics for engine totals: %w", t, err)
		}
		doc, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return fmt.Errorf("scrape %s/metrics for engine totals: %w", t, rerr)
		}
		rounds, _ := obs.SumSeries(doc, "ecss_engine_rounds_total")
		msgs, _ := obs.SumSeries(doc, "ecss_engine_messages_total")
		fmt.Printf("engine:        %s: %.0f rounds, %.0f messages consumed\n", t, rounds, msgs)
		if minEngineRounds >= 0 && int64(rounds) < minEngineRounds {
			short = append(short, fmt.Sprintf("%s reports %.0f", t, rounds))
		}
	}
	if len(short) > 0 {
		return fmt.Errorf("engine rounds below -min-engine-rounds %d (engine telemetry not flowing): %s",
			minEngineRounds, strings.Join(short, "; "))
	}
	return nil
}

func runSteady(client *http.Client, targets []string, items []workItem, duration time.Duration, concurrency int, minCacheHits, minStoreHits, maxSolves int64) error {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		rr       atomic.Int64 // round-robin target cursor
		samples  []sample
		failures int
		firstErr error
		perOK    = make([]int64, len(targets))
		perFail  = make([]int64, len(targets))
	)
	start := time.Now()
	deadline := start.Add(duration)
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			var local []sample
			localOK := make([]int64, len(targets))
			localFail := make([]int64, len(targets))
			var localErr error
			for time.Now().Before(deadline) {
				it := items[rng.Intn(len(items))]
				ti := int(rr.Add(1)-1) % len(targets)
				t0 := time.Now()
				cached, err := postSolve(client, targets[ti], it.body)
				ns := time.Since(t0).Nanoseconds()
				if err != nil {
					localFail[ti]++
					if localErr == nil {
						localErr = fmt.Errorf("%s via %s: %w", it.name, targets[ti], err)
					}
					continue
				}
				localOK[ti]++
				local = append(local, sample{ns: ns, cached: cached})
			}
			mu.Lock()
			samples = append(samples, local...)
			for i := range targets {
				perOK[i] += localOK[i]
				perFail[i] += localFail[i]
				failures += int(localFail[i])
			}
			if firstErr == nil {
				firstErr = localErr
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)

	if len(samples) == 0 {
		if firstErr != nil {
			return fmt.Errorf("no request succeeded: %w", firstErr)
		}
		return fmt.Errorf("no request completed within %s", duration)
	}
	report(samples, failures, wall, len(items))
	if firstErr != nil {
		fmt.Printf("first error:   %v\n", firstErr)
	}
	if len(targets) > 1 {
		for i, t := range targets {
			fmt.Printf("target %-28s %d ok, %d failed\n", t+":", perOK[i], perFail[i])
		}
	}

	// Gate counters sum over targets: against N shards they partition the
	// traffic; against one router they are its fleet-wide view.
	var total service.Stats
	for _, t := range targets {
		st, err := fetchStats(client, t)
		if err != nil {
			return fmt.Errorf("fetch server stats from %s: %w", t, err)
		}
		fmt.Printf("server stats:  %s: %d submitted, %d solves, %d cache hits, %d store hits, %d coalesced, %d failed\n",
			t, st.Submitted, st.Solves, st.CacheHits, st.StoreHits, st.Coalesced, st.Failed)
		if st.Store != nil {
			fmt.Printf("server store:  %s: %d entries / %d bytes, %d hits, %d misses, %d puts, %d evictions, %d corruptions, %d touch drops\n",
				t, st.Store.Entries, st.Store.Bytes, st.Store.Hits, st.Store.Misses,
				st.Store.Puts, st.Store.Evictions, st.Store.Corruptions, st.Store.TouchDrops)
		}
		total.Submitted += st.Submitted
		total.Solves += st.Solves
		total.CacheHits += st.CacheHits
		total.StoreHits += st.StoreHits
	}
	if minCacheHits >= 0 && total.CacheHits < minCacheHits {
		return fmt.Errorf("servers report %d cache hits, need >= %d", total.CacheHits, minCacheHits)
	}
	if minStoreHits >= 0 && total.StoreHits < minStoreHits {
		return fmt.Errorf("servers report %d store hits, need >= %d", total.StoreHits, minStoreHits)
	}
	if maxSolves >= 0 && total.Solves > maxSolves {
		return fmt.Errorf("servers ran %d solves, allowed <= %d (cold-served traffic on a warm restart)", total.Solves, maxSolves)
	}
	if failures > 0 {
		return fmt.Errorf("%d requests failed", failures)
	}
	return nil
}

// streamOutcome classifies one stream-mode request.
type streamOutcome int

const (
	streamAcked     streamOutcome = iota // terminal done/cached, GET confirms done
	streamExpired                        // explicit deadline expiry
	streamTolerated                      // shed / unavailable / injected fault, explicitly reported
	streamConnErr                        // transport error (server may be restarting)
	streamViolation                      // SSE protocol break — the fatal class
)

// admissionEvents are the event types allowed to open a per-job stream:
// every job enters the system by being admitted, served from cache, or
// coalesced onto an in-flight twin.
var admissionEvents = map[string]bool{
	obs.EvJobAdmitted:  true,
	obs.EvJobCached:    true,
	obs.EvJobCoalesced: true,
}

func runStream(client *http.Client, targets []string, items []workItem, duration time.Duration, concurrency int, minStreamed int64) error {
	// Stream-mode bodies submit wait=false: the lifecycle arrives over SSE,
	// not in the POST response.
	bodies := make([][]byte, len(items))
	for i, it := range items {
		req := it.req
		req.Wait = false
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		bodies[i] = b
	}
	var (
		wg             sync.WaitGroup
		mu             sync.Mutex
		rr             atomic.Int64
		streamed       int64 // protocol-clean streams (ended in a terminal event)
		acked          int64
		expired        int64
		tolerated      int64
		connErrs       int64
		violations     int64
		firstViolation error
	)
	deadline := time.Now().Add(duration)
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(4000 + w)))
			for time.Now().Before(deadline) {
				i := rng.Intn(len(items))
				ti := int(rr.Add(1)-1) % len(targets)
				out, err := streamJob(client, targets[ti], items[i].name, bodies[i])
				mu.Lock()
				switch out {
				case streamAcked:
					streamed++
					acked++
				case streamExpired:
					streamed++
					expired++
				case streamTolerated:
					tolerated++
				case streamConnErr:
					connErrs++
				case streamViolation:
					violations++
					if firstViolation == nil {
						firstViolation = err
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	fmt.Printf("stream outcomes: %d protocol-clean streams (%d acked, %d expired), %d tolerated, %d conn errors, %d VIOLATIONS\n",
		streamed, acked, expired, tolerated, connErrs, violations)
	if violations > 0 {
		return fmt.Errorf("%d stream protocol violations, first: %w", violations, firstViolation)
	}
	if minStreamed >= 0 && streamed < minStreamed {
		return fmt.Errorf("only %d protocol-clean streams completed, need >= %d", streamed, minStreamed)
	}
	return nil
}

// streamJob submits one wait=false solve and follows its SSE stream to the
// terminal event, validating the stream protocol along the way. The
// returned error is non-nil only for streamViolation outcomes.
func streamJob(client *http.Client, addr, name string, body []byte) (streamOutcome, error) {
	resp, err := client.Post(addr+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return streamConnErr, nil
	}
	var jr service.JobResponse
	derr := json.NewDecoder(resp.Body).Decode(&jr)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests,
		resp.StatusCode == http.StatusServiceUnavailable:
		return streamTolerated, nil
	case resp.StatusCode == http.StatusGatewayTimeout:
		return streamExpired, nil
	case resp.StatusCode >= 500:
		return streamTolerated, nil // injected http-layer fault
	case derr != nil:
		return streamConnErr, nil
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		return streamViolation, fmt.Errorf("%s: submit HTTP %d: %s", name, resp.StatusCode, jr.Error)
	case jr.JobID == "":
		return streamViolation, fmt.Errorf("%s: HTTP %d acknowledged submit without a job id", name, resp.StatusCode)
	}

	sresp, err := client.Get(addr + "/v1/jobs/" + jr.JobID + "/stream")
	if err != nil {
		return streamConnErr, nil
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, sresp.Body)
		return streamViolation, fmt.Errorf("%s: job %s was just acknowledged but its stream answered HTTP %d", name, jr.JobID, sresp.StatusCode)
	}
	var (
		first    = true
		lastSeq  uint64
		terminal *obs.Event
		perr     error
	)
	rerr := obs.ReadSSE(sresp.Body, func(ev obs.SSEvent) error {
		var e obs.Event
		if err := json.Unmarshal(ev.Data, &e); err != nil {
			perr = fmt.Errorf("%s: job %s: undecodable event frame: %w", name, jr.JobID, err)
			return obs.ErrStopSSE
		}
		if terminal != nil {
			perr = fmt.Errorf("%s: job %s: event %s after terminal %s", name, jr.JobID, e.Type, terminal.Type)
			return obs.ErrStopSSE
		}
		if first {
			first = false
			if !admissionEvents[e.Type] {
				perr = fmt.Errorf("%s: job %s: stream opened with %s, want an admission event", name, jr.JobID, e.Type)
				return obs.ErrStopSSE
			}
		}
		// Seq 0 marks a synthesized replay of an evicted trace's terminal
		// event; real bus events carry strictly increasing sequence numbers.
		if e.Seq != 0 {
			if lastSeq != 0 && e.Seq <= lastSeq {
				perr = fmt.Errorf("%s: job %s: seq %d after %d", name, jr.JobID, e.Seq, lastSeq)
				return obs.ErrStopSSE
			}
			lastSeq = e.Seq
		}
		if e.Terminal {
			terminal = &e
		}
		return nil
	})
	switch {
	case perr != nil:
		return streamViolation, perr
	case rerr != nil:
		return streamConnErr, nil
	case terminal == nil:
		return streamViolation, fmt.Errorf("%s: job %s: stream ended without a terminal event", name, jr.JobID)
	}
	switch terminal.Type {
	case obs.EvJobDone, obs.EvJobCached:
		// The stream says done; the job endpoint must agree and hold bytes.
		final, err := fetchJob(client, addr, jr.JobID)
		if err != nil {
			return streamConnErr, nil
		}
		if final.Status != service.StatusDone || len(final.Result) == 0 {
			return streamViolation, fmt.Errorf("%s: job %s: stream ended %s but GET reports status %s with %d result bytes",
				name, jr.JobID, terminal.Type, final.Status, len(final.Result))
		}
		return streamAcked, nil
	case obs.EvJobExpired:
		return streamExpired, nil
	case obs.EvJobShed, obs.EvJobCanceled:
		return streamTolerated, nil
	case obs.EvJobFailed:
		if strings.Contains(terminal.Err, "deadline") {
			return streamExpired, nil
		}
		if terminal.Err == "" {
			return streamViolation, fmt.Errorf("%s: job %s: terminal job.failed carried no error", name, jr.JobID)
		}
		return streamTolerated, nil
	}
	return streamViolation, fmt.Errorf("%s: job %s: unknown terminal event %s", name, jr.JobID, terminal.Type)
}

func fetchJob(client *http.Client, addr, id string) (service.JobResponse, error) {
	var jr service.JobResponse
	resp, err := client.Get(addr + "/v1/jobs/" + id)
	if err != nil {
		return jr, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return jr, err
	}
	if resp.StatusCode != http.StatusOK {
		return jr, fmt.Errorf("GET /v1/jobs/%s: HTTP %d", id, resp.StatusCode)
	}
	return jr, nil
}

// checkAllMetrics scrapes /metrics from every target and validates the
// Prometheus text exposition, failing the run on the first malformed line.
func checkAllMetrics(client *http.Client, targets []string) error {
	for _, t := range targets {
		resp, err := client.Get(t + "/metrics")
		if err != nil {
			return fmt.Errorf("scrape %s/metrics: %w", t, err)
		}
		doc, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return fmt.Errorf("scrape %s/metrics: %w", t, rerr)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("scrape %s/metrics: HTTP %d", t, resp.StatusCode)
		}
		st, err := obs.ValidateExposition(doc)
		if err != nil {
			return fmt.Errorf("%s/metrics: malformed exposition: %w", t, err)
		}
		fmt.Printf("metrics:       %s: %d families, %d samples, exposition clean\n", t, st.Families, st.Samples)
	}
	return nil
}

func buildWorkload(families string, n, seeds int, eps float64) ([]workItem, error) {
	if seeds < 1 {
		return nil, fmt.Errorf("need seeds >= 1, got %d", seeds)
	}
	var items []workItem
	for _, fam := range strings.Split(families, ",") {
		fam = strings.TrimSpace(fam)
		if fam == "" {
			continue
		}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			g, err := graph.ByFamily(fam, n, seed)
			if err != nil {
				return nil, err
			}
			req := service.SolveRequest{
				Graph:   service.WireGraph(g),
				Options: service.OptionsWire{Eps: eps},
				Wait:    true,
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			items = append(items, workItem{
				name: fmt.Sprintf("%s/n%d/s%d", fam, g.N, seed),
				req:  req,
				body: body,
			})
		}
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("empty workload (families %q)", families)
	}
	return items, nil
}

func waitHealthy(client *http.Client, addr string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := client.Get(addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ecssd at %s not healthy within %s (last: %v)", addr, budget, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func postSolve(client *http.Client, addr string, body []byte) (cached bool, err error) {
	resp, err := client.Post(addr+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var jr service.JobResponse
	err = json.NewDecoder(resp.Body).Decode(&jr)
	// Drain to EOF so the connection is reused; otherwise chunked responses
	// force a fresh dial per request and skew the latency measurement.
	io.Copy(io.Discard, resp.Body)
	if err != nil {
		return false, fmt.Errorf("decode response (HTTP %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("HTTP %d: %s", resp.StatusCode, jr.Error)
	}
	if jr.Status != service.StatusDone {
		return false, fmt.Errorf("job %s finished %s: %s", jr.JobID, jr.Status, jr.Error)
	}
	return jr.Cached, nil
}

// chaosTally classifies every chaos-mode response. Only outcomes that are
// silent about their cause are fatal; everything an operator can attribute —
// injected faults, shed load, expired deadlines, dropped connections around
// a restart — is counted and tolerated.
type chaosTally struct {
	acked       int64 // 200, done, result bytes in hand
	expired     int64 // explicit deadline error (504 or failed job)
	shed        int64 // 429 with Retry-After
	unavailable int64 // 503 with Retry-After (draining)
	injected    int64 // 5xx from an armed fault point, or explicit fault error
	connErrs    int64 // transport errors (tolerated: the server may be dying)
	silent      int64 // failures with no explicit error — the fatal class
}

// add accumulates another tally into t.
func (t *chaosTally) add(o chaosTally) {
	t.acked += o.acked
	t.expired += o.expired
	t.shed += o.shed
	t.unavailable += o.unavailable
	t.injected += o.injected
	t.connErrs += o.connErrs
	t.silent += o.silent
}

type ackedRec struct {
	name string
	sum  string // hex sha256 of the result bytes
}

func runChaos(client *http.Client, targets []string, items []workItem, duration time.Duration, concurrency int, ackedOut string, minAcked, minExpired, minRestored, minAckedPerTarget int64) error {
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		rr     atomic.Int64 // round-robin target cursor
		tally  chaosTally
		perTgt = make([]chaosTally, len(targets))
		acked  []ackedRec
	)
	deadline := time.Now().Add(duration)
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7000 + w)))
			for time.Now().Before(deadline) {
				it := items[rng.Intn(len(items))]
				ti := int(rr.Add(1)-1) % len(targets)
				req := it.req
				switch r := rng.Float64(); {
				case r < 0.45:
					req.Priority = "interactive"
				case r < 0.80:
					req.Priority = "batch"
				default:
					req.Priority = "background"
				}
				coldEps := rng.Float64() < 0.3
				if coldEps {
					// A fresh eps means a fresh content key: a guaranteed cold
					// solve, so the queue sees real work even after the finite
					// (family, seed) matrix is fully cached.
					req.Options.Eps = 0.2 + 0.3*rng.Float64()
				}
				if rng.Float64() < 0.4 {
					// Deadlines from DOA-tight to comfortably generous, so
					// both the expiry and the success path stay exercised.
					req.DeadlineMS = int64(1 + rng.Intn(500))
				}
				name, sum, out := classifyChaosResponse(client, targets[ti], it.name, req)
				mu.Lock()
				tally.add(out)
				perTgt[ti].add(out)
				// Cold-eps results are not replayable from the acked file
				// (its verify pass re-posts the default-options body), so
				// only template-faithful acks are recorded.
				if out.acked > 0 && !coldEps {
					acked = append(acked, ackedRec{name: name, sum: sum})
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	fmt.Printf("chaos outcomes: %d acked, %d expired, %d shed (429), %d unavailable (503), %d injected, %d conn errors, %d SILENT\n",
		tally.acked, tally.expired, tally.shed, tally.unavailable, tally.injected, tally.connErrs, tally.silent)
	if len(targets) > 1 {
		// Per-target classification: a killed shard reads as that target's
		// conn errors, attributably, while the others keep acking.
		for i, tgt := range targets {
			o := perTgt[i]
			fmt.Printf("target %-28s %d acked, %d expired, %d shed, %d unavailable, %d injected, %d conn errors, %d SILENT\n",
				tgt+":", o.acked, o.expired, o.shed, o.unavailable, o.injected, o.connErrs, o.silent)
		}
	}
	for _, tgt := range targets {
		st, err := fetchStats(client, tgt)
		if err != nil {
			fmt.Printf("server stats:  %s: unreachable (%v)\n", tgt, err)
			continue
		}
		fmt.Printf("server stats:  %s: %d submitted, %d solves, %d retries, %d panics recovered, %d failed\n",
			tgt, st.Submitted, st.Solves, st.Retries, st.PanicsRecovered, st.Failed)
		for class, cs := range st.Classes {
			fmt.Printf("  class %-12s %d submitted, %d queued, %d shed, %d expired, %d canceled, %d rejected-full\n",
				class+":", cs.Submitted, cs.Queued, cs.Shed, cs.Expired, cs.Canceled, cs.RejectedFull)
		}
		if st.Store != nil {
			fmt.Printf("server store:  %d entries, %d corruptions, %d quarantined (%d failed), %d restored, %d reverify-deleted\n",
				st.Store.Entries, st.Store.Corruptions, st.Store.Quarantined,
				st.Store.QuarantineFails, st.Store.Restored, st.Store.ReverifyDeleted)
		}
		for _, name := range slices.Sorted(maps.Keys(st.Faults)) {
			fmt.Printf("  fault %-18s %d hits, %d fires\n", name+":", st.Faults[name].Hits, st.Faults[name].Fires)
		}
	}

	if ackedOut != "" {
		var b strings.Builder
		for _, rec := range acked {
			fmt.Fprintf(&b, "%s %s\n", rec.name, rec.sum)
		}
		if err := os.WriteFile(ackedOut, []byte(b.String()), 0o644); err != nil {
			return fmt.Errorf("write acked file: %w", err)
		}
		fmt.Printf("acked file:    %d records -> %s\n", len(acked), ackedOut)
	}
	if tally.silent > 0 {
		return fmt.Errorf("%d failures carried no explicit error — every chaos failure must be attributable", tally.silent)
	}
	if minAcked >= 0 && tally.acked < minAcked {
		return fmt.Errorf("only %d results acknowledged, need >= %d", tally.acked, minAcked)
	}
	if minAckedPerTarget >= 0 {
		for i, tgt := range targets {
			if perTgt[i].acked < minAckedPerTarget {
				return fmt.Errorf("target %s acknowledged only %d results, need >= %d", tgt, perTgt[i].acked, minAckedPerTarget)
			}
		}
	}
	if minExpired >= 0 && tally.expired < minExpired {
		return fmt.Errorf("only %d requests expired with a deadline error, need >= %d", tally.expired, minExpired)
	}
	if minRestored >= 0 {
		// The background reverifiers run on their own clocks; give them a
		// moment. Restores sum across targets (each shard owns a store).
		waitUntil := time.Now().Add(15 * time.Second)
		for {
			restored := int64(0)
			for _, tgt := range targets {
				if st, err := fetchStats(client, tgt); err == nil && st.Store != nil {
					restored += st.Store.Restored
				}
			}
			if restored >= minRestored {
				break
			}
			if time.Now().After(waitUntil) {
				return fmt.Errorf("stores report %d reverifier restores, need >= %d", restored, minRestored)
			}
			time.Sleep(200 * time.Millisecond)
		}
	}
	return nil
}

// classifyChaosResponse performs one chaos request and buckets its outcome;
// for acknowledged results it returns the item name and result digest.
func classifyChaosResponse(client *http.Client, addr, name string, req service.SolveRequest) (string, string, chaosTally) {
	var out chaosTally
	body, err := json.Marshal(req)
	if err != nil {
		out.silent++
		return name, "", out
	}
	resp, err := client.Post(addr+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		out.connErrs++
		return name, "", out
	}
	defer resp.Body.Close()
	var jr service.JobResponse
	derr := json.NewDecoder(resp.Body).Decode(&jr)
	io.Copy(io.Discard, resp.Body)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		if resp.Header.Get("Retry-After") == "" {
			out.silent++ // the shed contract promises a retry hint
		} else {
			out.shed++
		}
	case resp.StatusCode == http.StatusServiceUnavailable:
		if resp.Header.Get("Retry-After") == "" {
			out.silent++
		} else {
			out.unavailable++
		}
	case resp.StatusCode == http.StatusGatewayTimeout:
		out.expired++ // deadline dead on arrival
	case resp.StatusCode >= 500:
		out.injected++ // armed http-layer fault
	case derr != nil:
		out.connErrs++ // truncated response mid-restart
	case jr.Status == service.StatusDone && len(jr.Result) > 0:
		out.acked++
		sum := sha256.Sum256(jr.Result)
		return name, hex.EncodeToString(sum[:]), out
	case jr.Status == service.StatusFailed && strings.Contains(jr.Error, "deadline"):
		out.expired++
	case jr.Error != "":
		out.injected++ // recovered panic / injected fault, explicitly reported
	default:
		out.silent++
	}
	return name, "", out
}

// runVerifyAcked replays every acknowledged record from a previous chaos run
// and fails on the first lost or altered result: the zero-lost-acks gate.
func runVerifyAcked(client *http.Client, addr string, items []workItem, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read acked file: %w", err)
	}
	byName := make(map[string]workItem, len(items))
	for _, it := range items {
		byName[it.name] = it
	}
	seen := make(map[string]string) // name -> expected sum (dedup replays)
	verified := 0
	for lineNo, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			return fmt.Errorf("%s:%d: malformed record %q", path, lineNo+1, line)
		}
		if prev, dup := seen[name]; dup {
			if prev != sum {
				return fmt.Errorf("%s acknowledged with two different digests (%s vs %s)", name, prev[:12], sum[:12])
			}
			continue
		}
		seen[name] = sum
		it, ok := byName[name]
		if !ok {
			return fmt.Errorf("acked item %q not in this workload (check -families/-n/-seeds match the chaos run)", name)
		}
		resp, err := client.Post(addr+"/v1/solve", "application/json", bytes.NewReader(it.body))
		if err != nil {
			return fmt.Errorf("replay %s: %w", name, err)
		}
		var jr service.JobResponse
		derr := json.NewDecoder(resp.Body).Decode(&jr)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if derr != nil {
			return fmt.Errorf("replay %s: decode (HTTP %d): %w", name, resp.StatusCode, derr)
		}
		if resp.StatusCode != http.StatusOK || jr.Status != service.StatusDone {
			return fmt.Errorf("ACKED RESULT LOST: %s now HTTP %d status %s: %s", name, resp.StatusCode, jr.Status, jr.Error)
		}
		got := sha256.Sum256(jr.Result)
		if hex.EncodeToString(got[:]) != sum {
			return fmt.Errorf("ACKED RESULT ALTERED: %s digest changed", name)
		}
		verified++
	}
	fmt.Printf("verify-acked:  %d distinct acknowledged results replayed byte-identically\n", verified)
	return nil
}

func fetchStats(client *http.Client, addr string) (service.Stats, error) {
	var st service.Stats
	resp, err := client.Get(addr + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

func report(samples []sample, failures int, wall time.Duration, workloadSize int) {
	lat := make([]int64, len(samples))
	cached := 0
	for i, s := range samples {
		lat[i] = s.ns
		if s.cached {
			cached++
		}
	}
	slices.Sort(lat)
	pct := func(p float64) time.Duration {
		idx := int(p * float64(len(lat)-1))
		return time.Duration(lat[idx])
	}
	fmt.Printf("workload:      %d distinct instances\n", workloadSize)
	fmt.Printf("requests:      %d ok, %d failed in %s (%.1f req/s)\n",
		len(samples), failures, wall.Round(time.Millisecond), float64(len(samples))/wall.Seconds())
	fmt.Printf("latency:       p50 %s  p90 %s  p99 %s  max %s\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), time.Duration(lat[len(lat)-1]).Round(time.Microsecond))
	fmt.Printf("client cache:  %d/%d hit responses (%.1f%%)\n",
		cached, len(samples), 100*float64(cached)/float64(len(samples)))
}
