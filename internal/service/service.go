// Package service implements the long-running 2-ECSS solver service that
// fronts the paper's pipeline with a serving layer: a bounded priority job
// queue with deadline- and class-aware admission control (admission.go), a
// configurable worker pool executing each solve on its own congest Network
// with panic recovery and bounded retry, an in-flight coalescing table and a
// content-addressed LRU result cache keyed by the canonical graph digest
// plus solve options, per-job status/progress, and graceful drain on
// shutdown. cmd/ecssd exposes it over an HTTP JSON API (http.go) and
// cmd/loadgen drives it; DESIGN.md §7 and §9 describe the architecture and
// the fault model.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"twoecss/internal/congest"
	"twoecss/internal/ecss"
	"twoecss/internal/faults"
	"twoecss/internal/graph"
	"twoecss/internal/obs"
	"twoecss/internal/store"
)

// Config sizes the service. Zero values select the documented defaults.
type Config struct {
	// QueueDepth bounds the jobs admitted but not yet picked up by a
	// worker, across all priority classes; beyond it the shed policy runs
	// and Submit may reject with ErrQueueFull (default 64).
	QueueDepth int
	// Workers is the number of solver goroutines (default GOMAXPROCS).
	Workers int
	// CacheEntries bounds the content-addressed result cache (0 selects
	// the default 512; negative disables caching — results then live only
	// on their job).
	CacheEntries int
	// NetWorkers is the engine worker-pool size used per solve (default 1:
	// parallelism lives at the job level, matching the experiment harness
	// convention).
	NetWorkers int
	// Store, when non-nil, is the disk-backed result store the in-memory
	// cache writes through to. Memory-cache misses fall back to the store
	// before solving, so a restart serves stored results on first request,
	// without a solve. The service takes ownership: Drain flushes pending
	// writes and closes it.
	Store *store.Store
	// Obs is the process observability hub the service publishes lifecycle
	// events and metrics into (nil: the service creates a private one, so
	// events and /metrics always work). Share one Obs between the store and
	// the service so a single firehose carries both subsystems.
	Obs *obs.Obs
	// ProfileRounds bounds the per-job engine round profile retained next to
	// the trace and served at GET /v1/jobs/{id}/profile (default 512 samples;
	// negative disables profiling). Long solves are thinned by stride, so the
	// profile is an evenly spaced timeline whatever the round count.
	ProfileRounds int
	// SLOLatency is the solve-latency SLO threshold: a solve counting as
	// "good" must reach a terminal state within it (default 2s). The
	// objectives themselves are fixed (99% latency, 99.9% availability);
	// burn rates are exported per obs.DefaultSLOWindows.
	SLOLatency time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.NetWorkers <= 0 {
		c.NetWorkers = 1
	}
	if c.ProfileRounds == 0 {
		c.ProfileRounds = 512
	}
	if c.SLOLatency <= 0 {
		c.SLOLatency = 2 * time.Second
	}
	return c
}

// Status is a job lifecycle state.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// Job is one admitted solve. All fields are guarded by the owning
// Service's mutex; external readers use Service.JobInfo / the Done channel.
type Job struct {
	id    string
	key   Key
	ghash [32]byte
	// req is the request id of the submission that created the job (minted
	// at admission or propagated from the router); stamped on every event
	// the job emits so a trace reads as one client request end to end.
	req string

	g   *graph.Graph // released once the solve starts
	opt ecss.Options

	priority Priority
	deadline time.Time // zero: none
	// watchers counts cancelable submitters still waiting; autocancel is
	// cleared forever once any non-cancelable submission attaches (see
	// Admit.Cancelable and Service.Abandon).
	watchers   int
	autocancel bool

	status   Status
	phase    string
	created  time.Time
	started  time.Time
	finished time.Time
	// resultJSON is the canonical wire encoding, marshaled once (or copied
	// once out of the store) and shared by every requester; it is never
	// mutated.
	resultJSON []byte
	err        error
	done       chan struct{}
	// profile is the engine round profile of the job's solve (nil while the
	// job is queued or running, for jobs served without a solve, and with
	// profiling disabled). Retained alongside the trace until the job record
	// itself is dropped.
	profile *JobProfile
}

// ID returns the job's stable identifier.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state (done or failed).
// Jobs returned from a cache or coalescing hit may already be closed.
func (j *Job) Done() <-chan struct{} { return j.done }

// Stats is a snapshot of the service counters.
type Stats struct {
	// Submitted counts every Submit call that passed input validation,
	// including ones rejected by a full queue or a draining service.
	Submitted int64 `json:"submitted"`
	// Completed and Failed count jobs whose solve reached a terminal state;
	// Solves counts jobs that executed the pipeline (Completed + Failed —
	// a job retried after a recovered panic still counts once; Retries
	// tallies the extra attempts). Jobs shed, expired, or canceled while
	// queued appear in Classes, not here.
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Solves    int64 `json:"solves"`
	// Retries counts solve attempts re-run after a retryable failure
	// (recovered panic or injected fault); PanicsRecovered counts solver
	// panics converted into per-job errors instead of killing the worker.
	Retries         int64 `json:"retries"`
	PanicsRecovered int64 `json:"panics_recovered"`
	// CacheHits counts submissions served from the in-memory result cache
	// (including results an earlier store hit adopted); Coalesced counts
	// submissions attached to an identical in-flight job; StoreHits counts
	// submissions served by reading the disk store on a memory-cache miss.
	CacheHits int64 `json:"cache_hits"`
	Coalesced int64 `json:"coalesced"`
	StoreHits int64 `json:"store_hits"`
	// RejectedFull / RejectedDraining count admission failures.
	RejectedFull     int64 `json:"rejected_full"`
	RejectedDraining int64 `json:"rejected_draining"`

	QueueDepth   int `json:"queue_depth"`
	Inflight     int `json:"inflight"`
	CacheEntries int `json:"cache_entries"`
	// Classes breaks queue traffic down per priority class, keyed by
	// Priority.String().
	Classes map[string]ClassStats `json:"classes"`
	// Store mirrors the disk store's counters; nil when the service runs
	// without persistence.
	Store *store.Stats `json:"store,omitempty"`
	// Faults mirrors the armed fault-injection plan's per-point counters;
	// nil when no plan is armed.
	Faults map[string]faults.PointStats `json:"faults,omitempty"`
	// Engine aggregates the congest engine's cost counters — the paper's own
	// round/message measures — across every solve attempt this process ran.
	Engine EngineStats `json:"engine"`
}

// EngineStats is the process-lifetime engine cost ledger. The router sums
// these across shards (shard-tagged) from each shard's /v1/stats.
type EngineStats struct {
	SimulatedRounds int64 `json:"simulated_rounds"`
	ChargedRounds   int64 `json:"charged_rounds"`
	Messages        int64 `json:"messages"`
	Words           int64 `json:"words"`
	// ProfiledSolves counts solves that retained a round profile.
	ProfiledSolves int64 `json:"profiled_solves"`
}

// Hits is the total number of submissions served without a solve.
func (s Stats) Hits() int64 { return s.CacheHits + s.Coalesced + s.StoreHits }

var (
	// ErrQueueFull reports that admission failed because the queue is at
	// QueueDepth and the shed policy found no expired or lower-priority
	// queued job to drop.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining reports that the service no longer accepts jobs.
	ErrDraining = errors.New("service: draining, not accepting jobs")
)

// retainFinished bounds how many terminal jobs that fell out of the result
// cache (failures, evictions, shed jobs) stay addressable via JobInfo.
const retainFinished = 256

// Solve retry policy: one retry after a retryable failure (recovered panic
// or injected fault), with exponential backoff from retryBackoffBase —
// bounded on both axes so a crashing solver degrades to fast per-job errors,
// never a retry storm.
const (
	maxSolveRetries  = 1
	retryBackoffBase = 25 * time.Millisecond
)

// Service is the solver service. Create with New, stop with Drain.
type Service struct {
	cfg   Config
	store *store.Store // nil: no persistence
	// o is the observability hub (never nil after New); solveHist is the
	// pickup-to-terminal solve latency histogram, created once at startup;
	// sloLatency and sloAvail are the declared solve SLOs (observe.go).
	o          *obs.Obs
	solveHist  *obs.Histogram
	sloLatency *obs.SLO
	sloAvail   *obs.SLO

	mu       sync.Mutex
	cond     *sync.Cond // signaled on enqueue and at drain
	seq      int64
	jobs     map[string]*Job
	inflight map[Key]*Job
	cache    *jobCache
	retired  []string // FIFO of terminal, uncached job ids still in jobs
	stats    Stats
	classes  [numPriorities]ClassStats
	// queues holds the admitted-not-yet-running jobs, one FIFO per
	// priority class; qlen is their total length, bounded by QueueDepth.
	queues [numPriorities][]*Job
	qlen   int
	// ewmaSolveNs tracks the recent average solve wall time, feeding the
	// Retry-After hint.
	ewmaSolveNs float64
	draining    bool

	wg sync.WaitGroup

	// testJobStart, when set (tests only), runs at the top of every worker
	// job execution, before the solve.
	testJobStart func(*Job)
}

// New starts a service with cfg's sizing and its worker goroutines. The
// memory cache starts empty; with a configured Store, each stored result
// enters it on its first request (see SubmitWith).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:      cfg,
		store:    cfg.Store,
		o:        cfg.Obs,
		jobs:     make(map[string]*Job),
		inflight: make(map[Key]*Job),
		cache:    newJobCache(cfg.CacheEntries),
	}
	if s.o == nil {
		s.o = obs.New()
	}
	s.cond = sync.NewCond(&s.mu)
	s.registerMetrics()
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// adoptStoredLocked wraps a result read from the store in a terminal job —
// addressable via JobInfo, served from the memory cache — without a solve.
// raw is the job's own copy of the stored payload. req is the request id of
// the triggering submission. Caller holds s.mu.
func (s *Service) adoptStoredLocked(key Key, ghash [32]byte, raw []byte, req string) *Job {
	s.seq++
	now := time.Now()
	j := &Job{
		id:         fmt.Sprintf("j%08d", s.seq),
		key:        key,
		ghash:      ghash,
		req:        req,
		status:     StatusDone,
		created:    now,
		started:    now,
		finished:   now,
		resultJSON: raw,
		done:       closedDone,
	}
	s.jobs[j.id] = j
	if evicted := s.cache.put(key, j); evicted != nil {
		s.retire(evicted)
	}
	// The job is born terminal: one cached event is its whole trace, so a
	// per-job stream replays it and closes immediately.
	s.emit(obs.Event{Type: obs.EvJobCached, Job: j.id, Req: req, Key: keyPrefix(key), Terminal: true})
	return j
}

// closedDone is the pre-closed Done channel shared by jobs that were never
// queued (store adoptions): they are born terminal.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Config returns the effective (defaulted) configuration.
func (s *Service) Config() Config { return s.cfg }

// Draining reports whether Drain has begun: the service still finishes
// admitted work but rejects new submissions.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Submit admits a solve of g under opt at the default batch priority with
// no deadline. See SubmitWith.
func (s *Service) Submit(g *graph.Graph, opt ecss.Options) (*Job, bool, error) {
	return s.SubmitWith(g, opt, Admit{Priority: PriorityBatch})
}

// SubmitWith admits a solve of g under opt with adm's scheduling class and
// deadline, returning the job serving it plus whether it was a hit (served
// from the result cache or coalesced onto an identical in-flight job — in
// both cases the returned job may belong to an earlier submission, possibly
// of a different class). The caller must not mutate g after SubmitWith.
// Identity is content-addressed: structurally identical graphs dedupe
// regardless of how or in what edge order they were built.
//
// When the queue is at QueueDepth, admission sheds by policy before
// rejecting: expired queued jobs are dropped first (any class), then the
// youngest queued job of a class below adm.Priority; only if neither frees
// a slot does SubmitWith return ErrQueueFull. A deadline already in the
// past fails fast with ErrDeadlineExceeded (unless the result is on hand:
// cache and coalescing hits serve instantly and ignore the deadline).
func (s *Service) SubmitWith(g *graph.Graph, opt ecss.Options, adm Admit) (*Job, bool, error) {
	if !(opt.Eps > 0 && opt.Eps < 1) {
		return nil, false, fmt.Errorf("service: eps %g out of (0,1)", opt.Eps)
	}
	if g == nil || g.N < 3 {
		return nil, false, errors.New("service: need a graph with at least 3 vertices")
	}
	if opt.Root < 0 || opt.Root >= g.N {
		return nil, false, fmt.Errorf("service: root %d out of range [0,%d)", opt.Root, g.N)
	}
	if adm.Priority < 0 || adm.Priority >= numPriorities {
		return nil, false, fmt.Errorf("service: priority %d out of range", adm.Priority)
	}
	opt.Workers = s.cfg.NetWorkers
	opt.Progress = nil
	ghash := g.Hash()
	key := keyFor(ghash, opt)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Submitted++
	s.classes[adm.Priority].Submitted++
	if s.draining {
		s.stats.RejectedDraining++
		return nil, false, ErrDraining
	}
	if j := s.hitLocked(key, adm); j != nil {
		return j, true, nil
	}
	if s.store != nil {
		// The store lookup touches disk; release the admission mutex
		// around it so concurrent Submits, Stats, and progress callbacks
		// are never serialized behind a file read, then re-run the
		// admission checks — the world may have moved meanwhile.
		s.mu.Unlock()
		raw, found := s.store.Get([32]byte(key))
		s.mu.Lock()
		if s.draining {
			s.stats.RejectedDraining++
			return nil, false, ErrDraining
		}
		if j := s.hitLocked(key, adm); j != nil {
			return j, true, nil
		}
		if found {
			s.stats.StoreHits++
			return s.adoptStoredLocked(key, ghash, raw, adm.RequestID), true, nil
		}
	}
	now := time.Now()
	if !adm.Deadline.IsZero() && !now.Before(adm.Deadline) {
		s.classes[adm.Priority].Expired++
		s.emit(obs.Event{Type: obs.EvJobExpired, Req: adm.RequestID, Class: adm.Priority.String(),
			Err: "dead on arrival: " + ErrDeadlineExceeded.Error(), Terminal: true})
		return nil, false, ErrDeadlineExceeded
	}
	if s.qlen >= s.cfg.QueueDepth {
		s.shedExpiredLocked(now)
	}
	if s.qlen >= s.cfg.QueueDepth && !s.shedForLocked(adm.Priority) {
		s.stats.RejectedFull++
		s.classes[adm.Priority].RejectedFull++
		return nil, false, ErrQueueFull
	}
	s.seq++
	j := &Job{
		id:         fmt.Sprintf("j%08d", s.seq),
		key:        key,
		ghash:      ghash,
		req:        adm.RequestID,
		g:          g,
		opt:        opt,
		priority:   adm.Priority,
		deadline:   adm.Deadline,
		autocancel: adm.Cancelable,
		status:     StatusQueued,
		phase:      "queued",
		created:    now,
		done:       make(chan struct{}),
	}
	if adm.Cancelable {
		j.watchers = 1
	}
	s.jobs[j.id] = j
	s.inflight[key] = j
	s.enqueueLocked(j)
	// Emitted under s.mu, which a worker needs to pop: job.admitted always
	// precedes the job's own job.started on the bus.
	s.emit(obs.Event{Type: obs.EvJobAdmitted, Job: j.id, Req: j.req, Class: adm.Priority.String(), Key: keyPrefix(key)})
	return j, false, nil
}

// hitLocked serves a submission from an identical in-flight job or from
// the memory cache, returning nil when neither holds key. Caller holds s.mu.
func (s *Service) hitLocked(key Key, adm Admit) *Job {
	if j, ok := s.inflight[key]; ok {
		s.stats.Coalesced++
		s.attachLocked(j, adm)
		return j
	}
	if j, ok := s.cache.get(key); ok {
		s.stats.CacheHits++
		s.emit(obs.Event{Type: obs.EvJobCached, Job: j.id, Req: adm.RequestID, Key: keyPrefix(key), Terminal: true})
		return j
	}
	return nil
}

// attachLocked records a coalescing submitter's cancellation interest on an
// in-flight job: cancelable waiters are counted, and one non-cancelable
// submission pins the job against autocancel for good. Caller holds s.mu.
func (s *Service) attachLocked(j *Job, adm Admit) {
	s.emit(obs.Event{Type: obs.EvJobCoalesced, Job: j.id, Req: adm.RequestID, Class: adm.Priority.String()})
	if j.status != StatusQueued {
		return
	}
	if adm.Cancelable {
		j.watchers++
	} else {
		j.autocancel = false
	}
}

// worker pops jobs in priority order, failing expired ones without solving,
// until drain empties the queue.
func (s *Service) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		j := s.popLocked()
		if j == nil {
			if s.draining {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			continue
		}
		if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
			s.classes[j.priority].Expired++
			s.failDequeuedLocked(j, ErrDeadlineExceeded)
			continue
		}
		// Mark running while still holding the pop lock: Abandon and the
		// shed policy treat StatusQueued as "safe to drop", so a popped job
		// must never look queued once the lock is released.
		j.status = StatusRunning
		j.started = time.Now()
		wait := j.started.Sub(j.created)
		s.mu.Unlock()
		s.emit(obs.Event{Type: obs.EvJobStarted, Job: j.id, Req: j.req, Class: j.priority.String(),
			MS: float64(wait) / float64(time.Millisecond)})
		s.runJob(j)
		s.mu.Lock()
	}
}

func (s *Service) runJob(j *Job) {
	if hook := s.testJobStart; hook != nil {
		hook(j)
	}
	s.mu.Lock()
	g, opt := j.g, j.opt
	s.mu.Unlock()

	// The round recorder is armed per attempt on that attempt's network
	// (solveOnce) and reset across retries, so the retained profile narrates
	// the attempt that produced the terminal state.
	var rec *congest.RoundRecorder
	if s.cfg.ProfileRounds > 0 {
		rec = congest.NewRoundRecorder(s.cfg.ProfileRounds, 1)
	}

	var raw []byte
	var stages []StageCost       // the last attempt's stages
	var jobRounds, jobMsgs int64 // engine totals across attempts
	var err error
	backoff := retryBackoffBase
	for attempt := 0; ; attempt++ {
		if rec != nil {
			rec.Reset()
		}
		raw, stages, err = s.solveOnce(j, g, opt, rec)
		for _, sc := range stages {
			jobRounds += sc.SimulatedRounds + sc.ChargedRounds
			jobMsgs += sc.Messages
		}
		if err == nil || attempt >= maxSolveRetries || !retryable(err) {
			break
		}
		s.mu.Lock()
		s.stats.Retries++
		j.phase = "retry-backoff"
		s.mu.Unlock()
		s.emit(obs.Event{Type: obs.EvJobRetry, Job: j.id, Req: j.req, Err: err.Error()})
		time.Sleep(backoff)
		backoff *= 2
		if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
			err = fmt.Errorf("%w (after retryable failure: %v)", ErrDeadlineExceeded, err)
			break
		}
	}
	if err == nil && s.store != nil {
		// Write-through outside s.mu: the store's writer queue can apply
		// backpressure, which must stall only this solver worker, not
		// admission. raw is immutable from here on.
		_ = s.store.Put([32]byte(j.key), j.ghash, optionsBlob(j.opt), raw)
	}

	s.mu.Lock()
	j.finished = time.Now()
	j.g = nil
	j.phase = ""
	delete(s.inflight, j.key)
	s.stats.Solves++
	if rec != nil && rec.Observed() > 0 {
		j.profile = buildProfile(rec, stages)
		s.stats.Engine.ProfiledSolves++
	}
	dur := float64(j.finished.Sub(j.started))
	if s.ewmaSolveNs == 0 {
		s.ewmaSolveNs = dur
	} else {
		s.ewmaSolveNs = 0.8*s.ewmaSolveNs + 0.2*dur
	}
	if err != nil {
		j.status, j.err = StatusFailed, err
		s.stats.Failed++
		s.retire(j)
	} else {
		j.status, j.resultJSON = StatusDone, raw
		s.stats.Completed++
		if evicted := s.cache.put(j.key, j); evicted != nil {
			s.retire(evicted)
		}
	}
	s.mu.Unlock()
	s.solveHist.Observe(dur / float64(time.Second))
	s.observeSolveCost(jobRounds, jobMsgs)
	s.sloAvail.Observe(err == nil)
	if err == nil {
		s.sloLatency.ObserveLatency(time.Duration(dur), s.cfg.SLOLatency)
	}
	typ := obs.EvJobDone
	var errStr string
	if err != nil {
		errStr = err.Error()
		typ = obs.EvJobFailed
		if errors.Is(err, ErrDeadlineExceeded) {
			typ = obs.EvJobExpired
		}
	}
	s.emit(obs.Event{Type: typ, Job: j.id, Req: j.req, Class: j.priority.String(), Err: errStr,
		MS: dur / float64(time.Millisecond), Rounds: jobRounds, Msgs: jobMsgs, Terminal: true})
	// Done closes last, so whoever waits on it sees the job's terminal
	// event and metrics already recorded.
	close(j.done)
}

// solveOnce runs one pipeline attempt on a network built for it, converting
// solver panics into errors, and returns the stages the attempt entered. The
// network is closed when the attempt ends, whatever its outcome. rec, when
// non-nil, is armed as the network's round observer.
//
// A stage's cost is its depth-0 span in the network's phases: ecss.SolveOn
// closes each stage's span before it calls Progress for the next, and the
// final one before it returns. So every transition reads the just-closed
// span, without a lock, and the job.stage event fires at stage completion
// with the stage's wall time and cost. A stage aborted by an error or panic
// has no closed span and bills zero.
func (s *Service) solveOnce(j *Job, g *graph.Graph, opt ecss.Options, rec *congest.RoundRecorder) (raw []byte, stages []StageCost, err error) {
	net := congest.NewNetwork(g)
	defer net.Close()
	var stage string // the stage SolveOn last entered, until closed
	var stageStart time.Time
	var stageEnded bool // stage's span is closed on net
	closeStage := func() {
		if stage == "" {
			return
		}
		var sp congest.PhaseSpan
		if stageEnded {
			sp = lastStage(net.Phases())
		}
		d := time.Since(stageStart)
		sc := StageCost{Stage: stage, Seconds: d.Seconds(), SimulatedRounds: sp.Simulated,
			ChargedRounds: sp.Charged, Messages: sp.Messages, Words: sp.Words}
		stages = append(stages, sc)
		s.observeStage(sc)
		s.emit(obs.Event{Type: obs.EvJobStage, Job: j.id, Req: j.req, Stage: stage,
			MS:     float64(d) / float64(time.Millisecond),
			Rounds: sp.Simulated + sp.Charged, Msgs: sp.Messages})
		stage = ""
	}
	opt.Progress = func(st string) {
		stageEnded = true // SolveOn has closed the previous stage's span
		// Panic and delay modes apply here (a returned error has nowhere to
		// go mid-pipeline); a panic unwinds into the recovery below, which
		// still closes the previous stage.
		_ = faults.Point("solve.stage")
		closeStage()
		stage, stageStart, stageEnded = st, time.Now(), false
		s.mu.Lock()
		j.phase = st
		s.mu.Unlock()
	}

	// The recovery is installed before the first injection point so that
	// every panic-mode fault on this path — including solve.pre itself —
	// degrades to a per-job error, never a dead worker.
	panicked := true
	defer func() {
		if panicked {
			r := recover()
			s.mu.Lock()
			s.stats.PanicsRecovered++
			s.mu.Unlock()
			err = &panicError{val: r}
		}
		closeStage()
	}()
	if ferr := faults.Point("solve.pre"); ferr != nil {
		panicked = false
		return nil, nil, ferr
	}
	if rec != nil {
		net.Observer = rec
	}
	res, serr := ecss.SolveOn(net, opt)
	stageEnded = serr == nil // the final span closes only on success
	if serr == nil {
		// Integrity gate: never cache (or serve) an unverified result.
		serr = ecss.Verify(g, res)
	}
	if serr == nil {
		serr = faults.Point("solve.postverify")
	}
	if serr == nil {
		raw, serr = json.Marshal(wireResult(g, res))
	}
	panicked = false
	return raw, stages, serr
}

// lastStage returns the last outermost span: the pipeline stage that
// closed most recently.
func lastStage(spans []congest.PhaseSpan) congest.PhaseSpan {
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Depth == 0 {
			return spans[i]
		}
	}
	return congest.PhaseSpan{}
}

// panicError wraps a recovered solver panic as a per-job error.
type panicError struct{ val any }

func (p *panicError) Error() string { return fmt.Sprintf("solver panic recovered: %v", p.val) }

// retryable reports whether a solve attempt's failure is worth one retry:
// recovered panics and injected faults are transient by construction;
// deterministic pipeline errors (infeasible input, verification failure)
// would fail identically again.
func retryable(err error) bool {
	var pe *panicError
	var fe *faults.Fault
	return errors.As(err, &pe) || errors.As(err, &fe)
}

// retire keeps a terminal, uncached job addressable for a while, dropping
// the oldest such job beyond the retention bound. Caller holds s.mu.
func (s *Service) retire(j *Job) {
	s.retired = append(s.retired, j.id)
	for len(s.retired) > retainFinished {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
}

// Stats returns a snapshot of the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.QueueDepth = s.qlen
	st.Inflight = len(s.inflight)
	st.CacheEntries = s.cache.len()
	st.Classes = make(map[string]ClassStats, numPriorities)
	for c := Priority(0); c < numPriorities; c++ {
		cs := s.classes[c]
		cs.Queued = len(s.queues[c])
		st.Classes[c.String()] = cs
	}
	s.mu.Unlock()
	// The store has its own mutex; take it only after the admission mutex
	// is released so the two never nest here.
	if s.store != nil {
		sst := s.store.Stats()
		st.Store = &sst
	}
	st.Faults = faults.Snapshot()
	return st
}

// Drain stops admission, lets the workers finish every queued job, and —
// when a store is configured — flushes its pending writes to disk and
// closes it, leaving a replayable index. It returns nil on a clean drain or
// ctx.Err() if the context expires first (workers then keep draining in the
// background; the store is closed once they finish). Drain is one-shot:
// callers coordinate so it runs once.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("service: already draining")
	}
	s.draining = true
	// Wake every idle worker: they drain the remaining queue, then exit on
	// the draining flag. Submit checks the flag under the same mutex, so no
	// new job can slip in after it.
	s.cond.Broadcast()
	s.mu.Unlock()
	s.emit(obs.Event{Type: obs.EvServiceDrain})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		if s.store != nil {
			// Every worker has returned, so every write-through Put is
			// already enqueued; Close flushes them durably in FIFO order.
			_ = s.store.Close()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
