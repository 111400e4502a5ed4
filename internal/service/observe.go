package service

// This file is the service's observability wiring (DESIGN.md §11):
// lifecycle events published on the shared obs.Bus, a scrape-time metrics
// collector that exports the Stats counters an alert or loadgen reads on
// /metrics without double bookkeeping, and the HTTP surfaces for
// streaming — the process firehose, per-job SSE streams, and per-job trace
// timelines.

import (
	"encoding/hex"
	"fmt"
	"net/http"
	"time"

	"twoecss/internal/congest"
	"twoecss/internal/obs"
)

// Obs returns the service's observability hub (never nil after New), so
// the daemon can mount the firehose and share one bus with the store.
func (s *Service) Obs() *obs.Obs { return s.o }

// emit publishes a lifecycle event. Safe to call with or without s.mu: the
// bus takes only its own lock and never calls back into the service.
func (s *Service) emit(e obs.Event) { s.o.Bus.Publish(e) }

// keyPrefix renders a short content-address prefix for events. Full keys
// are 64 hex chars and belong in the store index, not the firehose.
func keyPrefix(k Key) string { return hex.EncodeToString(k[:6]) }

// engineRoundBuckets is the stage-round histogram's grid: rounds are small
// integers by the paper's bounds (O(D + sqrt(n) log* n) style), so it is
// exponential.
var engineRoundBuckets = []float64{16, 64, 256, 1024, 4096, 16384, 65536, 262144}

// observeStage records one completed pipeline stage: its wall time and
// engine rounds go to the metrics and its cost to the process engine
// ledger. The registry getter is get-or-create, so stages appear as they
// are first exercised.
func (s *Service) observeStage(sc StageCost) {
	m := s.o.Metrics
	l := obs.L("stage", sc.Stage)
	m.Histogram("ecss_solve_stage_seconds",
		"Wall time per solver pipeline stage.", nil, l).Observe(sc.Seconds)
	m.Histogram("ecss_engine_stage_rounds",
		"Engine rounds (simulated + charged) consumed per pipeline stage.",
		engineRoundBuckets, l).Observe(float64(sc.SimulatedRounds + sc.ChargedRounds))
	s.mu.Lock()
	s.stats.Engine.SimulatedRounds += sc.SimulatedRounds
	s.stats.Engine.ChargedRounds += sc.ChargedRounds
	s.stats.Engine.Messages += sc.Messages
	s.stats.Engine.Words += sc.Words
	s.mu.Unlock()
}

// registerMetrics declares the solve SLOs and registers the collector that
// exports, at scrape time, the part of the Stats snapshot an alert rule or
// loadgen reads. Every other counter is read from /v1/stats.
func (s *Service) registerMetrics() {
	m := s.o.Metrics
	// Declared SLOs (DESIGN.md §12.4): solves good iff successful within
	// Config.SLOLatency (99% target), and good iff terminal without error
	// (99.9% availability target). Exported as ecss_slo_* burn-rate gauges.
	s.sloLatency = obs.NewSLO(m, "solve-latency", 0.99)
	s.sloAvail = obs.NewSLO(m, "solve-availability", 0.999)
	m.Collect(func(emit func(obs.Sample)) {
		st := s.Stats()
		c := func(name, help string, v float64, labels ...obs.Label) {
			emit(obs.Sample{Name: name, Help: help, Type: "counter", Value: v, Labels: labels})
		}
		c("ecss_solves_total", "Jobs that executed the solver pipeline.", float64(st.Solves))
		if ss := st.Store; ss != nil {
			c("ecss_store_gets_total", "Store lookups by outcome.", float64(ss.Hits), obs.L("outcome", "hit"))
			c("ecss_store_gets_total", "Store lookups by outcome.", float64(ss.Misses), obs.L("outcome", "miss"))
			c("ecss_store_evictions_total", "Entries evicted to respect the byte budget.", float64(ss.Evictions))
			c("ecss_store_corruptions_total", "Damaged entries or index records detected.", float64(ss.Corruptions))
			c("ecss_store_write_errors_total", "Puts the writer could not persist.", float64(ss.WriteErrors))
			c("ecss_store_touch_drops_total", "Advisory index records (touches, dels) dropped on a saturated writer queue.", float64(ss.TouchDrops))
		}
		c("ecss_engine_rounds_total", "Engine rounds consumed across all solves, by accounting kind.",
			float64(st.Engine.SimulatedRounds), obs.L("kind", "simulated"))
		c("ecss_engine_rounds_total", "Engine rounds consumed across all solves, by accounting kind.",
			float64(st.Engine.ChargedRounds), obs.L("kind", "charged"))
		c("ecss_engine_messages_total", "Engine messages delivered across all solves.", float64(st.Engine.Messages))
		c("ecss_engine_profiled_solves_total", "Solves that retained a round profile.", float64(st.Engine.ProfiledSolves))
	})
}

// StageCost is one completed pipeline stage inside a JobProfile: its wall
// time and the engine cost delta it consumed.
type StageCost struct {
	Stage           string  `json:"stage"`
	Seconds         float64 `json:"seconds"`
	SimulatedRounds int64   `json:"simulated_rounds"`
	ChargedRounds   int64   `json:"charged_rounds"`
	Messages        int64   `json:"messages"`
	Words           int64   `json:"words"`
}

// RoundSampleWire is the JSON view of one engine round sample.
type RoundSampleWire struct {
	Round        int64 `json:"round"`
	Active       int   `json:"active"`
	Messages     int64 `json:"messages"`
	Words        int64 `json:"words"`
	MaxEdgeWords int   `json:"max_edge_words"`
	MaxNodeWords int64 `json:"max_node_words"`
	HandlerNs    int64 `json:"handler_ns"`
	RouteNs      int64 `json:"route_ns"`
}

// JobProfile is the engine-depth telemetry retained for one solved job: the
// per-stage cost breakdown plus a bounded, evenly spaced per-round timeline
// from the attempt that produced the terminal state. Rounds and messages
// are the paper's cost measures, so the profile is the auditable record of
// where a solve's complexity went.
type JobProfile struct {
	// Stride is one retained sample per Stride simulated rounds (grows by
	// doubling when a solve outruns the ring capacity).
	Stride int64 `json:"stride"`
	// RoundsObserved is the total simulated rounds of the profiled attempt,
	// retained or thinned.
	RoundsObserved int64             `json:"rounds_observed"`
	Stages         []StageCost       `json:"stages"`
	Rounds         []RoundSampleWire `json:"rounds"`
}

// buildProfile copies the recorder's ring (which the next solve on this
// worker would overwrite) into a retained profile with the attempt's stage
// costs.
func buildProfile(rec *congest.RoundRecorder, stages []StageCost) *JobProfile {
	p := &JobProfile{
		Stride:         rec.Stride(),
		RoundsObserved: rec.Observed(),
		Stages:         stages,
	}
	samples := rec.Samples()
	p.Rounds = make([]RoundSampleWire, len(samples))
	for i, sm := range samples {
		p.Rounds[i] = RoundSampleWire{Round: sm.Round, Active: sm.Active,
			Messages: sm.Messages, Words: sm.Words,
			MaxEdgeWords: sm.MaxEdgeWords, MaxNodeWords: sm.MaxNodeWords,
			HandlerNs: sm.HandlerNs, RouteNs: sm.RouteNs}
	}
	return p
}

// ProfileResponse is the JSON view of GET /v1/jobs/{id}/profile.
type ProfileResponse struct {
	JobID  string `json:"job_id"`
	Status Status `json:"status"`
	// Profile is null while the job is queued or running, for jobs served
	// without a solve (cache/store hits), and when profiling is disabled.
	Profile *JobProfile `json:"profile,omitempty"`
}

func (s *Service) handleJobProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var resp ProfileResponse
	if ok {
		// The profile is immutable once attached, so sharing the pointer
		// across the response write is safe.
		resp = ProfileResponse{JobID: j.id, Status: j.status, Profile: j.profile}
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// TraceResponse is the JSON view of one job's event timeline at
// GET /v1/jobs/{id}/trace.
type TraceResponse struct {
	JobID string `json:"job_id"`
	// RequestID is the id the job's trace began under ("" for jobs submitted
	// without one, or when the trace has been evicted).
	RequestID string `json:"request_id,omitempty"`
	// Complete reports whether the trace ends in a terminal event. False
	// also covers evicted traces: Events then narrates less than the whole
	// lifecycle.
	Complete bool        `json:"complete"`
	Events   []obs.Event `json:"events"`
}

func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.JobInfo(id); !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	tr := s.o.Bus.Trace(id)
	resp := TraceResponse{JobID: id, Events: tr}
	if len(tr) > 0 {
		resp.RequestID = tr[0].Req
		resp.Complete = tr[len(tr)-1].Terminal
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleJobStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	var terminal bool
	var ev obs.Event
	if ok {
		terminal = j.status == StatusDone || j.status == StatusFailed
		if terminal {
			ev = obs.Event{Type: obs.EvJobDone, Job: j.id, Req: j.req, Class: j.priority.String(),
				MS: float64(j.finished.Sub(j.started)) / float64(time.Millisecond), Terminal: true}
			if j.err != nil {
				ev.Type, ev.Err = obs.EvJobFailed, j.err.Error()
			}
		}
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	if terminal && len(s.o.Bus.Trace(id)) == 0 {
		// The job finished but its trace has been evicted: still honor the
		// contract that a stream ends in a terminal event by synthesizing
		// one from the job record instead of hanging on a silent bus.
		obs.ServeOneEvent(w, ev)
		return
	}
	s.o.Bus.ServeJobStream(w, r, id)
}
