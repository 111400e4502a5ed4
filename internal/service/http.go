package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"twoecss/internal/ecss"
	"twoecss/internal/faults"
	"twoecss/internal/graph"
	"twoecss/internal/obs"
	"twoecss/internal/tap"
)

// Wire formats. Results are exchanged as canonical (u, v, w) endpoint
// triples rather than edge ids: the cache is content-addressed on the edge
// multiset (graph.Hash), so a hit may come from a structurally identical
// graph whose edges were numbered differently.

// GraphWire is the JSON edge-list encoding of an instance.
type GraphWire struct {
	N int `json:"n"`
	// Edges lists [u, v, w] triples.
	Edges EdgeList `json:"edges"`
}

// WireGraph encodes g for a solve request.
func WireGraph(g *graph.Graph) GraphWire {
	w := GraphWire{N: g.N, Edges: make(EdgeList, len(g.Edges))}
	for i, e := range g.Edges {
		w.Edges[i] = [3]int64{int64(e.U), int64(e.V), int64(e.W)}
	}
	return w
}

// Request-size guards: far above every generator family, far below what
// would let one request exhaust the process (CSR needs counts in int32).
const (
	maxWireVertices = 1 << 20
	maxWireEdges    = 1 << 22
	maxBodyBytes    = 1 << 28
)

// Graph materializes the wire form, enforcing the request-size guards.
// The router uses it to compute the content hash a request routes on.
func (w GraphWire) Graph() (*graph.Graph, error) { return w.toGraph() }

func (w GraphWire) toGraph() (*graph.Graph, error) {
	if w.N < 0 || w.N > maxWireVertices {
		return nil, fmt.Errorf("n %d out of range [0,%d]", w.N, maxWireVertices)
	}
	if len(w.Edges) > maxWireEdges {
		return nil, fmt.Errorf("%d edges exceed limit %d", len(w.Edges), maxWireEdges)
	}
	edges := make([]graph.Edge, len(w.Edges))
	for i, e := range w.Edges {
		edges[i] = graph.Edge{U: int(e[0]), V: int(e[1]), W: e[2]}
	}
	return graph.FromEdges(w.N, edges)
}

// OptionsWire is the JSON encoding of the result-relevant solve options.
type OptionsWire struct {
	// Eps is the approximation slack, in (0,1) (0 selects the default 0.25).
	Eps float64 `json:"eps,omitempty"`
	// Variant is "cover2" (default) or "cover4".
	Variant string `json:"variant,omitempty"`
	// MST is "charge" (default: centrally computed, Kutten–Peleg bill) or
	// "boruvka" (message-level simulation).
	MST string `json:"mst,omitempty"`
	// Root is the BFS/spanning-tree root vertex.
	Root int `json:"root,omitempty"`
}

func (w OptionsWire) toOptions() (ecss.Options, error) {
	opt := ecss.DefaultOptions()
	if w.Eps != 0 {
		opt.Eps = w.Eps
	}
	switch w.Variant {
	case "", "cover2":
		opt.Variant = tap.Cover2
	case "cover4":
		opt.Variant = tap.Cover4
	default:
		return opt, fmt.Errorf("unknown variant %q (cover2|cover4)", w.Variant)
	}
	switch w.MST {
	case "", "charge":
		opt.MST = ecss.MSTChargeKuttenPeleg
	case "boruvka":
		opt.MST = ecss.MSTSimulateBoruvka
	default:
		return opt, fmt.Errorf("unknown mst mode %q (charge|boruvka)", w.MST)
	}
	opt.Root = w.Root
	return opt, nil
}

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	Graph   GraphWire   `json:"graph"`
	Options OptionsWire `json:"options"`
	// Wait blocks the request until the job is terminal (or the client
	// disconnects) instead of returning the queued job immediately. A
	// waiting client that disconnects abandons its queued job: when no
	// other submitter still wants it, the job is canceled and its queue
	// slot freed.
	Wait bool `json:"wait,omitempty"`
	// Priority is the admission class: "interactive" > "batch" (default) >
	// "background". Under a full queue, higher classes shed queued lower
	// ones instead of being rejected.
	Priority string `json:"priority,omitempty"`
	// DeadlineMS, when positive, bounds how long the job is worth solving,
	// in milliseconds from receipt. An expired job is shed from the queue
	// (or failed at worker pickup) with an explicit deadline-exceeded
	// error. A request-context deadline, if sooner, applies too.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// ResultWire is the canonical JSON encoding of a solution; every requester
// of one cached solve receives these exact bytes.
type ResultWire struct {
	// Edges are the bought edges as canonical-sorted [u, v, w] triples
	// (u <= v), valid for any graph with the instance's content hash.
	Edges           [][3]int64 `json:"edges"`
	Weight          int64      `json:"weight"`
	TreeWeight      int64      `json:"tree_weight"`
	AugWeight       int64      `json:"aug_weight"`
	LowerBound      float64    `json:"lower_bound"`
	CertifiedRatio  float64    `json:"certified_ratio"`
	SimulatedRounds int64      `json:"simulated_rounds"`
	ChargedRounds   int64      `json:"charged_rounds"`
	Messages        int64      `json:"messages"`
}

func wireResult(g *graph.Graph, res *ecss.Result) ResultWire {
	edges := make([][3]int64, len(res.Edges))
	for i, id := range res.Edges {
		e := g.Edges[id]
		u, v := int64(e.U), int64(e.V)
		if u > v {
			u, v = v, u
		}
		edges[i] = [3]int64{u, v, e.W}
	}
	slices.SortFunc(edges, func(a, b [3]int64) int {
		for k := 0; k < 3; k++ {
			if a[k] != b[k] {
				if a[k] < b[k] {
					return -1
				}
				return 1
			}
		}
		return 0
	})
	return ResultWire{
		Edges:           edges,
		Weight:          res.Weight,
		TreeWeight:      res.TreeWeight,
		AugWeight:       res.AugWeight,
		LowerBound:      res.LowerBound,
		CertifiedRatio:  res.CertifiedRatio,
		SimulatedRounds: res.Stats.SimulatedRounds,
		ChargedRounds:   res.Stats.ChargedRounds,
		Messages:        res.Stats.Messages,
	}
}

// JobResponse is the JSON view of a job returned by POST /v1/solve and
// GET /v1/jobs/{id}.
type JobResponse struct {
	JobID  string `json:"job_id"`
	Status Status `json:"status"`
	Phase  string `json:"phase,omitempty"`
	// RequestID is the trace id: on solve responses, the submitting
	// request's own id (even when an older cached job serves it); on job
	// lookups, the id the job was created under.
	RequestID string `json:"request_id,omitempty"`
	// Cached is set on solve responses served from the result cache or an
	// in-flight coalesce.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// ElapsedMS is the solve wall time, present on terminal jobs.
	ElapsedMS float64         `json:"elapsed_ms,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// JobInfo returns the current snapshot of a job by id. The result bytes
// are immutable and safe to hold indefinitely.
func (s *Service) JobInfo(id string) (JobResponse, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobResponse{}, false
	}
	return s.snapshot(j), true
}

func (s *Service) snapshot(j *Job) JobResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := JobResponse{JobID: j.id, Status: j.status, Phase: j.phase, RequestID: j.req}
	if j.err != nil {
		r.Error = j.err.Error()
	}
	if !j.finished.IsZero() {
		r.ElapsedMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		r.Result = j.resultJSON
	}
	return r
}

// Handler returns the service's HTTP JSON API:
//
//	POST /v1/solve            submit a solve ({graph, options, wait})
//	GET  /v1/jobs/{id}        job status and result
//	GET  /v1/jobs/{id}/stream job lifecycle as SSE, closed at the terminal event
//	GET  /v1/jobs/{id}/trace  job event timeline as JSON
//	GET  /v1/jobs/{id}/profile engine round profile and stage costs as JSON
//	GET  /v1/events           process event firehose as SSE (?types= filter)
//	GET  /v1/stats            service counters
//	GET  /metrics             Prometheus text exposition
//	GET  /healthz             readiness: 200 while serving, 503 once draining
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleJobStream)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/profile", s.handleJobProfile)
	mux.HandleFunc("GET /v1/events", s.o.Bus.ServeFirehose)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.Handle("GET /metrics", s.o.Metrics.Handler())
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// handleHealthz is drain-aware readiness: a draining shard answers 503 so
// any balancer (the router's active prober in particular) ejects it from
// new-request routing while its in-flight jobs finish.
func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Service) handleSolve(w http.ResponseWriter, r *http.Request) {
	// Adopt the caller's request id (router-forwarded attempts share one) or
	// mint one; echo it on every response, including errors, so the client
	// can always correlate.
	reqID := r.Header.Get(obs.RequestIDHeader)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, reqID)
	if err := faults.Point("http.solve"); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	var req SolveRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	g, err := req.Graph.toGraph()
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad graph: %w", err))
		return
	}
	opt, err := req.Options.toOptions()
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad options: %w", err))
		return
	}
	adm := Admit{Cancelable: req.Wait, RequestID: reqID}
	if adm.Priority, err = ParsePriority(req.Priority); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if req.DeadlineMS < 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("deadline_ms must be >= 0, got %d", req.DeadlineMS))
		return
	}
	if req.DeadlineMS > 0 {
		adm.Deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	}
	// Propagate the transport deadline too: a job is not worth starting
	// after the request that asked for it has timed out.
	if ctxDL, ok := r.Context().Deadline(); ok && (adm.Deadline.IsZero() || ctxDL.Before(adm.Deadline)) {
		adm.Deadline = ctxDL
	}
	job, hit, err := s.SubmitWith(g, opt, adm)
	switch {
	case errors.Is(err, ErrQueueFull):
		// Load shedding, not a client error: tell the client when a retry
		// is likely to be admitted.
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterHint()))
		httpError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfterHint()))
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrDeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, err)
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusAccepted
	if req.Wait {
		select {
		case <-job.Done():
		case <-r.Context().Done():
			// Client gone: withdraw this waiter's interest. If it was the
			// last one and the job is still queued, the job is canceled and
			// its slot freed; the response below reports it as it stands.
			s.Abandon(job)
		}
	}
	resp := s.snapshot(job)
	resp.Cached = hit
	// The job may have been created by an earlier request; this response
	// still belongs to the submitting request's trace.
	resp.RequestID = reqID
	if resp.Status == StatusDone || resp.Status == StatusFailed {
		code = http.StatusOK
	}
	writeJSON(w, code, resp)
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	resp, ok := s.JobInfo(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
