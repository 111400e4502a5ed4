package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"twoecss/internal/ecss"
	"twoecss/internal/obs"
)

// TestJobProfileEndToEnd is the tentpole acceptance test at the service
// layer: a cold solve retains a non-empty round timeline with per-stage
// engine costs, serves it at /v1/jobs/{id}/profile, bills the process
// engine ledger, and exposes validated ecss_engine_* and ecss_slo_*
// families on /metrics.
func TestJobProfileEndToEnd(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	j, hit, err := s.Submit(testGraph(t, 3), ecss.DefaultOptions())
	if err != nil || hit {
		t.Fatalf("submit: hit=%v err=%v", hit, err)
	}
	waitJob(t, j)

	resp, err := http.Get(srv.URL + "/v1/jobs/" + j.ID() + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profile status %d", resp.StatusCode)
	}
	var pr ProfileResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.JobID != j.ID() || pr.Status != StatusDone || pr.Profile == nil {
		t.Fatalf("profile response %+v", pr)
	}
	p := pr.Profile
	if len(p.Rounds) == 0 || p.RoundsObserved <= 0 || p.Stride < 1 {
		t.Fatalf("empty round timeline: %+v", p)
	}
	// Samples are an evenly spaced timeline on the stride grid.
	for i, sm := range p.Rounds {
		if want := int64(i)*p.Stride + 1; sm.Round != want {
			t.Fatalf("sample %d at round %d, want %d (stride %d)", i, sm.Round, want, p.Stride)
		}
	}
	wantStages := []string{"bfs", "mst", "tap", "assemble"}
	if len(p.Stages) != len(wantStages) {
		t.Fatalf("stages %+v", p.Stages)
	}
	var stageRounds, stageMsgs int64
	for i, sc := range p.Stages {
		if sc.Stage != wantStages[i] {
			t.Fatalf("stage %d = %q, want %q", i, sc.Stage, wantStages[i])
		}
		stageRounds += sc.SimulatedRounds + sc.ChargedRounds
		stageMsgs += sc.Messages
	}
	if stageRounds <= 0 || stageMsgs <= 0 {
		t.Fatalf("stage costs empty: rounds=%d msgs=%d", stageRounds, stageMsgs)
	}
	// The sampled timeline's rounds are a subset of the simulated rounds the
	// stages billed (charged rounds are not simulated, so compare to the
	// simulated portion).
	var sim int64
	for _, sc := range p.Stages {
		sim += sc.SimulatedRounds
	}
	if p.RoundsObserved != sim {
		t.Fatalf("observed %d rounds, stage deltas bill %d simulated", p.RoundsObserved, sim)
	}

	// Process ledger and terminal event carry the same engine dimensions.
	st := s.Stats()
	if st.Engine.SimulatedRounds != sim || st.Engine.Messages != stageMsgs || st.Engine.ProfiledSolves != 1 {
		t.Fatalf("engine ledger %+v, want sim=%d msgs=%d profiled=1", st.Engine, sim, stageMsgs)
	}
	var doneRounds, stageEvents int64
	for _, ev := range s.Obs().Bus.Trace(j.ID()) {
		switch ev.Type {
		case obs.EvJobStage:
			stageEvents++
			if ev.Rounds < 0 || ev.Msgs < 0 || ev.Stage == "" {
				t.Fatalf("job.stage event missing dimensions: %+v", ev)
			}
		case obs.EvJobDone:
			doneRounds = ev.Rounds
		}
	}
	if stageEvents != int64(len(wantStages)) {
		t.Fatalf("%d job.stage events, want %d", stageEvents, len(wantStages))
	}
	if doneRounds != stageRounds {
		t.Fatalf("job.done rounds %d, want %d", doneRounds, stageRounds)
	}

	// /metrics exposes the engine and SLO families and still validates.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	doc, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateExposition(doc); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, fam := range []string{
		"ecss_engine_rounds_total", "ecss_engine_messages_total",
		"ecss_engine_profiled_solves_total", "ecss_engine_stage_rounds",
		"ecss_slo_burn_rate", "ecss_slo_error_ratio",
	} {
		if !strings.Contains(string(doc), fam) {
			t.Fatalf("/metrics missing family %s", fam)
		}
	}
	if sum, ok := obs.SumSeries(doc, "ecss_engine_rounds_total"); !ok || sum != float64(stageRounds) {
		t.Fatalf("ecss_engine_rounds_total sums to %.0f (ok=%v), want %d", sum, ok, stageRounds)
	}

	// Unknown job: 404. Cached rerun: served without a solve, profile of the
	// original job still addressable.
	if resp, err := http.Get(srv.URL + "/v1/jobs/nope/profile"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job profile: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}
}

// TestJobProfileConservedUnderRetry is TestJobProfileEndToEnd's bill
// conservation with a fault armed: the first attempt fails after
// verification and the solve is retried once. The job.done bill must be
// the sum of every attempt's job.stage bills, the successful attempt's
// stages must sum to the served result's rounds and messages, and the
// retained profile must narrate that attempt alone.
func TestJobProfileConservedUnderRetry(t *testing.T) {
	armFaults(t, "solve.postverify:error,count=1")
	s := New(Config{Workers: 1})
	defer drain(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	j, _, err := s.Submit(testGraph(t, 5), ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if st := s.Stats(); st.Retries != 1 || st.Completed != 1 {
		t.Fatalf("stats %+v, want one retry and one completed job", st)
	}
	s.mu.Lock()
	raw := j.resultJSON
	s.mu.Unlock()
	var res ResultWire
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}

	// (a) Every attempt's stage bills sum to the job.done bill.
	var stages []obs.Event
	var done *obs.Event
	for _, ev := range s.Obs().Bus.Trace(j.ID()) {
		switch ev.Type {
		case obs.EvJobStage:
			stages = append(stages, ev)
		case obs.EvJobDone:
			done = &ev
		}
	}
	if done == nil || len(stages) != 8 {
		t.Fatalf("trace has %d job.stage events and job.done=%v, want 8 (two attempts) and a job.done", len(stages), done != nil)
	}
	var allRounds, allMsgs int64
	for _, ev := range stages {
		allRounds += ev.Rounds
		allMsgs += ev.Msgs
	}
	if done.Rounds != allRounds || done.Msgs != allMsgs {
		t.Fatalf("job.done bills %d rounds / %d msgs, its stages %d / %d", done.Rounds, done.Msgs, allRounds, allMsgs)
	}

	// (b) The successful attempt's four stages bill the result's cost.
	var lastRounds, lastMsgs int64
	for _, ev := range stages[4:] {
		lastRounds += ev.Rounds
		lastMsgs += ev.Msgs
	}
	if want := res.SimulatedRounds + res.ChargedRounds; lastRounds != want || lastMsgs != res.Messages {
		t.Fatalf("successful attempt bills %d rounds / %d msgs, result reports %d / %d", lastRounds, lastMsgs, want, res.Messages)
	}

	// (c) The profile narrates the successful attempt only.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + j.ID() + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr ProfileResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Profile == nil || pr.Profile.RoundsObserved != res.SimulatedRounds {
		t.Fatalf("profile %+v, want rounds_observed = the result's %d simulated rounds", pr.Profile, res.SimulatedRounds)
	}
}

func TestProfileDisabledAndCachedJobs(t *testing.T) {
	s := New(Config{Workers: 1, ProfileRounds: -1})
	defer drain(t, s)
	j, _, err := s.Submit(testGraph(t, 4), ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	s.mu.Lock()
	prof := j.profile
	s.mu.Unlock()
	if prof != nil {
		t.Fatalf("profiling disabled but profile retained: %+v", prof)
	}
	// Engine ledger still fills: stage deltas do not depend on the recorder.
	if st := s.Stats(); st.Engine.SimulatedRounds == 0 || st.Engine.ProfiledSolves != 0 {
		t.Fatalf("engine ledger %+v", st.Engine)
	}
}
