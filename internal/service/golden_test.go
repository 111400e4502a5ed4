package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"twoecss/internal/ecss"
	"twoecss/internal/obs"
)

// TestStagePayloadGolden pins every stage-cost payload the service derives
// from a solve: each job.stage event's (stage, rounds, msgs), the job.done
// bill, the /profile stage table with wall times masked, and the change in
// the process engine ledger. The costs are the engine's deterministic
// rounds and messages, so any drift here is a change in accounting, not
// noise.
func TestStagePayloadGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mst    ecss.MSTMode
		faults string
		want   string
	}{
		{"kutten-peleg", ecss.MSTChargeKuttenPeleg, "", goldenKuttenPeleg},
		{"boruvka", ecss.MSTSimulateBoruvka, "", goldenBoruvka},
		// A panic entering tap: the failed attempt bills bfs and mst only.
		{"panic-at-tap", ecss.MSTChargeKuttenPeleg, "solve.stage:panic,after=2,count=1", goldenPanicAtTap},
		// A failure after the pipeline returned: every stage of the failed
		// attempt is billed, then the retry bills them again.
		{"postverify-error", ecss.MSTChargeKuttenPeleg, "solve.postverify:error,count=1", goldenPostverify},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.faults != "" {
				armFaults(t, tc.faults)
			}
			s := New(Config{Workers: 1})
			defer drain(t, s)
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()

			before := s.Stats().Engine
			opt := ecss.DefaultOptions()
			opt.MST = tc.mst
			j, _, err := s.Submit(testGraph(t, 3), opt)
			if err != nil {
				t.Fatal(err)
			}
			waitJob(t, j)
			after := s.Stats().Engine

			var b strings.Builder
			for _, ev := range s.Obs().Bus.Trace(j.ID()) {
				switch ev.Type {
				case obs.EvJobStage:
					fmt.Fprintf(&b, "job.stage %s rounds=%d msgs=%d\n", ev.Stage, ev.Rounds, ev.Msgs)
				case obs.EvJobRetry:
					fmt.Fprintf(&b, "job.retry\n")
				case obs.EvJobDone:
					fmt.Fprintf(&b, "job.done rounds=%d msgs=%d\n", ev.Rounds, ev.Msgs)
				}
			}

			resp, err := http.Get(srv.URL + "/v1/jobs/" + j.ID() + "/profile")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var pr struct {
				Profile struct {
					Stages []map[string]any `json:"stages"`
				} `json:"profile"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
				t.Fatal(err)
			}
			for _, st := range pr.Profile.Stages {
				if _, ok := st["seconds"]; !ok {
					t.Fatalf("profile stage without wall time: %v", st)
				}
				delete(st, "seconds")
				row, err := json.Marshal(st)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "profile %s\n", row)
			}

			fmt.Fprintf(&b, "engine sim=%d charged=%d msgs=%d words=%d profiled=%d\n",
				after.SimulatedRounds-before.SimulatedRounds, after.ChargedRounds-before.ChargedRounds,
				after.Messages-before.Messages, after.Words-before.Words,
				after.ProfiledSolves-before.ProfiledSolves)

			if got := b.String(); got != tc.want {
				t.Fatalf("stage payloads drifted:\n--- got\n%s--- want\n%s", got, tc.want)
			}
		})
	}
}

const goldenKuttenPeleg = `job.stage bfs rounds=12 msgs=35
job.stage mst rounds=34 msgs=0
job.stage tap rounds=1305 msgs=2083
job.stage assemble rounds=0 msgs=0
job.done rounds=1351 msgs=2118
profile {"charged_rounds":0,"messages":35,"simulated_rounds":12,"stage":"bfs","words":35}
profile {"charged_rounds":34,"messages":0,"simulated_rounds":0,"stage":"mst","words":0}
profile {"charged_rounds":929,"messages":2083,"simulated_rounds":376,"stage":"tap","words":3694}
profile {"charged_rounds":0,"messages":0,"simulated_rounds":0,"stage":"assemble","words":0}
engine sim=388 charged=963 msgs=2118 words=3729 profiled=1
`

const goldenBoruvka = `job.stage bfs rounds=12 msgs=35
job.stage mst rounds=114 msgs=1618
job.stage tap rounds=1305 msgs=2083
job.stage assemble rounds=0 msgs=0
job.done rounds=1431 msgs=3736
profile {"charged_rounds":0,"messages":35,"simulated_rounds":12,"stage":"bfs","words":35}
profile {"charged_rounds":0,"messages":1618,"simulated_rounds":114,"stage":"mst","words":3786}
profile {"charged_rounds":929,"messages":2083,"simulated_rounds":376,"stage":"tap","words":3694}
profile {"charged_rounds":0,"messages":0,"simulated_rounds":0,"stage":"assemble","words":0}
engine sim=502 charged=929 msgs=3736 words=7515 profiled=1
`

const goldenPanicAtTap = `job.stage bfs rounds=12 msgs=35
job.stage mst rounds=34 msgs=0
job.retry
job.stage bfs rounds=12 msgs=35
job.stage mst rounds=34 msgs=0
job.stage tap rounds=1305 msgs=2083
job.stage assemble rounds=0 msgs=0
job.done rounds=1397 msgs=2153
profile {"charged_rounds":0,"messages":35,"simulated_rounds":12,"stage":"bfs","words":35}
profile {"charged_rounds":34,"messages":0,"simulated_rounds":0,"stage":"mst","words":0}
profile {"charged_rounds":929,"messages":2083,"simulated_rounds":376,"stage":"tap","words":3694}
profile {"charged_rounds":0,"messages":0,"simulated_rounds":0,"stage":"assemble","words":0}
engine sim=400 charged=997 msgs=2153 words=3764 profiled=1
`

const goldenPostverify = `job.stage bfs rounds=12 msgs=35
job.stage mst rounds=34 msgs=0
job.stage tap rounds=1305 msgs=2083
job.stage assemble rounds=0 msgs=0
job.retry
job.stage bfs rounds=12 msgs=35
job.stage mst rounds=34 msgs=0
job.stage tap rounds=1305 msgs=2083
job.stage assemble rounds=0 msgs=0
job.done rounds=2702 msgs=4236
profile {"charged_rounds":0,"messages":35,"simulated_rounds":12,"stage":"bfs","words":35}
profile {"charged_rounds":34,"messages":0,"simulated_rounds":0,"stage":"mst","words":0}
profile {"charged_rounds":929,"messages":2083,"simulated_rounds":376,"stage":"tap","words":3694}
profile {"charged_rounds":0,"messages":0,"simulated_rounds":0,"stage":"assemble","words":0}
engine sim=776 charged=1926 msgs=4236 words=7458 profiled=1
`
