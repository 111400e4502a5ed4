package router

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"twoecss/internal/faults"
	"twoecss/internal/obs"
	"twoecss/internal/service"
)

// TestFleetEngineLedgerConserved holds the engine cost ledger together
// across the service-JSON -> router contract, with a retried solve in the
// mix so a retry cannot bill twice or vanish: once traffic stops, the
// router's shard-tagged ecss_engine_* sums equal the sum of the real
// shards' Stats().Engine, and that equals the sum of the job.done bills
// published on the shards' buses.
func TestFleetEngineLedgerConserved(t *testing.T) {
	// The first solve to pass post-verification fails there once, so it is
	// retried after billing every stage of its failed attempt.
	if err := faults.Arm("solve.postverify:error,count=1"); err != nil {
		t.Fatal(err)
	}
	defer faults.Disarm()

	var (
		svcs  []*service.Service
		subs  []*obs.Sub
		addrs []string
	)
	for i := 0; i < 2; i++ {
		svc := service.New(service.Config{Workers: 1})
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := svc.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
		}()
		sub := svc.Obs().Bus.Subscribe(obs.SubOptions{Types: []string{obs.EvJobDone}, Buffer: 64})
		defer sub.Close()
		srv := httptest.NewServer(svc.Handler())
		defer srv.Close()
		svcs, subs, addrs = append(svcs, svc), append(subs, sub), append(addrs, srv.URL)
	}
	rt, err := New(quietConfig(), addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// The ring is seeded with the shards' random ports, so no fixed key set
	// is sure to reach both shards: keep sending distinct instances, at
	// least minSolves of them, until every shard has run a solve.
	const minSolves, maxSolves = 8, 64
	spans := func() bool {
		for _, svc := range svcs {
			if svc.Stats().Solves == 0 {
				return false
			}
		}
		return true
	}
	solves := 0
	for seed := int64(1); solves < maxSolves && (solves < minSolves || !spans()); seed++ {
		resp, err := http.Post(front.URL+"/v1/solve", "application/json", bytes.NewReader(testBody(t, seed)))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Status service.Status `json:"status"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || out.Status != service.StatusDone {
			t.Fatalf("seed %d: HTTP %d status %q err %v", seed, resp.StatusCode, out.Status, err)
		}
		solves++
	}
	if !spans() {
		t.Fatalf("%d solves all ran on one shard: the test no longer spans the fleet", solves)
	}

	var ledger service.EngineStats
	var retries int64
	for _, svc := range svcs {
		st := svc.Stats()
		retries += st.Retries
		ledger.SimulatedRounds += st.Engine.SimulatedRounds
		ledger.ChargedRounds += st.Engine.ChargedRounds
		ledger.Messages += st.Engine.Messages
	}
	if retries != 1 {
		t.Fatalf("fleet retried %d solves, want exactly the 1 injected", retries)
	}

	// The wait=true responses return after each job's terminal event is
	// published, so every bill is already buffered. The 64-event buffers
	// hold maxSolves bills between them.
	var billRounds, billMsgs int64
	var bills int
	for _, sub := range subs {
		for len(sub.C()) > 0 {
			ev := <-sub.C()
			billRounds += ev.Rounds
			billMsgs += ev.Msgs
			bills++
		}
	}
	if bills != solves || billRounds <= 0 || billMsgs <= 0 {
		t.Fatalf("%d job.done bills for %d rounds / %d messages, want %d non-empty bills",
			bills, billRounds, billMsgs, solves)
	}
	if rounds := ledger.SimulatedRounds + ledger.ChargedRounds; rounds != billRounds || ledger.Messages != billMsgs {
		t.Fatalf("shard ledgers bill %d rounds / %d messages, job.done events %d / %d",
			rounds, ledger.Messages, billRounds, billMsgs)
	}

	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateExposition(doc); err != nil {
		t.Fatalf("router exposition invalid: %v", err)
	}
	rounds, _ := obs.SumSeries(doc, "ecss_engine_rounds_total")
	msgs, _ := obs.SumSeries(doc, "ecss_engine_messages_total")
	if int64(rounds) != billRounds || int64(msgs) != billMsgs {
		t.Fatalf("router /metrics sums %.0f rounds / %.0f messages, shards bill %d / %d",
			rounds, msgs, billRounds, billMsgs)
	}
}
