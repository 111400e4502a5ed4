package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"twoecss/internal/graph"
	"twoecss/internal/obs"
)

// hostileIDs are request ids whose JSON encoding needs every kind of
// escape encoding/json applies: quote, backslash, the HTML-unsafe <>&, the
// line separator U+2028, a control byte and invalid UTF-8.
var hostileIDs = []string{
	`plain-id`,
	`q"uote`,
	`back\slash`,
	`<script>&amp;</script>`,
	"line\u2028sep\u2029para",
	"tab\tbell\a",
	"bad\xffutf8\xc3",
}

// serveJob sends one request straight to h and returns the recorded
// response.
func serveJob(h http.Handler, method, path, reqID string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	r := httptest.NewRequest(method, path, bytes.NewReader(body))
	if reqID != "" {
		r.Header.Set(obs.RequestIDHeader, reqID)
	}
	h.ServeHTTP(w, r)
	return w
}

// checkJobBytes fails unless body is byte for byte what
// json.NewEncoder(w).Encode gives for the JobResponse it decodes to, with
// its request id set to reqID: the id goes in raw, since decoding would
// already have replaced invalid UTF-8.
func checkJobBytes(t *testing.T, what string, body []byte, reqID string) JobResponse {
	t.Helper()
	var resp JobResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("%s: %v: %s", what, err, body)
	}
	resp.RequestID = reqID
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("%s: response bytes\n%q\nwant encoding/json's\n%q", what, body, want.Bytes())
	}
	return resp
}

// TestJobResponseBytes pins the bytes of POST /v1/solve and
// GET /v1/jobs/{id} responses to what encoding/json's Encoder writes for
// the same JobResponse, trailing newline included: a miss, a hit, an
// async 202 while the job is queued, a failed job with its error text,
// each under every hostile request id.
func TestJobResponseBytes(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	h := s.Handler()
	started, step := stepGate(s)
	close(step) // no gating unless a test holds the worker back below

	// Connected but bridged: the solve fails with an error text.
	bridged := graph.New(4)
	bridged.MustAddEdge(0, 1, 1)
	bridged.MustAddEdge(1, 2, 1)
	bridged.MustAddEdge(2, 0, 1)
	bridged.MustAddEdge(2, 3, 1)

	for i, id := range hostileIDs {
		solve := func(g *graph.Graph, wait bool) []byte {
			body, err := json.Marshal(SolveRequest{Graph: WireGraph(g), Wait: wait})
			if err != nil {
				t.Fatal(err)
			}
			return body
		}
		ok := solve(testGraph(t, int64(300+i)), true)

		w := serveJob(h, http.MethodPost, "/v1/solve", id, ok)
		miss := checkJobBytes(t, "miss", w.Body.Bytes(), id)
		if w.Code != http.StatusOK || miss.Cached || miss.Status != StatusDone || len(miss.Result) == 0 {
			t.Fatalf("miss: code %d, %+v", w.Code, miss)
		}
		<-started

		w = serveJob(h, http.MethodPost, "/v1/solve", id, ok)
		if hit := checkJobBytes(t, "hit", w.Body.Bytes(), id); w.Code != http.StatusOK || !hit.Cached {
			t.Fatalf("hit: code %d, %+v", w.Code, hit)
		}
		w = serveJob(h, http.MethodGet, "/v1/jobs/"+miss.JobID, "", nil)
		checkJobBytes(t, "done job", w.Body.Bytes(), id)

		w = serveJob(h, http.MethodPost, "/v1/solve", id, solve(bridged, true))
		failed := checkJobBytes(t, "failed", w.Body.Bytes(), id)
		if w.Code != http.StatusOK || failed.Status != StatusFailed || failed.Error == "" {
			t.Fatalf("failed: code %d, %+v", w.Code, failed)
		}
		<-started
		w = serveJob(h, http.MethodGet, "/v1/jobs/"+failed.JobID, "", nil)
		checkJobBytes(t, "failed job", w.Body.Bytes(), id)
	}

	// An async submit answers 202 with the job as it stands; hold the
	// worker back so the job is still queued or just picked up.
	hold := make(chan struct{})
	s.mu.Lock()
	s.testJobStart = func(*Job) { <-hold }
	s.mu.Unlock()
	for i, id := range hostileIDs {
		body, err := json.Marshal(SolveRequest{Graph: WireGraph(testGraph(t, int64(400+i)))})
		if err != nil {
			t.Fatal(err)
		}
		w := serveJob(h, http.MethodPost, "/v1/solve", id, body)
		queued := checkJobBytes(t, "async", w.Body.Bytes(), id)
		if w.Code != http.StatusAccepted || queued.Status == StatusDone || len(queued.Result) != 0 {
			t.Fatalf("async: code %d, %+v", w.Code, queued)
		}
		w = serveJob(h, http.MethodGet, "/v1/jobs/"+queued.JobID, "", nil)
		checkJobBytes(t, "queued job", w.Body.Bytes(), id)
	}
	close(hold)
}
