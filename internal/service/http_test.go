package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"twoecss/internal/graph"
)

func postSolve(t *testing.T, srv *httptest.Server, req SolveRequest) (int, JobResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, jr
}

func TestHTTPEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2})
	defer drain(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	g := testGraph(t, 20)
	req := SolveRequest{Graph: WireGraph(g), Wait: true}

	code, first := postSolve(t, srv, req)
	if code != http.StatusOK || first.Status != StatusDone || first.Cached {
		t.Fatalf("first solve: code=%d resp=%+v", code, first)
	}
	var res ResultWire
	if err := json.Unmarshal(first.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Edges) == 0 || res.Weight <= 0 || res.CertifiedRatio > 5.5 {
		t.Fatalf("implausible result: %+v", res)
	}

	// Identical request: cache hit, byte-identical result payload.
	code, second := postSolve(t, srv, req)
	if code != http.StatusOK || !second.Cached {
		t.Fatalf("second solve: code=%d resp=%+v", code, second)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("cached result bytes differ from the original solve")
	}
	if second.JobID != first.JobID {
		t.Fatalf("cache hit returned job %s, want %s", second.JobID, first.JobID)
	}

	// Job endpoint agrees.
	jresp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + first.JobID)
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var byID JobResponse
	if err := json.NewDecoder(jresp.Body).Decode(&byID); err != nil {
		t.Fatal(err)
	}
	if jresp.StatusCode != http.StatusOK || byID.Status != StatusDone || !bytes.Equal(byID.Result, first.Result) {
		t.Fatalf("job lookup: code=%d resp=%+v", jresp.StatusCode, byID)
	}

	// Stats endpoint reflects one solve and one hit.
	sresp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Solves != 1 || st.CacheHits != 1 {
		t.Fatalf("stats %+v, want 1 solve and 1 cache hit", st)
	}

	// Health endpoint.
	hresp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hresp.StatusCode)
	}
}

// TestHealthzDrainAware pins the readiness contract a balancer relies on:
// 200 {"status":"ok"} while serving, 503 {"status":"draining"} from the
// moment Drain begins — never an unconditional 200.
func TestHealthzDrainAware(t *testing.T) {
	s := New(Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func() (int, map[string]string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, body := get(); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("pre-drain healthz: code=%d body=%v, want 200 ok", code, body)
	}
	drain(t, s)
	if code, body := get(); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("post-drain healthz: code=%d body=%v, want 503 draining", code, body)
	}
}

func TestHTTPAsyncSubmitThenPoll(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	code, resp := postSolve(t, srv, SolveRequest{Graph: WireGraph(testGraph(t, 21))})
	if resp.JobID == "" {
		t.Fatalf("async submit returned no job id: %+v", resp)
	}
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("async submit: code=%d", code)
	}
	j := func() *Job {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.jobs[resp.JobID]
	}()
	waitJob(t, j)
	info, ok := s.JobInfo(resp.JobID)
	if !ok || info.Status != StatusDone {
		t.Fatalf("polled job: ok=%v info=%+v", ok, info)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	selfLoop := SolveRequest{Graph: GraphWire{N: 4, Edges: [][3]int64{{0, 0, 1}}}}
	if code, _ := postSolve(t, srv, selfLoop); code != http.StatusBadRequest {
		t.Fatalf("self-loop graph: code=%d, want 400", code)
	}
	badVariant := SolveRequest{
		Graph:   WireGraph(testGraph(t, 22)),
		Options: OptionsWire{Variant: "cover9"},
	}
	if code, _ := postSolve(t, srv, badVariant); code != http.StatusBadRequest {
		t.Fatalf("bad variant: code=%d, want 400", code)
	}
	tiny := graph.New(2)
	tiny.MustAddEdge(0, 1, 1)
	if code, _ := postSolve(t, srv, SolveRequest{Graph: WireGraph(tiny)}); code != http.StatusBadRequest {
		t.Fatalf("tiny graph: code=%d, want 400", code)
	}

	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: code=%d, want 404", resp.StatusCode)
	}

	// Bodies the handler must refuse with 400. want is a substring of the
	// error: the triple's index where the edge-list decoder sees the fault,
	// encoding/json's own complaint where the body is not JSON at all, or
	// admission's complaint about an out-of-range option.
	wrap := func(edges string) string { return `{"graph":{"n":4,"edges":` + edges + `},"wait":true}` }
	for _, tc := range []struct{ name, body, want string }{
		{"truncated", `{"graph":{"n":4,"edges":[[0,1,1],[1,2`, "unexpected EOF"},
		{"fraction", wrap(`[[0,1,1],[1,2,1.5]]`), "edges[1]: want [u, v, w] integer triple"},
		{"exponent", wrap(`[[0,1,1e3]]`), "edges[0]"},
		{"string", wrap(`[[0,"1",1]]`), "edges[0]"},
		{"overflow", wrap(`[[0,1,9223372036854775808]]`), "edges[0]"},
		{"leading zero", wrap(`[[0,01,1]]`), "invalid character"},
		{"pair", wrap(`[[0,1,1],[1,2,1],[0,1]]`), "edges[2]"},
		{"quad", wrap(`[[0,1,1,5]]`), "edges[0]"},
		{"trailing comma", wrap(`[[0,1,1],]`), "invalid character"},
		{"null element", wrap(`[[0,1,null]]`), "edges[0]"},
		{"eps above one", `{"graph":{"n":4,"edges":[[0,1,1],[1,2,1],[2,3,1],[3,0,1]]},"options":{"eps":1.5},"wait":true}`, "eps 1.5 out of (0,1)"},
	} {
		resp, err := srv.Client().Post(srv.URL+"/v1/solve", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: code=%d error %q, want 400 mentioning %q", tc.name, resp.StatusCode, e.Error, tc.want)
		}
	}
}
