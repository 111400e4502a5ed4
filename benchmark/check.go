package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"

	"twoecss/internal/ecss"
	"twoecss/internal/graph"
	"twoecss/internal/service"
)

// input is one generated instance as the program receives it: the body of
// a wait=true solve request.
type input struct {
	family string
	n      int
	seed   int64
	body   []byte
}

type inputSpec struct {
	family string
	n      int
	seed   int64
}

// derive returns an independent seed for item i of a named stream of the
// run's seed, so every workload input follows from -seed alone.
func derive(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d", stream, seed, i)
	z := h.Sum64() + 0x9e3779b97f4a7c15 // splitmix64 finalizer
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// roundRobin names count instances of size n whose families cycle through
// fams, each with its own seed from stream.
func roundRobin(fams []string, n, count int, seed int64, stream string) []inputSpec {
	out := make([]inputSpec, count)
	for i := range out {
		out[i] = inputSpec{fams[i%len(fams)], n, derive(seed, stream, i)}
	}
	return out
}

// generate builds the instances and request bodies of specs on GOMAXPROCS
// goroutines. Each input depends only on its spec, so the result does not
// depend on scheduling.
func generate(specs []inputSpec) ([]*input, error) {
	out := make([]*input, len(specs))
	errs := make([]error, len(specs))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(specs); i += workers {
				sp := specs[i]
				g, err := graph.ByFamily(sp.family, sp.n, sp.seed)
				if err != nil {
					errs[i] = err
					continue
				}
				body, err := json.Marshal(service.SolveRequest{Graph: service.WireGraph(g), Wait: true})
				out[i], errs[i] = &input{sp.family, sp.n, sp.seed, body}, err
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// graphOf rebuilds the instance exactly as the service decodes it.
func graphOf(in *input) (*graph.Graph, error) {
	var req service.SolveRequest
	if err := json.Unmarshal(in.body, &req); err != nil {
		return nil, err
	}
	return req.Graph.Graph()
}

// results keeps the first result bytes served for each input; every later
// response for the same input must repeat them byte for byte.
type results struct {
	mu         sync.Mutex
	first      map[*input][]byte
	order      []*input
	repeats    int
	mismatches int
	mismatch   string // the first mismatch
}

func newResults() *results { return &results{first: make(map[*input][]byte)} }

func (r *results) record(in *input, raw []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, seen := r.first[in]
	if !seen {
		r.first[in] = raw
		r.order = append(r.order, in)
		return
	}
	r.repeats++
	if !bytes.Equal(prev, raw) {
		r.mismatches++
		if r.mismatch == "" {
			r.mismatch = fmt.Sprintf("%s n=%d seed=%d: %d bytes then %d bytes", in.family, in.n, in.seed, len(prev), len(raw))
		}
	}
}

// verifyAll checks every distinct result with verify and sums the engine
// cost the results report.
func (r *results) verifyAll() (rounds, msgs int64, err error) {
	for _, in := range r.order {
		rw, err := verify(in, r.first[in])
		if err != nil {
			return 0, 0, fmt.Errorf("%s n=%d seed=%d: %w", in.family, in.n, in.seed, err)
		}
		rounds += rw.SimulatedRounds + rw.ChargedRounds
		msgs += rw.Messages
	}
	return rounds, msgs, nil
}

// checks reports the byte-identity and verification checks of the results.
func (r *results) checks() ([]check, int64, int64) {
	ident := check{Name: "repeats_identical", OK: r.mismatches == 0,
		Detail: fmt.Sprintf("%d repeated responses, %d differ", r.repeats, r.mismatches)}
	if r.mismatch != "" {
		ident.Detail += "; first: " + r.mismatch
	}
	rounds, msgs, err := r.verifyAll()
	ver := check{Name: "results_verified", OK: err == nil, Detail: fmt.Sprintf("%d distinct results pass ecss.Verify", len(r.order))}
	if err != nil {
		ver.Detail = err.Error()
	}
	return []check{ident, ver}, rounds, msgs
}

// verify decodes a served result, maps its (u, v, w) triples back to edge
// ids of the input's graph, and checks the solution with ecss.Verify.
func verify(in *input, raw []byte) (service.ResultWire, error) {
	var rw service.ResultWire
	if err := json.Unmarshal(raw, &rw); err != nil {
		return rw, fmt.Errorf("decode result: %w", err)
	}
	g, err := graphOf(in)
	if err != nil {
		return rw, err
	}
	// Parallel edges may share a weight, so each triple names a queue of
	// edge ids and every served triple takes the next one.
	ids := make(map[[3]int64][]int, g.M())
	for id, e := range g.Edges {
		k := [3]int64{int64(min(e.U, e.V)), int64(max(e.U, e.V)), e.W}
		ids[k] = append(ids[k], id)
	}
	res := &ecss.Result{Weight: rw.Weight}
	for _, t := range rw.Edges {
		q := ids[t]
		if len(q) == 0 {
			return rw, fmt.Errorf("result edge %v is not an edge of the instance", t)
		}
		res.Edges = append(res.Edges, q[0])
		ids[t] = q[1:]
	}
	if err := ecss.Verify(g, res); err != nil {
		return rw, err
	}
	return rw, nil
}

// check is one output check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

//go:embed expected.json
var expectedJSON []byte

// expectation is the exact output of a deterministic workload.
type expectation struct {
	Digest   string `json:"digest,omitempty"`
	Rounds   int64  `json:"rounds"`
	Messages int64  `json:"messages"`
}

// expectations are the recorded exact outputs: the tables of each
// experiment seed.
type expectations struct {
	Tables map[string]expectation `json:"tables"`
}

// recorded parses the expectations embedded at build time.
func recorded() expectations {
	var e expectations
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		panic(fmt.Sprintf("embedded expected.json: %v", err))
	}
	return e
}

// exactCheck compares an exact output with its recorded value; an output
// with none recorded (a size only tests use) passes with a note.
func exactCheck(what string, got, want expectation, ok bool) check {
	c := check{Name: "matches_expected", OK: true}
	switch {
	case !ok:
		c.Detail = fmt.Sprintf("%s: nothing recorded", what)
	case want != got:
		c.OK = false
		c.Detail = fmt.Sprintf("%s: got %+v, recorded %+v", what, got, want)
	default:
		c.Detail = fmt.Sprintf("%s: equals the recorded %+v", what, want)
	}
	return c
}
