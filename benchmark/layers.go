package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"twoecss/internal/congest"
	"twoecss/internal/ecss"
	"twoecss/internal/graph"
	"twoecss/internal/service"
	"twoecss/internal/store"
)

// Replay budgets: a per-call layer is timed over at least replayOps calls
// (so its tail can be p99) unless replayBudget runs out first.
const (
	replayOps    = 1000
	replayBudget = 300 * time.Millisecond
)

// opStats is one layer call's cost: its time per call in microseconds,
// and allocations and bytes per call from the MemStats delta over the
// batch of calls.
type opStats struct {
	d      dist
	allocs float64
	bytes  float64
}

// measureOp calls op on inputs 0..k-1 in turn, at least once each and at
// least minOps times unless budget runs out first, timing every call.
func measureOp(k, minOps int, budget time.Duration, op func(i int) error) (opStats, error) {
	durs := make([]float64, 0, max(minOps, k))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < k || (i < minOps && time.Since(start) < budget); i++ {
		t0 := time.Now()
		if err := op(i % k); err != nil {
			return opStats{}, err
		}
		durs = append(durs, us(time.Since(t0)))
	}
	runtime.ReadMemStats(&after)
	n := float64(len(durs))
	return opStats{
		d:      summarize(durs),
		allocs: float64(after.Mallocs-before.Mallocs) / n,
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	}, nil
}

// sink keeps results of measured calls alive so the compiler cannot drop
// the calls.
var sink any

// replayOut is what the layer replay measured.
type replayOut struct {
	ops      map[string]opStats // per-call layers, by layer name
	stages   map[string]opStats // solve stages, per solve
	solve    opStats            // allocations of whole SolveOn calls on fresh networks
	nsRound  float64            // solve wall time per simulated round
	obsPct   float64            // armed-observer solve time over disarmed, in percent
	spans    []span             // the HTTP replay's spans
	samples  []sample           // the HTTP replay's requests
	counters counters           // the HTTP replay's stack counts
	tables   map[string]float64 // one regeneration's experiment times, ms
}

// replay passes a fixed sample of the workload's inputs through each
// layer's public call in handler order, one call at a time on one
// goroutine: first whole requests through a router over two shards, then
// decode, graph build, hash, cache-hit admission, encode, marshal, store
// put and view reads, then solves split into stages, with and without a
// round recorder, and verification. With regen it also times each
// experiment of one E1-E12 regeneration for tableSeed.
func replay(tmp string, ins []*input, tableSeed int64, regen bool) (*replayOut, error) {
	out := &replayOut{ops: make(map[string]opStats), stages: make(map[string]opStats)}
	dep, err := deploy(tmp, 2, true)
	if err != nil {
		return nil, err
	}
	defer dep.close()
	tr := newTracer()
	dep.tracer.Store(tr)
	k := len(ins)
	replies := make([]*reply, k)
	// One solve of each input, then enough hits for a p90 of the
	// per-request spans.
	rounds := 1 + (500+k-1)/k
	for r := 0; r < rounds; r++ {
		for i, in := range ins {
			s := sample{in: in, req: fmt.Sprintf("replay-%d-%d", r, i)}
			rep := dep.post(in, &s)
			if rep == nil {
				return nil, fmt.Errorf("replay request: %s", s.err)
			}
			if r == 1 {
				replies[i] = rep
			}
			out.samples = append(out.samples, s)
		}
	}
	out.counters = dep.counters()
	out.spans = tr.link()
	dep.tracer.Store(nil)
	// Direct calls come next. Stop the router first: its firehose readers
	// would otherwise allocate on other goroutines while MemStats deltas
	// are being taken.
	dep.rt.Close()
	dep.rsrv.Close()
	dep.rt = nil

	reqs := make([]service.SolveRequest, k)
	graphs := make([]*graph.Graph, k)
	svcs := make([]*service.Service, k)
	rws := make([]service.ResultWire, k)
	for i, in := range ins {
		if err := json.Unmarshal(in.body, &reqs[i]); err != nil {
			return nil, err
		}
		if graphs[i], err = reqs[i].Graph.Graph(); err != nil {
			return nil, err
		}
		for _, sh := range dep.shards {
			if sh.srv.URL == replies[i].shard {
				svcs[i] = sh.svc
			}
		}
		if svcs[i] == nil {
			return nil, fmt.Errorf("replay: reply from unknown shard %q", replies[i].shard)
		}
		if err := json.Unmarshal(replies[i].Result, &rws[i]); err != nil {
			return nil, err
		}
	}
	opt := ecss.DefaultOptions()
	measure := func(name string, minOps int, op func(i int) error) error {
		st, err := measureOp(k, minOps, replayBudget, op)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out.ops[name] = st
		return nil
	}
	steps := []struct {
		name   string
		minOps int
		op     func(i int) error
	}{
		{"service.decode", replayOps, func(i int) error {
			var r service.SolveRequest
			err := json.Unmarshal(ins[i].body, &r)
			sink = &r
			return err
		}},
		{"graph.build", replayOps, func(i int) error {
			g, err := reqs[i].Graph.Graph()
			sink = g
			return err
		}},
		{"graph.hash", replayOps, func(i int) error {
			sink = graphs[i].Hash()
			return nil
		}},
		{"service.submit_hit", replayOps, func(i int) error {
			_, hit, err := svcs[i].SubmitWith(graphs[i], opt, service.Admit{Priority: service.PriorityBatch, RequestID: "replay-hit"})
			if err == nil && !hit {
				err = fmt.Errorf("input %d was not a cache hit", i)
			}
			return err
		}},
		{"service.encode", replayOps, func(i int) error {
			var v any = replies[i].JobResponse
			return json.NewEncoder(io.Discard).Encode(v)
		}},
		{"service.marshal", replayOps, func(i int) error {
			b, err := json.Marshal(rws[i])
			sink = b
			return err
		}},
	}
	for _, s := range steps {
		if err := measure(s.name, s.minOps, s.op); err != nil {
			return nil, err
		}
	}
	if err := replayStore(tmp, replies, out); err != nil {
		return nil, err
	}
	if err := replaySolves(graphs, out); err != nil {
		return nil, err
	}
	if regen {
		t := &tables{seed: tableSeed, tr: newTracer()}
		if _, err := t.regenerate("replay-tables"); err != nil {
			return nil, err
		}
		out.tables = make(map[string]float64)
		for _, s := range t.tr.link() {
			out.tables[s.Name] = ms(s.dur())
		}
	}
	return out, nil
}

// replayStore times durable puts (Put then Flush, as the service's write
// is durable only once the writer has run) and warm view reads of the
// replayed results in a store of its own.
func replayStore(tmp string, replies []*reply, out *replayOut) error {
	dir, err := os.MkdirTemp(tmp, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.OpenWith(dir, store.Options{MaxBytes: storeMaxBytes})
	if err != nil {
		return err
	}
	defer st.Close()
	var keys []store.Key
	put, err := measureOp(len(replies), 100, replayBudget, func(i int) error {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(len(keys)))
		key := store.Key(sha256.Sum256(b[:]))
		keys = append(keys, key)
		if err := st.Put(key, key, key, replies[i].Result); err != nil {
			return err
		}
		return st.Flush()
	})
	if err != nil {
		return fmt.Errorf("store.put: %w", err)
	}
	out.ops["store.put"] = put
	get, err := measureOp(len(keys), replayOps, replayBudget, func(i int) error {
		v, ok := st.GetView(keys[i])
		if !ok {
			return fmt.Errorf("stored key %d missing", i)
		}
		v.Release()
		return nil
	})
	if err != nil {
		return fmt.Errorf("store.getview: %w", err)
	}
	out.ops["store.getview"] = get
	return nil
}

// Solve stage names as ecss.Options.Progress reports them, mapped to the
// layer that runs each stage.
var stageLayer = map[string]string{
	"bfs":      "primitives.bfs",
	"mst":      "mst.mst",
	"tap":      "tap.tap",
	"assemble": "ecss.assemble",
}

// replaySolves solves each graph once on a fresh network, as a cold
// request does, timing each stage and counting its allocations through
// the Progress hook; then re-solves it on the now-warm network with the
// round recorder disarmed and armed, in alternating order, to price the
// recorder; and finally times ecss.Verify on the results.
func replaySolves(graphs []*graph.Graph, out *replayOut) error {
	opt := ecss.DefaultOptions()
	opt.Workers = 1 // the service solves on single-worker networks
	stageUS := make(map[string][]float64)
	stageAllocs := make(map[string]float64)
	var perRound, ratios []float64
	var allocs, bytes float64
	results := make([]*ecss.Result, len(graphs))
	for i, g := range graphs {
		net := congest.NewNetwork(g)
		net.Workers = 1
		var cur string
		var t0 time.Time
		var m0, m1 runtime.MemStats
		closeStage := func() {
			if cur == "" {
				return
			}
			d := time.Since(t0)
			runtime.ReadMemStats(&m1)
			stageUS[cur] = append(stageUS[cur], us(d))
			stageAllocs[cur] += float64(m1.Mallocs - m0.Mallocs)
		}
		opt.Progress = func(stage string) {
			closeStage()
			cur = stage
			runtime.ReadMemStats(&m0)
			t0 = time.Now()
		}
		var b0, b1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&b0)
		start := time.Now()
		res, err := ecss.SolveOn(net, opt)
		closeStage()
		wall := time.Since(start)
		runtime.ReadMemStats(&b1)
		opt.Progress = nil
		if err != nil {
			net.Close()
			return fmt.Errorf("solve: %w", err)
		}
		results[i] = res
		allocs += float64(b1.Mallocs - b0.Mallocs)
		bytes += float64(b1.TotalAlloc - b0.TotalAlloc)
		if res.Stats.SimulatedRounds > 0 {
			perRound = append(perRound, float64(wall.Nanoseconds())/float64(res.Stats.SimulatedRounds))
		}

		pairs := 3
		if wall > 100*time.Millisecond {
			pairs = 1
		}
		rec := congest.NewRoundRecorder(profileRounds, 1)
		var off, on []float64
		for p := 0; p < 2*pairs; p++ {
			armed := (p%2 == 1) != (p/2%2 == 1) // off,on then on,off, ...
			net.ResetAccounting()
			if armed {
				rec.Reset()
				net.Observer = rec
			}
			t := time.Now()
			_, err := ecss.SolveOn(net, opt)
			d := us(time.Since(t))
			net.Observer = nil
			if err != nil {
				net.Close()
				return fmt.Errorf("solve: %w", err)
			}
			if armed {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
		ratios = append(ratios, median(on)/median(off))
		net.Close()
	}
	n := float64(len(graphs))
	for stage, layer := range stageLayer {
		out.stages[layer] = opStats{d: summarize(stageUS[stage]), allocs: stageAllocs[stage] / n}
	}
	out.solve = opStats{allocs: allocs / n, bytes: bytes / n}
	out.nsRound = median(perRound)
	out.obsPct = (median(ratios) - 1) * 100
	ver, err := measureOp(len(graphs), 200, replayBudget, func(i int) error { return ecss.Verify(graphs[i], results[i]) })
	if err != nil {
		return fmt.Errorf("ecss.verify: %w", err)
	}
	out.ops["ecss.verify"] = ver
	return nil
}
