package service

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"twoecss/internal/ecss"
	"twoecss/internal/graph"
)

func testGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := graph.ByFamily("ring", 24, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func waitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
}

// TestSingleFlightConcurrentSubmit is the subsystem acceptance test: N
// goroutines submit the same instance (some via a differently-ordered but
// structurally identical copy) and exactly one solve executes; everyone
// receives byte-identical result bytes.
func TestSingleFlightConcurrentSubmit(t *testing.T) {
	s := New(Config{Workers: 4, QueueDepth: 32})
	defer drain(t, s)

	base := testGraph(t, 1)
	// A structurally identical twin with reversed edge insertion order:
	// different edge ids, same content hash.
	twin := graph.New(base.N)
	for i := len(base.Edges) - 1; i >= 0; i-- {
		e := base.Edges[i]
		twin.MustAddEdge(e.V, e.U, e.W)
	}
	if base.Hash() != twin.Hash() {
		t.Fatal("twin does not content-match base")
	}

	const submitters = 16
	var wg sync.WaitGroup
	results := make([][]byte, submitters)
	errs := make([]error, submitters)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g := base
			if i%2 == 1 {
				g = twin
			}
			j, _, err := s.Submit(g, ecss.DefaultOptions())
			if err != nil {
				errs[i] = err
				return
			}
			<-j.Done()
			snap := s.snapshot(j)
			if snap.Status != StatusDone {
				errs[i] = fmt.Errorf("job %s status %s: %s", j.ID(), snap.Status, snap.Error)
				return
			}
			results[i] = snap.Result
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submitter %d: %v", i, err)
		}
	}
	for i := 1; i < submitters; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("submitter %d received different result bytes", i)
		}
	}
	st := s.Stats()
	if st.Solves != 1 {
		t.Fatalf("got %d solves, want exactly 1 (stats: %+v)", st.Solves, st)
	}
	if st.Hits() != submitters-1 {
		t.Fatalf("got %d hits (%d cache + %d coalesced), want %d",
			st.Hits(), st.CacheHits, st.Coalesced, submitters-1)
	}
}

func TestCacheKeyCoversOptions(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	g := testGraph(t, 2)

	j1, hit, err := s.Submit(g, ecss.DefaultOptions())
	if err != nil || hit {
		t.Fatalf("first submit: hit=%v err=%v", hit, err)
	}
	waitJob(t, j1)

	// Same graph, same options: cache hit on the same job.
	j2, hit, err := s.Submit(g, ecss.DefaultOptions())
	if err != nil || !hit || j2 != j1 {
		t.Fatalf("identical resubmit: job=%v hit=%v err=%v", j2.ID(), hit, err)
	}

	// Same graph, different eps: distinct key, fresh solve.
	opt := ecss.DefaultOptions()
	opt.Eps = 0.5
	j3, hit, err := s.Submit(g, opt)
	if err != nil || hit {
		t.Fatalf("changed-eps submit: hit=%v err=%v", hit, err)
	}
	waitJob(t, j3)

	st := s.Stats()
	if st.Solves != 2 || st.CacheHits != 1 {
		t.Fatalf("got %d solves / %d cache hits, want 2 / 1", st.Solves, st.CacheHits)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	started := make(chan string, 4)
	gate := make(chan struct{})
	s.testJobStart = func(j *Job) {
		started <- j.ID()
		<-gate
	}
	defer func() {
		close(gate)
		drain(t, s)
	}()

	j1, _, err := s.Submit(testGraph(t, 3), ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker holds j1, so the queue buffer is empty again.
	if id := <-started; id != j1.ID() {
		t.Fatalf("worker started %s, want %s", id, j1.ID())
	}
	if _, _, err := s.Submit(testGraph(t, 4), ecss.DefaultOptions()); err != nil {
		t.Fatalf("queueing submit rejected: %v", err)
	}
	_, _, err = s.Submit(testGraph(t, 5), ecss.DefaultOptions())
	if err != ErrQueueFull {
		t.Fatalf("got err %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.RejectedFull != 1 {
		t.Fatalf("RejectedFull = %d, want 1", st.RejectedFull)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	tiny := graph.New(2)
	tiny.MustAddEdge(0, 1, 1)
	if _, _, err := s.Submit(tiny, ecss.DefaultOptions()); err == nil {
		t.Fatal("2-vertex graph admitted")
	}
	bad := ecss.DefaultOptions()
	bad.Eps = 0
	if _, _, err := s.Submit(testGraph(t, 6), bad); err == nil {
		t.Fatal("eps=0 admitted")
	}
	root := ecss.DefaultOptions()
	root.Root = 999
	if _, _, err := s.Submit(testGraph(t, 6), root); err == nil {
		t.Fatal("out-of-range root admitted")
	}
}

func TestFailedJobReported(t *testing.T) {
	s := New(Config{Workers: 1})
	defer drain(t, s)
	// Connected but bridged: admission passes, the solve reports ErrNot2EC.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 0, 1)
	g.MustAddEdge(2, 3, 1)
	j, hit, err := s.Submit(g, ecss.DefaultOptions())
	if err != nil || hit {
		t.Fatalf("submit: hit=%v err=%v", hit, err)
	}
	waitJob(t, j)
	snap := s.snapshot(j)
	if snap.Status != StatusFailed || snap.Error == "" {
		t.Fatalf("got status %s error %q, want failed with message", snap.Status, snap.Error)
	}
	// Failures are not cached: resubmitting solves again.
	j2, hit, err := s.Submit(g, ecss.DefaultOptions())
	if err != nil || hit {
		t.Fatalf("resubmit after failure: hit=%v err=%v", hit, err)
	}
	waitJob(t, j2)
	if st := s.Stats(); st.Solves != 2 || st.Failed != 2 {
		t.Fatalf("got %d solves / %d failed, want 2 / 2", st.Solves, st.Failed)
	}
}

func TestProgressPhasesObserved(t *testing.T) {
	s := New(Config{Workers: 1})
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	s.testJobStart = func(*Job) { <-gate }
	defer drain(t, s)

	j, _, err := s.Submit(testGraph(t, 7), ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if snap := s.snapshot(j); snap.Status != StatusQueued || snap.Phase != "queued" {
		t.Fatalf("pre-run snapshot: %+v", snap)
	}
	release()
	waitJob(t, j)
	snap, ok := s.JobInfo(j.ID())
	if !ok {
		t.Fatal("finished job not addressable")
	}
	if snap.Status != StatusDone || len(snap.Result) == 0 || snap.ElapsedMS < 0 {
		t.Fatalf("terminal snapshot: %+v", snap)
	}
}

func TestDrainFinishesQueuedAndRejectsNew(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 16})
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, _, err := s.Submit(testGraph(t, int64(10+i)), ecss.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s not finished after drain", j.ID())
		}
		if snap := s.snapshot(j); snap.Status != StatusDone {
			t.Fatalf("job %s status %s after drain", j.ID(), snap.Status)
		}
	}
	if _, _, err := s.Submit(testGraph(t, 99), ecss.DefaultOptions()); err != ErrDraining {
		t.Fatalf("post-drain submit: %v, want ErrDraining", err)
	}
}

func drain(t *testing.T, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil && err.Error() != "service: already draining" {
		t.Fatalf("drain: %v", err)
	}
}

// TestFinishedSolveReleasesEngineWorkers checks that a finished solve
// leaves no engine goroutines behind: each solve's network runs parallel
// rounds on its own worker pool and is closed when the solve ends, so the
// goroutine count returns to its post-New baseline before Drain.
func TestFinishedSolveReleasesEngineWorkers(t *testing.T) {
	s := New(Config{Workers: 1, NetWorkers: 4})
	defer drain(t, s)
	base := runtime.NumGoroutine()
	j, _, err := s.Submit(graph.Grid(16, 16, graph.DefaultGenConfig(1)), ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if snap := s.snapshot(j); snap.Status != StatusDone {
		t.Fatalf("job %+v, want done", snap)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the solve finished, want at most the post-New %d",
				runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJobCacheLRU(t *testing.T) {
	c := newJobCache(2)
	mkKey := func(b byte) Key { var k Key; k[0] = b; return k }
	j1, j2, j3 := &Job{id: "a"}, &Job{id: "b"}, &Job{id: "c"}
	if ev := c.put(mkKey(1), j1); ev != nil {
		t.Fatal("unexpected eviction")
	}
	if ev := c.put(mkKey(2), j2); ev != nil {
		t.Fatal("unexpected eviction")
	}
	if got, ok := c.get(mkKey(1)); !ok || got != j1 {
		t.Fatal("missing entry 1")
	}
	// 1 is now most-recent; inserting 3 evicts 2.
	if ev := c.put(mkKey(3), j3); ev != j2 {
		t.Fatalf("evicted %v, want j2", ev)
	}
	if _, ok := c.get(mkKey(2)); ok {
		t.Fatal("evicted entry still present")
	}
	if c.len() != 2 {
		t.Fatalf("len %d, want 2", c.len())
	}
}
