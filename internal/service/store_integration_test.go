package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"twoecss/internal/ecss"
	"twoecss/internal/faults"
	"twoecss/internal/obs"
	"twoecss/internal/store"
)

func openStore(t *testing.T, dir string, maxBytes int64) *store.Store {
	t.Helper()
	st, err := store.Open(dir, maxBytes)
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return st
}

// TestRestartServesFromStoreEndToEnd is the PR's acceptance test: fill a
// disk-backed service through the HTTP API, drain it, start a fresh Service
// on the same directory, and every previously solved instance must be
// served byte-identically with zero solver invocations.
func TestRestartServesFromStoreEndToEnd(t *testing.T) {
	dir := t.TempDir()
	const instances = 5

	s1 := New(Config{Workers: 2, Store: openStore(t, dir, 0)})
	srv1 := httptest.NewServer(s1.Handler())
	first := make(map[int][]byte)
	for seed := 1; seed <= instances; seed++ {
		req := SolveRequest{Graph: WireGraph(testGraph(t, int64(seed))), Wait: true}
		code, resp := postSolve(t, srv1, req)
		if code != http.StatusOK || resp.Status != StatusDone {
			t.Fatalf("seed %d cold solve: code=%d resp=%+v", seed, code, resp)
		}
		first[seed] = resp.Result
	}
	if st := s1.Stats(); st.Solves != instances || st.Store == nil {
		t.Fatalf("cold stats %+v, want %d solves on a store-backed service", st, instances)
	}
	srv1.Close()
	drain(t, s1) // flushes and closes the store

	// Fresh process image: new store replay, new service, same directory.
	s2 := New(Config{Workers: 2, Store: openStore(t, dir, 0)})
	defer drain(t, s2)
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	for seed := 1; seed <= instances; seed++ {
		req := SolveRequest{Graph: WireGraph(testGraph(t, int64(seed))), Wait: true}
		code, resp := postSolve(t, srv2, req)
		if code != http.StatusOK || resp.Status != StatusDone || !resp.Cached {
			t.Fatalf("seed %d warm solve: code=%d resp=%+v", seed, code, resp)
		}
		if !bytes.Equal(resp.Result, first[seed]) {
			t.Fatalf("seed %d warm result differs from pre-restart bytes", seed)
		}
	}
	st := s2.Stats()
	if st.Solves != 0 {
		t.Fatalf("warm restart ran %d solves, want 0 (stats %+v)", st.Solves, st)
	}
	if st.StoreHits != instances {
		t.Fatalf("warm restart served %d store hits, want %d (one per instance)", st.StoreHits, instances)
	}
}

// TestStoreFromGraphPathServesWirePath fills a store through SubmitWith,
// which keys on Graph.Hash, and serves it after a restart through the
// HTTP handler, which keys on the wire edges: every instance must be a
// store hit with the same bytes and no solve. A store written before the
// handler hashed wire edges was keyed by Graph.Hash, whose digests
// TestHashGolden and TestHashEdgesGolden pin for both paths.
func TestStoreFromGraphPathServesWirePath(t *testing.T) {
	dir := t.TempDir()
	const instances = 4
	s1 := New(Config{Workers: 2, Store: openStore(t, dir, 0)})
	first := make(map[int][]byte)
	for seed := 1; seed <= instances; seed++ {
		j, _, err := s1.Submit(testGraph(t, int64(seed)), ecss.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		first[seed] = s1.snapshot(j).Result
	}
	drain(t, s1)

	s2 := New(Config{Workers: 2, Store: openStore(t, dir, 0)})
	defer drain(t, s2)
	srv := httptest.NewServer(s2.Handler())
	defer srv.Close()
	for seed := 1; seed <= instances; seed++ {
		code, resp := postSolve(t, srv, SolveRequest{Graph: WireGraph(testGraph(t, int64(seed))), Wait: true})
		if code != http.StatusOK || !resp.Cached || !bytes.Equal(resp.Result, first[seed]) {
			t.Fatalf("seed %d: code=%d cached=%v, same bytes %v", seed, code, resp.Cached, bytes.Equal(resp.Result, first[seed]))
		}
	}
	if st := s2.Stats(); st.Solves != 0 || st.StoreHits != instances {
		t.Fatalf("stats %+v, want %d store hits and no solve", st, instances)
	}
}

// TestRestartAdoptsOnDemand: a service restarted on a warm store starts
// with nothing in memory — no cached entry, no job record, no job.cached
// event — and adopts a stored result only when a request asks for it. The
// adopted job holds its own copy of the bytes, so its result outlives the
// store, which Drain closes.
func TestRestartAdoptsOnDemand(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 1)
	s1 := New(Config{Workers: 1, Store: openStore(t, dir, 0)})
	j1, _, err := s1.Submit(g, ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j1)
	want := s1.snapshot(j1).Result
	if len(want) == 0 {
		t.Fatal("cold solve produced no result")
	}
	drain(t, s1)

	o := obs.New()
	s2 := New(Config{Workers: 1, Store: openStore(t, dir, 0), Obs: o})
	if n := s2.Stats().CacheEntries; n != 0 {
		t.Fatalf("restart holds %d cache entries before any request, want 0", n)
	}
	srv := httptest.NewServer(s2.Handler())
	resp, err := srv.Client().Get(srv.URL + "/v1/jobs/j00000001")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/jobs/j00000001 before any request: %d, want 404", resp.StatusCode)
	}
	sub := o.Bus.Subscribe(obs.SubOptions{Types: []string{obs.EvJobCached}, Replay: true})
	cached := len(sub.C())
	sub.Close()
	if cached != 0 {
		t.Fatalf("restart published %d job.cached events before any request, want 0", cached)
	}

	j2, hit, err := s2.Submit(g, ecss.DefaultOptions())
	if err != nil || !hit {
		t.Fatalf("warm submit: hit=%v err=%v", hit, err)
	}
	drain(t, s2)
	info, ok := s2.JobInfo(j2.ID())
	if !ok || !bytes.Equal(info.Result, want) {
		t.Fatalf("store-served result after Drain closed the store: ok=%v, bytes differ from the solve", ok)
	}
	if st := s2.Stats(); st.StoreHits != 1 || st.Solves != 0 {
		t.Fatalf("stats %+v, want exactly 1 store hit and no solve", st)
	}
}

// TestStoreHitWithoutMemoryCache pins the disk-fallback path with the
// memory cache disabled: a warm restart must serve via store.Get and count
// StoreHits.
func TestStoreHitWithoutMemoryCache(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 1)

	s1 := New(Config{Workers: 1, Store: openStore(t, dir, 0)})
	j, _, err := s1.Submit(g, ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	want := s1.snapshot(j).Result
	if len(want) == 0 {
		t.Fatal("cold solve produced no result")
	}
	drain(t, s1)

	s2 := New(Config{Workers: 1, CacheEntries: -1, Store: openStore(t, dir, 0)})
	defer drain(t, s2)
	j2, hit, err := s2.Submit(g, ecss.DefaultOptions())
	if err != nil || !hit {
		t.Fatalf("warm submit: hit=%v err=%v", hit, err)
	}
	waitJob(t, j2)
	if got := s2.snapshot(j2).Result; !bytes.Equal(got, want) {
		t.Fatal("store-served result differs from the original solve")
	}
	st := s2.Stats()
	if st.StoreHits != 1 || st.Solves != 0 || st.CacheHits != 0 {
		t.Fatalf("stats %+v, want exactly 1 store hit and no solve", st)
	}
}

// TestRestartQuarantinesCorruptEntry: damage one persisted entry between
// runs; the reopened store drops it, and the restarted service must
// re-solve exactly that instance and keep serving the rest warm.
func TestRestartQuarantinesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	const instances = 4
	s1 := New(Config{Workers: 2, Store: openStore(t, dir, 0)})
	keys := make(map[int][32]byte)
	for seed := 1; seed <= instances; seed++ {
		j, _, err := s1.Submit(testGraph(t, int64(seed)), ecss.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		keys[seed] = [32]byte(j.key)
	}
	drain(t, s1)

	// Flip a payload byte of seed 2's entry on disk.
	corruptKey := keys[2]
	path := filepath.Join(dir, "objects", fmt.Sprintf("%x.res", corruptKey[:]))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x80
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, 0)
	if sst := st2.Stats(); sst.Corruptions != 1 || sst.Entries != instances-1 {
		t.Fatalf("reopen stats %+v, want 1 corruption / %d survivors", sst, instances-1)
	}
	s2 := New(Config{Workers: 2, Store: st2})
	defer drain(t, s2)
	for seed := 1; seed <= instances; seed++ {
		j, hit, err := s2.Submit(testGraph(t, int64(seed)), ecss.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		wantHit := seed != 2
		if hit != wantHit {
			t.Fatalf("seed %d: hit=%v, want %v", seed, hit, wantHit)
		}
		waitJob(t, j)
		if snap := s2.snapshot(j); snap.Status != StatusDone {
			t.Fatalf("seed %d: %+v", seed, snap)
		}
	}
	if st := s2.Stats(); st.Solves != 1 {
		t.Fatalf("re-solved %d instances, want exactly the damaged one (stats %+v)", st.Solves, st)
	}
}

// TestCorruptionUnderLiveTrafficHealed is the steady-state self-healing
// test: an object damaged while the service keeps serving (not between
// restarts) must be dropped on first touch and transparently re-solved with
// byte-identical results; a transient read failure unlinks the intact file
// the same way, and once the re-solve is written back the store serves it.
func TestCorruptionUnderLiveTrafficHealed(t *testing.T) {
	dir := t.TempDir()
	// No memory cache: every submit consults the store, so disk damage is
	// visible to live traffic immediately.
	s := New(Config{Workers: 2, CacheEntries: -1, Store: openStore(t, dir, 0)})
	defer drain(t, s)
	g := testGraph(t, 1)

	j1, hit, err := s.Submit(g, ecss.DefaultOptions())
	if err != nil || hit {
		t.Fatalf("cold submit: hit=%v err=%v", hit, err)
	}
	waitJob(t, j1)
	want := s.snapshot(j1).Result
	if len(want) == 0 {
		t.Fatal("cold solve produced no result")
	}
	if err := s.store.Flush(); err != nil {
		t.Fatal(err)
	}

	// Damage the object in place, mid-flight.
	key := [32]byte(j1.key)
	path := filepath.Join(dir, "objects", fmt.Sprintf("%x.res", key[:]))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x80
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// Next request: the corrupt read drops the entry, misses, and re-solves
	// to the same bytes — the client never sees the damage.
	j2, hit, err := s.Submit(g, ecss.DefaultOptions())
	if err != nil || hit {
		t.Fatalf("post-corruption submit: hit=%v err=%v", hit, err)
	}
	waitJob(t, j2)
	if got := s.snapshot(j2).Result; !bytes.Equal(got, want) {
		t.Fatal("re-solved result differs from the original bytes")
	}
	st := s.Stats()
	if st.Solves != 2 || st.StoreHits != 0 || st.Store.Corruptions != 1 {
		t.Fatalf("stats %+v / store %+v, want 2 solves, no store hit, 1 corruption", st, st.Store)
	}
	if err := s.store.Flush(); err != nil {
		t.Fatal(err)
	}

	// A transient read fault unlinks the freshly rewritten, intact object.
	// The solve is held back so the file is seen gone before the re-solve
	// writes it again.
	armFaults(t, "store.read:error,count=1;solve.pre:delay=300ms")
	j3, hit, err := s.Submit(g, ecss.DefaultOptions())
	if err != nil || hit {
		t.Fatalf("faulted submit: hit=%v err=%v", hit, err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("object file still present after the failed read (err=%v)", err)
	}
	waitJob(t, j3)
	if got := s.snapshot(j3).Result; !bytes.Equal(got, want) {
		t.Fatal("third solve differs from the original bytes")
	}
	faults.Disarm()
	if err := s.store.Flush(); err != nil {
		t.Fatal(err)
	}

	// The re-solve's write-through makes the next request a disk hit.
	j4, hit, err := s.Submit(g, ecss.DefaultOptions())
	if err != nil || !hit {
		t.Fatalf("healed submit: hit=%v err=%v", hit, err)
	}
	waitJob(t, j4)
	if got := s.snapshot(j4).Result; !bytes.Equal(got, want) {
		t.Fatal("store-served result differs from the original bytes")
	}
	st = s.Stats()
	if st.StoreHits != 1 || st.Solves != 3 || st.Store.Corruptions != 2 {
		t.Fatalf("final stats %+v / store %+v, want a store hit after healing", st, st.Store)
	}
}

// TestReadOnlySharedServing covers the router-shard deployment shape: one
// writable service fills a store directory, then two read-only services open
// the same warm directory concurrently and both must serve every instance
// byte-identically over HTTP with zero solver invocations and zero writes —
// the directory (index and all) stays byte-for-byte untouched.
func TestReadOnlySharedServing(t *testing.T) {
	dir := t.TempDir()
	const instances = 4

	s1 := New(Config{Workers: 2, Store: openStore(t, dir, 0)})
	srv1 := httptest.NewServer(s1.Handler())
	first := make(map[int][]byte)
	for seed := 1; seed <= instances; seed++ {
		req := SolveRequest{Graph: WireGraph(testGraph(t, int64(seed))), Wait: true}
		code, resp := postSolve(t, srv1, req)
		if code != http.StatusOK || resp.Status != StatusDone {
			t.Fatalf("seed %d cold solve: code=%d resp=%+v", seed, code, resp)
		}
		first[seed] = resp.Result
	}
	srv1.Close()
	drain(t, s1)
	indexBefore, err := os.ReadFile(filepath.Join(dir, "index.log"))
	if err != nil {
		t.Fatal(err)
	}

	openRO := func() *store.Store {
		st, err := store.OpenWith(dir, store.Options{ReadOnly: true})
		if err != nil {
			t.Fatalf("read-only open: %v", err)
		}
		return st
	}
	shards := []*Service{
		New(Config{Workers: 1, Store: openRO()}),
		New(Config{Workers: 1, Store: openRO()}),
	}
	for i, sh := range shards {
		srv := httptest.NewServer(sh.Handler())
		for seed := 1; seed <= instances; seed++ {
			req := SolveRequest{Graph: WireGraph(testGraph(t, int64(seed))), Wait: true}
			code, resp := postSolve(t, srv, req)
			if code != http.StatusOK || resp.Status != StatusDone || !resp.Cached {
				t.Fatalf("shard %d seed %d: code=%d resp=%+v", i, seed, code, resp)
			}
			if !bytes.Equal(resp.Result, first[seed]) {
				t.Fatalf("shard %d seed %d result differs from the writer's bytes", i, seed)
			}
		}
		srv.Close()
		st := sh.Stats()
		if st.Solves != 0 {
			t.Fatalf("shard %d ran %d solves off a warm read-only store, want 0", i, st.Solves)
		}
		if st.Store.Puts != 0 {
			t.Fatalf("shard %d issued %d puts against a read-only store", i, st.Store.Puts)
		}
	}
	for _, sh := range shards {
		drain(t, sh)
	}
	if after, err := os.ReadFile(filepath.Join(dir, "index.log")); err != nil || !bytes.Equal(indexBefore, after) {
		t.Fatalf("read-only shards mutated the shared index (err=%v)", err)
	}
}

// TestTortureConcurrentSubmitEvictDrain is the satellite race/torture test
// (run under -race in CI): many goroutines hammer Submit — duplicate keys,
// distinct keys, enough volume to trigger disk eviction — while Drain cuts
// admission mid-flight. Afterwards the store must reopen with a replayable,
// corruption-free index, and with an unbounded twin store every completed
// job must be durably readable byte-for-byte (no lost writes).
func TestTortureConcurrentSubmitEvictDrain(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxBytes int64
	}{
		{name: "unbounded", maxBytes: 0},
		// A few entries of budget: puts constantly evict.
		{name: "eviction-pressure", maxBytes: 4096},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := New(Config{Workers: 4, QueueDepth: 64, Store: openStore(t, dir, tc.maxBytes)})

			const submitters = 8
			var (
				mu   sync.Mutex
				done = make(map[[32]byte][]byte) // key -> payload
			)
			var wg sync.WaitGroup
			for w := 0; w < submitters; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < 40; i++ {
						// Seeds overlap across goroutines: coalescing and
						// cache hits race with fresh solves and eviction.
						seed := int64(1 + (w*7+i)%13)
						j, _, err := s.Submit(testGraph(t, seed), ecss.DefaultOptions())
						if err != nil {
							return // draining or queue-full: stop submitting
						}
						select {
						case <-j.Done():
						case <-time.After(60 * time.Second):
							t.Error("job stuck")
							return
						}
						snap := s.snapshot(j)
						if snap.Status != StatusDone {
							t.Errorf("seed %d failed: %s", seed, snap.Error)
							return
						}
						mu.Lock()
						done[[32]byte(j.key)] = snap.Result
						mu.Unlock()
					}
				}(w)
			}
			// Cut admission while submitters are mid-flight.
			time.Sleep(50 * time.Millisecond)
			drain(t, s)
			wg.Wait()
			if len(done) == 0 {
				t.Fatal("no job completed before drain")
			}

			// The index must replay cleanly after the concurrent churn.
			re := openStore(t, dir, tc.maxBytes)
			defer re.Close()
			sst := re.Stats()
			if sst.Corruptions != 0 {
				t.Fatalf("replayed index reports %d corruptions (stats %+v)", sst.Corruptions, sst)
			}
			if tc.maxBytes > 0 {
				// Budget enforced, modulo the keep-one rule for a single
				// oversized entry.
				if sst.Entries < 1 || (sst.Bytes > tc.maxBytes && sst.Entries > 1) {
					t.Fatalf("budget not enforced across restart: %+v", sst)
				}
				// Whatever survived eviction must be byte-identical.
				for k, want := range done {
					if got, ok := re.Get(k); ok && !bytes.Equal(got, want) {
						t.Fatalf("surviving key %x altered", k[:4])
					}
				}
			} else {
				// Unbounded: every completed job's write must have survived
				// the drain — nothing lost, bytes identical.
				if sst.Entries != len(done) {
					t.Fatalf("store holds %d entries, want %d completed keys", sst.Entries, len(done))
				}
				for k, want := range done {
					got, ok := re.Get(k)
					if !ok || !bytes.Equal(got, want) {
						t.Fatalf("completed key %x lost or altered (ok=%v)", k[:4], ok)
					}
				}
			}
		})
	}
}
