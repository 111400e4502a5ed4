package store

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"twoecss/internal/faults"
)

// bigPayload builds size deterministic pseudorandom bytes (a chained SHA-256
// stream), so multi-megabyte entries are cheap to mint and compare.
func bigPayload(seed byte, size int) []byte {
	out := make([]byte, 0, size+32)
	block := sha256.Sum256([]byte{seed})
	for len(out) < size {
		out = append(out, block[:]...)
		block = sha256.Sum256(block[:])
	}
	return out[:size]
}

func putOne(t *testing.T, s *Store, i int, payload []byte) Key {
	t.Helper()
	k, gh, op := mkKey(i)
	if err := s.Put(k, gh, op, payload); err != nil {
		t.Fatalf("Put %d: %v", i, err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return k
}

func TestGetViewWarmZeroCopy(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	defer s.Close()
	payload := bigPayload(1, 1<<20)
	k := putOne(t, s, 1, payload)

	v1, ok := s.GetView(k)
	if !ok {
		t.Fatal("GetView miss on a live entry")
	}
	v2, ok := s.GetView(k)
	if !ok {
		t.Fatal("warm GetView miss")
	}
	if !bytes.Equal(v1.Bytes(), payload) || !bytes.Equal(v2.Bytes(), payload) {
		t.Fatal("view payload mismatch")
	}
	if !v1.Mapped() || !v2.Mapped() {
		t.Skip("mmap unavailable on this platform: fallback path covered elsewhere")
	}
	// Zero-copy means both views alias one mapped image.
	if &v1.Bytes()[0] != &v2.Bytes()[0] {
		t.Fatal("warm view does not alias the first view's mapping")
	}
	st := s.Stats()
	if st.Mmap.Maps != 1 || st.Mmap.Pins != 2 || st.Mmap.ActiveMaps != 1 {
		t.Fatalf("mmap stats %+v, want 1 map / 2 pins / 1 active", st.Mmap)
	}
	if st.Mmap.MappedBytes != int64(HeaderSize+len(payload)) {
		t.Fatalf("mapped bytes %d, want %d", st.Mmap.MappedBytes, HeaderSize+len(payload))
	}
	v1.Release()
	v2.Release()
	if st := s.Stats(); st.Mmap.Unpins != 2 || st.Mmap.ActiveMaps != 1 {
		t.Fatalf("after release: %+v, want 2 unpins and the warm mapping retained", st.Mmap)
	}
}

// TestWarmGetViewAllocs is the acceptance gate: a warm serving hit of a
// multi-MB entry on the mmap path — pin, LRU bump, touch record enqueued —
// performs zero heap allocations, in particular nothing payload-sized.
func TestWarmGetViewAllocs(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	defer s.Close()
	k := putOne(t, s, 2, bigPayload(2, 4<<20))
	v, ok := s.GetView(k)
	if !ok {
		t.Fatal("GetView miss")
	}
	if !v.Mapped() {
		t.Skip("mmap unavailable on this platform")
	}
	v.Release()
	allocs := testing.AllocsPerRun(200, func() {
		w, ok := s.GetView(k)
		if !ok {
			t.Fatal("warm GetView miss")
		}
		if len(w.Bytes()) != 4<<20 {
			t.Fatal("short view")
		}
		w.Release()
	})
	if allocs > 0 {
		t.Fatalf("warm mmap GetView allocates %.1f objects/op, want 0", allocs)
	}
}

func TestViewSurvivesEviction(t *testing.T) {
	const mb = 1 << 20
	s := mustOpen(t, t.TempDir(), int64(mb)+(mb/2))
	defer s.Close()
	payload := bigPayload(3, mb)
	kA := putOne(t, s, 30, payload)
	v, ok := s.GetView(kA)
	if !ok {
		t.Fatal("GetView miss")
	}
	if !v.Mapped() {
		t.Skip("mmap unavailable on this platform")
	}
	// Two more megabyte entries blow the budget: A (oldest access after the
	// puts) is evicted and its file unlinked while the view is pinned.
	putOne(t, s, 31, bigPayload(4, mb))
	putOne(t, s, 32, bigPayload(5, mb))
	if s.Contains(kA) {
		t.Fatal("A still live: eviction did not run")
	}
	if _, err := os.Stat(s.objPath(kA)); !os.IsNotExist(err) {
		t.Fatalf("A's file not unlinked after eviction: %v", err)
	}
	// The pages outlive the unlink: the pinned view still reads the full
	// verified payload.
	if !bytes.Equal(v.Bytes(), payload) {
		t.Fatal("pinned view corrupted by eviction")
	}
	st := s.Stats()
	if st.Mmap.UnmapDeferred < 1 {
		t.Fatalf("UnmapDeferred %d, want >= 1 (mapping was pinned at eviction)", st.Mmap.UnmapDeferred)
	}
	v.Release()
	if st := s.Stats(); st.Mmap.ActiveMaps != 0 {
		t.Fatalf("ActiveMaps %d after last release of a doomed mapping, want 0", st.Mmap.ActiveMaps)
	}
	if _, ok := s.GetView(kA); ok {
		t.Fatal("evicted key still served")
	}
}

// TestFallbackPinDefersUnlink drives the ReadFile path (Options.NoMmap) with
// an injected slow read while eviction removes the entry mid-flight: the pin
// must keep the file on disk until the read completes, then perform the
// deferred unlink.
func TestFallbackPinDefersUnlink(t *testing.T) {
	const kb256 = 256 << 10
	s, err := OpenWith(t.TempDir(), Options{MaxBytes: kb256 + kb256/2, NoMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := bigPayload(6, kb256)
	kA := putOne(t, s, 40, payload)

	armFaults(t, "store.read:delay=250ms")
	type res struct {
		b  []byte
		ok bool
	}
	ch := make(chan res, 1)
	go func() {
		b, ok := s.Get(kA)
		ch <- res{b, ok}
	}()
	time.Sleep(60 * time.Millisecond) // reader is pinned, sleeping in the injected delay
	putOne(t, s, 41, bigPayload(7, kb256))
	putOne(t, s, 42, bigPayload(8, kb256))
	if s.Contains(kA) {
		t.Fatal("A still live: eviction did not run")
	}
	if _, err := os.Stat(s.objPath(kA)); err != nil {
		t.Fatalf("A's file unlinked while a read was pinned: %v", err)
	}
	r := <-ch
	if !r.ok || !bytes.Equal(r.b, payload) {
		t.Fatalf("pinned fallback read failed (ok=%v)", r.ok)
	}
	if _, err := os.Stat(s.objPath(kA)); !os.IsNotExist(err) {
		t.Fatalf("deferred unlink never happened: %v", err)
	}
	st := s.Stats()
	if st.Mmap.Fallbacks < 1 {
		t.Fatalf("Fallbacks %d, want >= 1 on a NoMmap store", st.Mmap.Fallbacks)
	}
	if st.Mmap.UnmapDeferred < 1 {
		t.Fatalf("UnmapDeferred %d, want >= 1 (unlink was deferred by the pin)", st.Mmap.UnmapDeferred)
	}
}

// TestGetDoesNotBlockPutOrStats is the lock-contention regression test for
// the old hold-s.mu-across-ReadFile bug: while one Get is stuck in a slow
// (injected) 400ms read of a large entry, Put, Flush, Stats, and Contains
// must all complete promptly.
func TestGetDoesNotBlockPutOrStats(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	defer s.Close()
	kA := putOne(t, s, 50, bigPayload(9, 1<<20))

	armFaults(t, "store.read:delay=400ms")
	done := make(chan bool, 1)
	go func() {
		_, ok := s.Get(kA)
		done <- ok
	}()
	time.Sleep(50 * time.Millisecond) // the reader is inside its slow load
	start := time.Now()
	k, gh, op := mkKey(51)
	if err := s.Put(k, gh, op, payloadFor(51)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	_ = s.Stats()
	if !s.Contains(k) {
		t.Fatal("freshly flushed entry missing")
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("Put/Flush/Stats took %v behind a slow Get, want well under the 400ms read", elapsed)
	}
	if ok := <-done; !ok {
		t.Fatal("slow Get failed")
	}
}

// TestMultiMBRoundTripAndCrashWindows covers the payloads the old
// "entry payloads are small canonical JSON" comment assumed away: multi-MB
// entries round-trip on both read paths, survive a stray temp file from a
// crash mid-write, and are re-adopted from the objects directory when the
// crash landed between rename and index append.
func TestMultiMBRoundTripAndCrashWindows(t *testing.T) {
	dir := t.TempDir()
	p3 := bigPayload(10, 3<<20)
	p7 := bigPayload(11, 7<<20)
	s := mustOpen(t, dir, 0)
	k3 := putOne(t, s, 60, p3)
	k7 := putOne(t, s, 61, p7)
	for _, c := range []struct {
		k    Key
		want []byte
	}{{k3, p3}, {k7, p7}} {
		v, ok := s.GetView(c.k)
		if !ok || !bytes.Equal(v.Bytes(), c.want) {
			t.Fatalf("GetView mismatch (ok=%v)", ok)
		}
		v.Release()
		b, ok := s.Get(c.k)
		if !ok || !bytes.Equal(b, c.want) {
			t.Fatalf("Get copy mismatch (ok=%v)", ok)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash window 1: a temp file stranded mid-write must be swept, not
	// adopted. Crash window 2: losing the index entirely (torn before any
	// append survived) must re-adopt both multi-MB objects byte-identically.
	stray := filepath.Join(dir, "put-stranded.tmp")
	if err := os.WriteFile(stray, bigPayload(12, 1<<20), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "index.log")); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatal("stranded temp file survived reopen")
	}
	st := s2.Stats()
	if st.Entries != 2 || st.Corruptions != 0 {
		t.Fatalf("reopen stats %+v, want 2 adopted entries, 0 corruptions", st)
	}
	v, ok := s2.GetView(k7)
	if !ok || !bytes.Equal(v.Bytes(), p7) {
		t.Fatalf("7MB orphan not re-adopted byte-identically (ok=%v)", ok)
	}
	v.Release()
	if b, ok := s2.Get(k3); !ok || !bytes.Equal(b, p3) {
		t.Fatalf("3MB orphan not re-adopted byte-identically (ok=%v)", ok)
	}
}

func TestReadOnlySharedStore(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	putN(t, s, 6)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	indexBefore, err := os.ReadFile(filepath.Join(dir, "index.log"))
	if err != nil {
		t.Fatal(err)
	}

	// Two read-only openers share the warm directory concurrently.
	ro1, err := OpenWith(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro1.Close()
	ro2, err := OpenWith(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro2.Close()
	for i := 0; i < 6; i++ {
		k, _, _ := mkKey(i)
		for name, ro := range map[string]*Store{"ro1": ro1, "ro2": ro2} {
			b, ok := ro.Get(k)
			if !ok || !bytes.Equal(b, payloadFor(i)) {
				t.Fatalf("%s: entry %d not served byte-identically (ok=%v)", name, i, ok)
			}
		}
	}
	k, gh, op := mkKey(99)
	if err := ro1.Put(k, gh, op, payloadFor(99)); err != ErrReadOnly {
		t.Fatalf("Put on read-only store: %v, want ErrReadOnly", err)
	}
	if err := ro1.Flush(); err != nil {
		t.Fatalf("Flush on read-only store: %v, want nil no-op", err)
	}
	if r, d := ro1.Reverify(); r != 0 || d != 0 {
		t.Fatalf("Reverify on read-only store did work: %d restored, %d deleted", r, d)
	}
	if after, err := os.ReadFile(filepath.Join(dir, "index.log")); err != nil || !bytes.Equal(indexBefore, after) {
		t.Fatalf("read-only openers mutated the index (err=%v)", err)
	}

	// A damaged entry is dropped from the read-only opener's live set but
	// the file is left in place for the writable owner to quarantine.
	k0, _, _ := mkKey(0)
	objPath := ro1.objPath(k0)
	if err := os.WriteFile(objPath, []byte("damaged"), 0o644); err != nil {
		t.Fatal(err)
	}
	ro3, err := OpenWith(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro3.Close()
	if _, ok := ro3.Get(k0); ok {
		t.Fatal("read-only opener served a damaged entry")
	}
	if st := ro3.Stats(); st.Corruptions != 1 || st.Quarantined != 0 || st.Entries != 5 {
		t.Fatalf("read-only scan stats %+v, want 1 corruption counted, 0 quarantined, 5 live", st)
	}
	if _, err := os.Stat(objPath); err != nil {
		t.Fatalf("read-only opener moved or deleted the damaged file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", objName(k0))); !os.IsNotExist(err) {
		t.Fatal("read-only opener quarantined a file")
	}
}

// TestTouchDropsCounted saturates the writer queue (the writer is parked in
// an injected slow index append) and checks that Get's dropped atime record
// is counted instead of vanishing.
func TestTouchDropsCounted(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	defer s.Close()
	putN(t, s, 1)
	k0, _, _ := mkKey(0)

	armFaults(t, "store.index:delay=300ms")
	k1, gh, op := mkKey(1)
	if err := s.Put(k1, gh, op, payloadFor(1)); err != nil { // parks the writer in applyPut
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	// Stuff the queue with advisory touches for an absent key; the parked
	// writer drains none of them, so the channel fills.
	kX, _, _ := mkKey(77)
	for i := 0; i < 2*cap(s.writeCh); i++ {
		select {
		case s.writeCh <- writeOp{key: kX, atime: 1}:
		default:
		}
	}
	if _, ok := s.Get(k0); !ok {
		t.Fatal("Get miss on a live entry")
	}
	if st := s.Stats(); st.TouchDrops < 1 {
		t.Fatalf("TouchDrops %d, want >= 1 with a saturated writer", st.TouchDrops)
	}
	faults.Disarm()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestTortureConcurrentMultiMB is the -race gate from the acceptance
// criteria: concurrent GetView/Get, re-Puts, evictions (tight byte budget),
// whole-key-set GetView sweeps, and Reverify passes over multi-megabyte
// entries.
func TestTortureConcurrentMultiMB(t *testing.T) {
	const mb = 1 << 20
	s, err := OpenWith(t.TempDir(), Options{MaxBytes: 4 * mb})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const nKeys = 6
	payloads := make([][]byte, nKeys)
	keys := make([]Key, nKeys)
	for i := 0; i < nKeys; i++ {
		payloads[i] = bigPayload(byte(100+i), mb+i*(mb/4))
		keys[i] = putOne(t, s, 100+i, payloads[i])
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // readers: pinned views held across other goroutines' evictions
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				idx := (g + i) % nKeys
				if v, ok := s.GetView(keys[idx]); ok {
					if !bytes.Equal(v.Bytes(), payloads[idx]) {
						t.Error("view payload mismatch under torture")
					}
					v.Release()
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // re-putter: keeps eviction pressure on
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			idx := i % nKeys
			k, gh, op := mkKey(100 + idx)
			_ = s.Put(k, gh, op, payloads[idx])
			if i%nKeys == 0 {
				_ = s.Flush()
			}
		}
	}()
	wg.Add(1)
	go func() { // sweeper + reverifier
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, k := range keys {
				if v, ok := s.GetView(k); ok {
					v.Release()
				}
			}
			s.Reverify()
		}
	}()
	time.Sleep(1 * time.Second)
	close(stop)
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Corruptions != 0 {
		t.Fatalf("torture produced %d corruptions", st.Corruptions)
	}
	if st.Bytes > 6*mb+HeaderSize { // budget + one oversized-entry slack
		t.Fatalf("bytes %d never converged toward the 4MB budget", st.Bytes)
	}
}

// BenchmarkGetViewWarm is the before/after row for the bench trajectory:
// bytes/op and allocs/op of a warm 1MB store hit on the zero-copy path.
func BenchmarkGetViewWarm(b *testing.B) {
	benchWarmGet(b, false, func(s *Store, k Key) {
		v, ok := s.GetView(k)
		if !ok {
			b.Fatal("miss")
		}
		_ = v.Bytes()[0]
		v.Release()
	})
}

// BenchmarkGetCopyWarm measures the same warm hit through the copying Get —
// the fallback-equivalent cost the mmap path removes.
func BenchmarkGetCopyWarm(b *testing.B) {
	benchWarmGet(b, true, func(s *Store, k Key) {
		p, ok := s.Get(k)
		if !ok {
			b.Fatal("miss")
		}
		_ = p[0]
	})
}

func benchWarmGet(b *testing.B, noMmap bool, get func(*Store, Key)) {
	s, err := OpenWith(b.TempDir(), Options{NoMmap: noMmap})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	k, gh, op := mkKey(1)
	payload := bigPayload(1, 1<<20)
	if err := s.Put(k, gh, op, payload); err != nil {
		b.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	get(s, k) // warm the mapping
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(s, k)
	}
}
