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

func putOne(t testing.TB, s *Store, i int, payload []byte) Key {
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

// TestFallbackPinDefersUnlink drives Get with an injected slow read while
// eviction removes the entry mid-flight: the pin must keep the file on disk
// until the read completes, then perform the deferred unlink.
func TestFallbackPinDefersUnlink(t *testing.T) {
	const kb256 = 256 << 10
	s := mustOpen(t, t.TempDir(), kb256+kb256/2)
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
		t.Fatalf("pinned read failed (ok=%v)", r.ok)
	}
	if _, err := os.Stat(s.objPath(kA)); !os.IsNotExist(err) {
		t.Fatalf("deferred unlink never happened: %v", err)
	}
}

// TestGetVerifiesEveryRead damages an object file after it has been read
// once: every later Get must re-read and re-verify it, so the damaged
// bytes are never served and the file is quarantined.
func TestGetVerifiesEveryRead(t *testing.T) {
	for _, c := range []struct {
		name   string
		damage func(f *os.File) error
	}{
		{"flipped-byte", func(f *os.File) error {
			b := make([]byte, 1)
			if _, err := f.ReadAt(b, HeaderSize+100); err != nil {
				return err
			}
			b[0] ^= 0xff
			_, err := f.WriteAt(b, HeaderSize+100)
			return err
		}},
		{"truncated", func(f *os.File) error { return f.Truncate(HeaderSize + 10) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := mustOpen(t, t.TempDir(), 0)
			defer s.Close()
			payload := bigPayload(13, 64<<10)
			k := putOne(t, s, 70, payload)
			if b, ok := s.Get(k); !ok || !bytes.Equal(b, payload) {
				t.Fatalf("first Get did not serve the stored payload (ok=%v)", ok)
			}
			f, err := os.OpenFile(s.objPath(k), os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			err = c.damage(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			before := s.Stats().Corruptions
			if b, ok := s.Get(k); ok {
				t.Fatalf("damaged entry served (%d bytes, equal to the original: %v)", len(b), bytes.Equal(b, payload))
			}
			if got := s.Stats().Corruptions; got != before+1 {
				t.Fatalf("Corruptions %d after the damaged read, want %d", got, before+1)
			}
			if _, err := os.Stat(s.quarantinePath(k)); err != nil {
				t.Fatalf("damaged file not quarantined: %v", err)
			}
		})
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
// entries round-trip, survive a stray temp file from a
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
		b, ok := s.Get(c.k)
		if !ok || !bytes.Equal(b, c.want) {
			t.Fatalf("Get mismatch (ok=%v)", ok)
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
	if b, ok := s2.Get(k7); !ok || !bytes.Equal(b, p7) {
		t.Fatalf("7MB orphan not re-adopted byte-identically (ok=%v)", ok)
	}
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
// criteria: concurrent Gets, re-Puts, evictions (tight byte budget),
// whole-key-set Get sweeps, and Reverify passes over multi-megabyte
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
		go func(g int) { // readers: pinned reads racing other goroutines' evictions
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				idx := (g + i) % nKeys
				if b, ok := s.Get(keys[idx]); ok && !bytes.Equal(b, payloads[idx]) {
					t.Error("payload mismatch under torture")
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
				s.Get(k)
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

// BenchmarkGetWarm prices one store hit: pin, file read, SHA-256 verify,
// LRU bump and touch record. 5.7 KB is an n=256 result; 1 MB is a large one.
func BenchmarkGetWarm(b *testing.B) {
	for _, c := range []struct {
		name string
		size int
	}{{"5.7KB", 5700}, {"1MB", 1 << 20}} {
		b.Run(c.name, func(b *testing.B) {
			s := mustOpen(b, b.TempDir(), 0)
			defer s.Close()
			k := putOne(b, s, 1, bigPayload(1, c.size))
			b.SetBytes(int64(c.size))
			b.ReportAllocs()
			for b.Loop() {
				if _, ok := s.Get(k); !ok {
					b.Fatal("miss")
				}
			}
		})
	}
}
