package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// mkKey derives a deterministic key and distinct graph-hash/options blobs
// from a small integer so tests can mint instances cheaply.
func mkKey(i int) (key Key, ghash, opts [32]byte) {
	key = sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	ghash = sha256.Sum256([]byte(fmt.Sprintf("ghash-%d", i)))
	opts[0] = byte(i)
	return
}

func payloadFor(i int) []byte {
	return []byte(fmt.Sprintf(`{"edges":[[0,%d,1]],"weight":%d}`, i, i))
}

func mustOpen(t testing.TB, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func putN(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k, gh, op := mkKey(i)
		if err := s.Put(k, gh, op, payloadFor(i)); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	defer s.Close()
	putN(t, s, 4)
	for i := 0; i < 4; i++ {
		k, gh, _ := mkKey(i)
		got, ok := s.Get(k)
		if !ok {
			t.Fatalf("entry %d missing", i)
		}
		if !bytes.Equal(got, payloadFor(i)) {
			t.Fatalf("entry %d payload mismatch: %q", i, got)
		}
		// The object file's header persists the instance's graph hash.
		img, err := os.ReadFile(s.objPath(k))
		if err != nil {
			t.Fatal(err)
		}
		if h, err := DecodeHeader(img); err != nil || h.GraphHash != gh {
			t.Fatalf("entry %d header: err=%v graph hash %x, want %x", i, err, h.GraphHash[:4], gh[:4])
		}
	}
	if k, _, _ := mkKey(99); s.Contains(k) {
		t.Fatal("Contains reports an absent key")
	}
	st := s.Stats()
	if st.Puts != 4 || st.Hits != 4 || st.Entries != 4 || st.Corruptions != 0 {
		t.Fatalf("stats %+v, want 4 puts / 4 hits / 4 entries / 0 corruptions", st)
	}
	wantBytes := int64(0)
	for i := 0; i < 4; i++ {
		wantBytes += int64(HeaderSize + len(payloadFor(i)))
	}
	if st.Bytes != wantBytes {
		t.Fatalf("bytes %d, want %d", st.Bytes, wantBytes)
	}
}

func TestDuplicatePutNotRewritten(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	defer s.Close()
	k, gh, op := mkKey(1)
	for i := 0; i < 3; i++ {
		if err := s.Put(k, gh, op, payloadFor(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Puts != 1 || st.DupPuts != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 put / 2 dup puts / 1 entry", st)
	}
}

func TestReopenServesIdenticalPayloads(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	putN(t, s, 6)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := mustOpen(t, dir, 0)
	defer r.Close()
	st := r.Stats()
	if st.Entries != 6 || st.Corruptions != 0 {
		t.Fatalf("reopened stats %+v, want 6 entries / 0 corruptions", st)
	}
	for i := 0; i < 6; i++ {
		k, _, _ := mkKey(i)
		got, ok := r.Get(k)
		if !ok || !bytes.Equal(got, payloadFor(i)) {
			t.Fatalf("entry %d after reopen: ok=%v payload=%q", i, ok, got)
		}
	}
}

func TestEvictionKeepsBudgetAndLRUOrder(t *testing.T) {
	entrySize := int64(HeaderSize + len(payloadFor(0)))
	budget := 3 * entrySize
	s := mustOpen(t, t.TempDir(), budget)
	defer s.Close()
	// Insert 0..2 (fills budget), then touch 0 so 1 is oldest, then insert
	// 3 and 4: evictions must take 1 then 2, never the touched 0.
	putN(t, s, 3)
	k0, _, _ := mkKey(0)
	if _, ok := s.Get(k0); !ok {
		t.Fatal("entry 0 missing")
	}
	for i := 3; i < 5; i++ {
		k, gh, op := mkKey(i)
		if err := s.Put(k, gh, op, payloadFor(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Evictions != 2 || st.Entries != 3 || st.Bytes > budget {
		t.Fatalf("stats %+v, want 2 evictions / 3 entries / bytes <= %d", st, budget)
	}
	for i, want := range map[int]bool{0: true, 1: false, 2: false, 3: true, 4: true} {
		k, _, _ := mkKey(i)
		if got := s.Contains(k); got != want {
			t.Fatalf("entry %d present=%v, want %v", i, got, want)
		}
	}
	// Evicted files are gone from disk, not quarantined (they were valid).
	k1, _, _ := mkKey(1)
	if _, err := os.Stat(s.objPath(k1)); !os.IsNotExist(err) {
		t.Fatalf("evicted object still on disk (err=%v)", err)
	}
}

func TestReopenAppliesBudget(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	putN(t, s, 5)
	s.Close()
	entrySize := int64(HeaderSize + len(payloadFor(0)))
	r := mustOpen(t, dir, 2*entrySize)
	defer r.Close()
	st := r.Stats()
	if st.Entries != 2 || st.Bytes > 2*entrySize || st.Evictions != 3 {
		t.Fatalf("stats %+v, want 2 entries within budget after 3 evictions", st)
	}
	// The survivors are the most recently written (3 and 4).
	for _, i := range []int{3, 4} {
		k, _, _ := mkKey(i)
		if !r.Contains(k) {
			t.Fatalf("most-recent entry %d evicted on reopen", i)
		}
	}
}

func TestOrphanObjectAdopted(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	putN(t, s, 2)
	s.Close()
	// Simulate a crash between object rename and index append: the object
	// exists but no index line mentions it.
	if err := os.Remove(filepath.Join(dir, "index.log")); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, 0)
	defer r.Close()
	if st := r.Stats(); st.Entries != 2 || st.Corruptions != 0 {
		t.Fatalf("stats %+v, want both orphans adopted", st)
	}
	for i := 0; i < 2; i++ {
		k, _, _ := mkKey(i)
		if got, ok := r.Get(k); !ok || !bytes.Equal(got, payloadFor(i)) {
			t.Fatalf("orphan %d not served: ok=%v", i, ok)
		}
	}
}

// TestCorruptionQuarantine is the satellite corruption-recovery matrix:
// a truncated file, a flipped payload byte, and a stale index line must
// each be quarantined on startup while every healthy entry keeps serving.
func TestCorruptionQuarantine(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	putN(t, s, 5)
	kTrunc, _, _ := mkKey(1)
	kFlip, _, _ := mkKey(3)
	s.Close()

	// Truncate entry 1 mid-payload.
	if err := os.Truncate(filepath.Join(dir, "objects", objName(kTrunc)), int64(HeaderSize+3)); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of entry 3.
	flipPath := filepath.Join(dir, "objects", objName(kFlip))
	b, err := os.ReadFile(flipPath)
	if err != nil {
		t.Fatal(err)
	}
	b[HeaderSize] ^= 0x01
	if err := os.WriteFile(flipPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// Append a stale index line for a key with no file, plus a torn line.
	staleKey, _, _ := mkKey(77)
	f, err := os.OpenFile(filepath.Join(dir, "index.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, "put %x 160 999\n", staleKey[:])
	fmt.Fprint(f, "put deadbeef") // torn final append, no newline
	f.Close()

	r := mustOpen(t, dir, 0)
	defer r.Close()
	st := r.Stats()
	if st.Corruptions != 3 {
		t.Fatalf("corruptions %d, want exactly 3 (truncated, flipped, stale)", st.Corruptions)
	}
	if st.Entries != 3 {
		t.Fatalf("entries %d, want the 3 healthy survivors", st.Entries)
	}
	for _, i := range []int{0, 2, 4} {
		k, _, _ := mkKey(i)
		got, ok := r.Get(k)
		if !ok || !bytes.Equal(got, payloadFor(i)) {
			t.Fatalf("healthy entry %d not served after quarantine: ok=%v", i, ok)
		}
	}
	for _, k := range []Key{kTrunc, kFlip} {
		if _, err := os.Stat(filepath.Join(dir, "quarantine", objName(k))); err != nil {
			t.Fatalf("corrupt entry %x not quarantined: %v", k[:4], err)
		}
		if _, ok := r.Get(k); ok {
			t.Fatalf("corrupt entry %x still served", k[:4])
		}
	}
}

// TestGetQuarantinesRuntimeCorruption covers corruption that appears while
// the store is open: the damaged read is a miss, the file is quarantined,
// and subsequent lookups miss cleanly.
func TestGetQuarantinesRuntimeCorruption(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	defer s.Close()
	putN(t, s, 2)
	k, _, _ := mkKey(0)
	path := filepath.Join(dir, "objects", objName(k))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("corrupt entry served")
	}
	st := s.Stats()
	if st.Corruptions != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 corruption / 1 surviving entry", st)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("quarantined entry resurrected")
	}
}

func TestPutAfterCloseFails(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	putN(t, s, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	k, gh, op := mkKey(9)
	if err := s.Put(k, gh, op, payloadFor(9)); err != ErrClosed {
		t.Fatalf("Put after Close: %v, want ErrClosed", err)
	}
	if err := s.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close: %v, want ErrClosed", err)
	}
	// Reads still work off the in-memory index.
	k0, _, _ := mkKey(0)
	if _, ok := s.Get(k0); !ok {
		t.Fatal("Get after Close lost the entry")
	}
}

func objName(k Key) string { return fmt.Sprintf("%x.res", k[:]) }
