package store

import (
	"bufio"
	"cmp"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"twoecss/internal/faults"
	"twoecss/internal/obs"
)

// Stats counts store traffic. It is embedded in the service's /v1/stats
// payload, so the field set is part of the operational API.
type Stats struct {
	// Hits and Misses count lookups.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts entries accepted for write; DupPuts counts writes skipped
	// because the content address was already stored.
	Puts    int64 `json:"puts"`
	DupPuts int64 `json:"dup_puts"`
	// Evictions counts entries removed to keep Bytes under the budget.
	Evictions int64 `json:"evictions"`
	// Corruptions counts quarantined files and dropped index records:
	// truncated or checksum-mismatched entries, undecodable headers, stale
	// index lines pointing at missing files, and malformed index lines.
	Corruptions int64 `json:"corruptions"`
	// WriteErrors counts puts the writer could not persist (ENOSPC,
	// permissions): the entry is simply absent after a restart. Distinct
	// from Corruptions, which reports damaged data, not failed writes.
	WriteErrors int64 `json:"write_errors"`
	// Quarantined counts entry files actually moved into quarantine/;
	// QuarantineFails counts quarantine renames that failed with the file
	// still present (permissions, crossed mounts) — the damaged file then
	// stays in objects/ for the next restart to re-examine. A rename that
	// finds no file (stale index line) is neither.
	Quarantined     int64 `json:"quarantined"`
	QuarantineFails int64 `json:"quarantine_fails"`
	// Restored counts quarantined entries the background reverifier proved
	// intact end-to-end (returned to objects/, or discarded as a redundant
	// copy of an already-relived key); ReverifyDeleted counts quarantined
	// files deleted after failing verification reverifyStrikes times.
	Restored        int64 `json:"restored"`
	ReverifyDeleted int64 `json:"reverify_deleted"`
	// TouchDrops counts atime touch records dropped because the writer
	// queue was saturated: reads never block behind the writer, at the cost
	// of eviction-order fidelity. A rising rate means LRU decisions are
	// running on stale access times.
	TouchDrops int64 `json:"touch_drops"`
	// Entries and Bytes describe the live on-disk set.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Mmap is never set: it is kept only because the repository benchmark
	// reads it, and it is not part of the JSON payload.
	Mmap MmapStats `json:"-"`
}

// MmapStats is what is left of the deleted mmap read path's counters.
// Nothing increments them.
type MmapStats struct {
	Maps      int64
	Fallbacks int64
}

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrReadOnly reports a mutating operation on a store opened with
// Options.ReadOnly.
var ErrReadOnly = errors.New("store: read-only")

type entry struct {
	key   Key
	size  int64 // header + payload bytes on disk
	atime int64 // unix nanoseconds of last recorded access
	el    *list.Element
}

// writeOp is one unit of work for the background writer: a put (payload
// non-nil), a touch (atime record), or a flush barrier (ack non-nil).
type writeOp struct {
	key       Key
	graphHash [32]byte
	options   [32]byte
	payload   []byte
	atime     int64
	ack       chan struct{}
	stop      bool
}

// Store is the disk-backed result store. Create with Open; all methods are
// safe for concurrent use. Writes are asynchronous: Put enqueues to a
// single background writer that performs the atomic file write, the fsync'd
// index append, and budget eviction. Flush (or Close) waits for every
// enqueued write to be durable.
type Store struct {
	dir      string
	maxBytes int64
	bus      *obs.Bus // nil: events disabled
	// ro marks a read-only store (Options.ReadOnly): no writer, no index
	// mutation, no eviction, no quarantine renames — N daemons can serve
	// one warm directory.
	ro bool

	mu        sync.Mutex
	entries   map[Key]*entry
	ll        *list.List // front = most recently used
	bytes     int64
	stats     Stats
	indexF    *os.File
	lastStamp int64 // high-water access-time stamp (see stampLocked)
	// pins counts each key's off-lock file reads in flight. Evicting a
	// pinned key marks it doomed instead of unlinking its file, and the
	// last reader unlinks it (unpinLocked). A put of the key takes the path
	// over, so it clears doomed before it writes the new file.
	pins   map[Key]int
	doomed map[Key]bool
	// strikes counts consecutive failed reverifications per quarantined
	// key; at reverifyStrikes the file is deleted for good.
	strikes map[Key]int

	closeMu sync.RWMutex
	closed  bool
	writeCh chan writeOp
	done    chan struct{}
	// revStop/revDone bracket the background reverifier goroutine's
	// lifetime; nil when ReverifyEvery is 0.
	revStop chan struct{}
	revDone chan struct{}
}

// Options configures OpenWith beyond the directory.
type Options struct {
	// MaxBytes bounds the on-disk entry bytes via LRU eviction (<=0:
	// unbounded).
	MaxBytes int64
	// ReverifyEvery, when positive, starts a background goroutine running a
	// Reverify pass over the quarantine directory at this interval, so
	// entries quarantined by transient failures (injected read faults, EIO)
	// are restored while the process lives instead of lingering until an
	// operator looks.
	ReverifyEvery time.Duration
	// Bus, when non-nil, receives store.* lifecycle events (writes, write
	// errors, evictions, quarantines, restores, reverify deletions). Pass
	// the process bus so store events interleave with job events on one
	// firehose.
	Bus *obs.Bus
	// ReadOnly opens the store without mutating the directory in any way:
	// no temp sweep, no index compaction or appends, no eviction, no
	// quarantine renames, and Put/Reverify are rejected with ErrReadOnly.
	// Several read-only stores (in one process or many) can serve a single
	// warm directory concurrently; MaxBytes and ReverifyEvery are ignored.
	ReadOnly bool
}

// Open creates or reopens the store rooted at dir, bounded to maxBytes of
// entry bytes on disk (<=0: unbounded). It replays the index log, verifies
// every referenced entry's header and payload checksum — quarantining
// corrupt, truncated, or unreadable files and dropping stale index records
// — adopts orphaned entry files the log does not mention (a crash window
// between rename and index append), rewrites a compact index, and evicts
// down to the byte budget. Corruption is counted, never fatal: a damaged
// store opens with whatever survives.
func Open(dir string, maxBytes int64) (*Store, error) {
	return OpenWith(dir, Options{MaxBytes: maxBytes})
}

// OpenWith is Open with the full option set.
func OpenWith(dir string, o Options) (*Store, error) {
	if !o.ReadOnly {
		for _, d := range []string{dir, filepath.Join(dir, "objects"), filepath.Join(dir, "quarantine")} {
			if err := os.MkdirAll(d, 0o755); err != nil {
				return nil, fmt.Errorf("store: %w", err)
			}
		}
		// Sweep temp files stranded by crashes mid-write; they live outside
		// the byte budget and would otherwise accumulate across crash loops.
		if strays, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
			for _, p := range strays {
				os.Remove(p)
			}
		}
	}
	s := &Store{
		dir:      dir,
		maxBytes: o.MaxBytes,
		bus:      o.Bus,
		ro:       o.ReadOnly,
		entries:  make(map[Key]*entry),
		ll:       list.New(),
		pins:     make(map[Key]int),
		doomed:   make(map[Key]bool),
		strikes:  make(map[Key]int),
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	if s.ro {
		// A read-only opener owns nothing on disk: no writer goroutine, no
		// index handle, no eviction — it serves whatever the scan verified.
		return s, nil
	}
	s.writeCh = make(chan writeOp, 256)
	s.done = make(chan struct{})
	// Evict down to budget before compacting the index so the rewritten
	// log lists exactly the surviving entries.
	ev := s.evictLocked(nil)
	for _, k := range ev.victims {
		os.Remove(s.objPath(k))
	}
	if ev.count > 0 {
		s.emitEvictPressure(ev)
	}
	if err := s.rewriteIndex(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.indexPath(), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open index: %w", err)
	}
	s.indexF = f
	go s.writer()
	if o.ReverifyEvery > 0 {
		s.revStop = make(chan struct{})
		s.revDone = make(chan struct{})
		go s.reverifyLoop(o.ReverifyEvery)
	}
	return s, nil
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.log") }
func (s *Store) objPath(k Key) string {
	return filepath.Join(s.dir, "objects", hex.EncodeToString(k[:])+".res")
}
func (s *Store) quarantinePath(k Key) string {
	return filepath.Join(s.dir, "quarantine", hex.EncodeToString(k[:])+".res")
}

// scan replays the index log and reconciles it against the objects
// directory, leaving s.entries/s.ll/s.bytes describing the verified live
// set and a freshly compacted index on disk.
func (s *Store) scan() error {
	type rec struct {
		atime int64
		live  bool
	}
	replay := make(map[Key]*rec)
	if f, err := os.Open(s.indexPath()); err == nil {
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 4096), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" {
				continue
			}
			key, op, atime, ok := parseIndexLine(line)
			if !ok {
				// Malformed or torn line (crash mid-append): skip it. Torn
				// final lines are expected under crash, so they are not
				// counted as corruption; full reconciliation below decides
				// what actually survives.
				continue
			}
			switch op {
			case "del":
				replay[key] = &rec{live: false}
			default: // put, touch
				r := replay[key]
				if r == nil {
					r = &rec{}
					replay[key] = r
				}
				r.live = true
				if atime > r.atime {
					r.atime = atime
				}
			}
		}
		if sc.Err() != nil {
			// Replay stopped early (read error or an over-long corrupt
			// line): records past this point are lost. Count it so a
			// damaged index is distinguishable from a clean replay; full
			// file reconciliation below still bounds the blast radius.
			s.stats.Corruptions++
		}
		f.Close()
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("store: read index: %w", err)
	}

	// Adopt entry files the index does not mention as live: a crash between
	// the object rename and the index append leaves exactly this state, and
	// the file is self-describing enough to re-index.
	if names, err := os.ReadDir(filepath.Join(s.dir, "objects")); err == nil {
		for _, de := range names {
			name := de.Name()
			if !strings.HasSuffix(name, ".res") {
				continue
			}
			raw, err := hex.DecodeString(strings.TrimSuffix(name, ".res"))
			if err != nil || len(raw) != 32 {
				continue
			}
			var k Key
			copy(k[:], raw)
			if r, ok := replay[k]; ok && r.live {
				continue
			}
			info, err := de.Info()
			if err != nil {
				continue
			}
			replay[k] = &rec{live: true, atime: info.ModTime().UnixNano()}
		}
	}

	type liveEnt struct {
		k     Key
		size  int64
		atime int64
	}
	var live []liveEnt
	for k, r := range replay {
		if !r.live {
			continue
		}
		b, err := readEntryFile(s.objPath(k), k)
		if err != nil {
			s.stats.Corruptions++
			s.quarantineLocked(k)
			continue
		}
		live = append(live, liveEnt{k: k, size: int64(len(b)), atime: r.atime})
	}
	// One sort, then append in order: the replay map iterates randomly and
	// a per-entry sorted insert would make reopening a large store O(n^2).
	slices.SortFunc(live, func(a, b liveEnt) int {
		return cmp.Compare(b.atime, a.atime) // most recent first
	})
	for _, le := range live {
		e := &entry{key: le.k, size: le.size, atime: le.atime}
		e.el = s.ll.PushBack(e)
		s.entries[le.k] = e
		s.bytes += le.size
		if le.atime > s.lastStamp {
			s.lastStamp = le.atime
		}
	}
	return nil
}

// readEntryFile reads the entry file at path and returns its image once
// verifyBytes accepts it for key.
func readEntryFile(path string, key Key) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if _, err := verifyBytes(b, key); err != nil {
		return nil, err
	}
	return b, nil
}

// emit publishes a store event when a bus is configured. Safe under s.mu:
// the bus takes only its own lock and never calls back into the store.
func (s *Store) emit(typ string, k Key, errStr string) {
	if s.bus == nil {
		return
	}
	s.bus.Publish(obs.Event{Type: typ, Key: hex.EncodeToString(k[:6]), Err: errStr})
}

// quarantineLocked moves the entry file for k aside for the reverifier to
// re-examine. A missing source file — the stale-index-line case — has
// nothing to move and is not a failure; any other rename error is counted
// in QuarantineFails (the damaged file then stays in objects/, where the
// next restart's scan re-examines it) instead of being silently dropped.
// Caller holds s.mu (or is the single-threaded Open scan).
func (s *Store) quarantineLocked(k Key) {
	if s.ro {
		// A read-only opener must not mutate a directory another daemon
		// owns: the damaged entry is dropped from this opener's live set
		// and left in place for the writable owner to quarantine.
		return
	}
	switch err := os.Rename(s.objPath(k), s.quarantinePath(k)); {
	case err == nil:
		s.stats.Quarantined++
		s.emit(obs.EvStoreQuarantine, k, "")
	case os.IsNotExist(err):
	default:
		s.stats.QuarantineFails++
	}
}

// stampLocked returns a strictly increasing access-time stamp: wall-clock
// nanoseconds, bumped past the previous stamp when the clock is too coarse
// (or stepped backwards) to distinguish two accesses. Strict ordering keeps
// LRU eviction deterministic. Caller holds s.mu.
func (s *Store) stampLocked() int64 {
	now := time.Now().UnixNano()
	if now <= s.lastStamp {
		now = s.lastStamp + 1
	}
	s.lastStamp = now
	return now
}

// rewriteIndex atomically replaces the index log with one "put" line per
// live entry, dropping the replay history.
func (s *Store) rewriteIndex() error {
	tmp, err := os.CreateTemp(s.dir, "index-*.tmp")
	if err != nil {
		return fmt.Errorf("store: compact index: %w", err)
	}
	w := bufio.NewWriter(tmp)
	for el := s.ll.Back(); el != nil; el = el.Prev() { // oldest first
		e := el.Value.(*entry)
		fmt.Fprintf(w, "put %x %d %d\n", e.key[:], e.size, e.atime)
	}
	if err := w.Flush(); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: compact index: %w", err)
	}
	tmp.Close()
	if err := os.Rename(tmp.Name(), s.indexPath()); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: compact index: %w", err)
	}
	return syncDir(s.dir)
}

func parseIndexLine(line string) (k Key, op string, atime int64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return k, "", 0, false
	}
	op = fields[0]
	switch op {
	case "put":
		if len(fields) != 4 {
			return k, "", 0, false
		}
	case "touch":
		if len(fields) != 3 {
			return k, "", 0, false
		}
	case "del":
		if len(fields) != 2 {
			return k, "", 0, false
		}
	default:
		return k, "", 0, false
	}
	raw, err := hex.DecodeString(fields[1])
	if err != nil || len(raw) != 32 {
		return k, "", 0, false
	}
	copy(k[:], raw)
	if op != "del" {
		atime, err = strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			return k, "", 0, false
		}
	}
	return k, op, atime, true
}

// Get returns the stored payload for key, or ok=false on a miss. Every hit
// reads the object file and verifies it end-to-end against its header
// checksum, so a file damaged on disk is never served: it is quarantined
// and reported as a miss. The payload is a private copy that stays valid
// after eviction or Close. The access time of a hit feeds LRU eviction. No
// lock is held across the read or the hash: the key is pinned instead, so
// an eviction meanwhile defers its unlink to the last reader.
func (s *Store) Get(key Key) (payload []byte, ok bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false
	}
	s.pins[key]++
	s.mu.Unlock()

	// store.read simulates a transient read failure (EIO): the entry is
	// quarantined exactly as a real one would be, and — since the file
	// itself is intact — the reverifier later proves it clean and restores
	// it. That loop is what the chaos smoke gates on.
	var img []byte
	err := faults.Point("store.read")
	if err == nil {
		img, err = readEntryFile(s.objPath(key), key)
	}

	s.mu.Lock()
	s.unpinLocked(key)
	cur, live := s.entries[key]
	sameEntry := live && cur == e
	var now int64
	switch {
	case err != nil:
		s.stats.Misses++
		if sameEntry {
			// A failed read may be transient or real: quarantine for the
			// reverifier to adjudicate.
			s.stats.Corruptions++
			s.dropLocked(e)
			s.quarantineLocked(key)
		}
	case sameEntry:
		s.stats.Hits++
		now = s.stampLocked()
		e.atime = now
		s.ll.MoveToFront(e.el)
	default:
		s.stats.Hits++
	}
	s.mu.Unlock()
	if err != nil {
		return nil, false
	}
	if now != 0 {
		s.recordTouch(key, now)
	}
	return img[HeaderSize:], true
}

// unpinLocked drops one read pin on key. The last reader of a key evicted
// while pinned performs the deferred unlink. It does so under s.mu: a put
// of the same key clears doomed under s.mu before renaming its new file
// into place, so the unlink can never remove a file a newer entry owns.
// Caller holds s.mu.
func (s *Store) unpinLocked(key Key) {
	if s.pins[key]--; s.pins[key] > 0 {
		return
	}
	delete(s.pins, key)
	if s.doomed[key] {
		delete(s.doomed, key)
		os.Remove(s.objPath(key))
	}
}

// View is one store read as GetView returns it. It is kept only because
// the repository benchmark calls GetView; new code calls Get.
type View struct{ payload []byte }

// Bytes returns the entry payload.
func (v View) Bytes() []byte { return v.payload }

// Release does nothing: a View's bytes are a private copy.
func (v View) Release() {}

// GetView is Get, wrapped in a View.
func (s *Store) GetView(key Key) (View, bool) {
	b, ok := s.Get(key)
	return View{payload: b}, ok
}

// recordTouch enqueues a best-effort persistent atime record: drop it —
// counted, so eviction-order degradation is observable — rather than block
// a read behind a saturated writer.
func (s *Store) recordTouch(key Key, atime int64) {
	if s.ro {
		return
	}
	s.closeMu.RLock()
	if !s.closed {
		select {
		case s.writeCh <- writeOp{key: key, atime: atime}:
		default:
			s.mu.Lock()
			s.stats.TouchDrops++
			s.mu.Unlock()
		}
	}
	s.closeMu.RUnlock()
}

// verifyBytes checks that b is a well-formed entry file image for key:
// decodable current-version header, matching stored key, exact length, and
// payload SHA-256 equal to the header checksum.
func verifyBytes(b []byte, key Key) (int64, error) {
	h, err := DecodeHeader(b)
	if err != nil {
		return 0, err
	}
	if h.Key != key {
		return 0, errors.New("store: key mismatch")
	}
	if uint64(len(b)-HeaderSize) != h.PayloadLen {
		return 0, errors.New("store: length mismatch")
	}
	if sha256.Sum256(b[HeaderSize:]) != h.Checksum {
		return 0, errors.New("store: checksum mismatch")
	}
	return int64(len(b)), nil
}

func (s *Store) dropLocked(e *entry) {
	s.ll.Remove(e.el)
	delete(s.entries, e.key)
	s.bytes -= e.size
}

// Contains reports whether key is currently live without touching the file
// or the access order.
func (s *Store) Contains(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Put schedules the payload for durable storage under key. The write —
// atomic temp+rename object file, fsync'd index append, budget eviction —
// happens on the background writer; Flush or Close waits for it. The caller
// must not mutate payload afterwards. A key already stored is recorded as a
// duplicate and not rewritten (content addressing: same key, same bytes).
func (s *Store) Put(key Key, graphHash, options [32]byte, payload []byte) error {
	if s.ro {
		return ErrReadOnly
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.writeCh <- writeOp{
		key:       key,
		graphHash: graphHash,
		options:   options,
		payload:   payload,
	}
	return nil
}

// Flush blocks until every Put enqueued before the call is durable on
// disk (or the store is closed). On a read-only store nothing is ever
// pending, so Flush is a successful no-op.
func (s *Store) Flush() error {
	if s.ro {
		return nil
	}
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return ErrClosed
	}
	ack := make(chan struct{})
	s.writeCh <- writeOp{ack: ack}
	s.closeMu.RUnlock()
	<-ack
	return nil
}

// Close flushes pending writes, stops the writer, and syncs and closes the
// index log. Further Puts fail with ErrClosed; Gets keep working off the
// in-memory index (reads are lock-protected, not writer-dependent).
func (s *Store) Close() error {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return ErrClosed
	}
	s.closed = true
	s.closeMu.Unlock()
	// Stop the reverifier before the writer: a mid-pass restore enqueues an
	// index record (dropped once closed is set, but the goroutine should be
	// gone before the index file is).
	if s.revStop != nil {
		close(s.revStop)
		<-s.revDone
	}
	// All Put/Flush senders finished before closed was set (they hold the
	// read lock across their send), so stop is the final op.
	if !s.ro {
		s.writeCh <- writeOp{stop: true}
		<-s.done
	}
	if s.indexF == nil {
		return nil
	}
	err := s.indexF.Sync()
	if cerr := s.indexF.Close(); err == nil {
		err = cerr
	}
	return err
}

// writer is the single goroutine applying mutations: object writes, index
// appends, eviction. Serializing here keeps every filesystem mutation
// ordered and lets Flush be a simple FIFO barrier.
func (s *Store) writer() {
	defer close(s.done)
	for op := range s.writeCh {
		switch {
		case op.stop:
			return
		case op.ack != nil:
			close(op.ack)
		case op.payload == nil:
			s.applyTouch(op)
		default:
			s.applyPut(op)
		}
	}
}

func (s *Store) applyTouch(op writeOp) {
	s.mu.Lock()
	_, ok := s.entries[op.key]
	s.mu.Unlock()
	if !ok {
		return
	}
	// Touch lines are advisory (eviction ordering), appended without fsync:
	// losing them in a crash only ages the entry. Index appends happen only
	// on this writer goroutine, so no lock is held across the write.
	fmt.Fprintf(s.indexF, "touch %x %d\n", op.key[:], op.atime)
}

func (s *Store) applyPut(op writeOp) {
	s.mu.Lock()
	if e, ok := s.entries[op.key]; ok {
		s.stats.DupPuts++
		e.atime = s.stampLocked()
		s.ll.MoveToFront(e.el)
		s.mu.Unlock()
		return
	}
	// The new file replaces any evicted one still pinned by a reader, so
	// that reader must not unlink the path when it finishes. If the write
	// fails, the old file stays as an orphan for the next Open to adopt.
	delete(s.doomed, op.key)
	s.mu.Unlock()

	size, err := s.writeObject(op)
	if err != nil {
		// Disk trouble (ENOSPC, permissions) degrades the store to a
		// cache miss on restart; serving must not fail because
		// persistence did.
		s.mu.Lock()
		s.stats.WriteErrors++
		s.mu.Unlock()
		s.emit(obs.EvStoreWriteError, op.key, err.Error())
		return
	}

	var lines strings.Builder
	s.mu.Lock()
	e := &entry{key: op.key, size: size, atime: s.stampLocked()}
	e.el = s.ll.PushFront(e)
	s.entries[op.key] = e
	s.bytes += size
	s.stats.Puts++
	fmt.Fprintf(&lines, "put %x %d %d\n", op.key[:], size, e.atime)
	ev := s.evictLocked(&lines)
	s.mu.Unlock()
	// Index append + fsync run outside s.mu (writer-goroutine-only I/O) so
	// readers never wait on the disk. One fsync covers the put and any
	// eviction records it caused. Victim files are unlinked after the index
	// is durable: a crash in between resurrects an orphan (re-adopted and
	// re-evicted on reopen) rather than leaving a dangling index line.
	// store.index simulates exactly that crash window — a put whose index
	// record was lost — which orphan adoption repairs on the next Open.
	if faults.Point("store.index") == nil {
		fmt.Fprint(s.indexF, lines.String())
		_ = s.indexF.Sync()
	}
	s.emit(obs.EvStoreWrite, op.key, "")
	for _, k := range ev.evicted {
		s.emit(obs.EvStoreEvict, k, "")
	}
	for _, k := range ev.victims {
		os.Remove(s.objPath(k))
	}
	if ev.count > 0 {
		s.emitEvictPressure(ev)
	}
}

// writeObject writes the entry file atomically: temp file in the store
// root, full write + fsync, rename into objects/, directory fsync. A crash
// at any point leaves either no visible file or a complete one.
func (s *Store) writeObject(op writeOp) (int64, error) {
	h := EncodeHeader(headerFor(op.key, op.graphHash, op.options, op.payload))
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return 0, err
	}
	_, err = tmp.Write(h[:])
	if err == nil {
		_, err = tmp.Write(op.payload)
	}
	if err == nil {
		// store.fsync models a durability failure (ENOSPC at sync, dying
		// disk): the put degrades to a WriteError and the entry is simply
		// absent after a restart.
		err = faults.Point("store.fsync")
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = faults.Point("store.rename")
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.objPath(op.key))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	// The rename made the object visible; a directory-fsync failure only
	// widens its durability window. Reporting failure here would leave a
	// live file untracked and uncounted, so tolerate it.
	_ = syncDir(filepath.Join(s.dir, "objects"))
	return int64(HeaderSize + len(op.payload)), nil
}

// evictResult is one eviction pass's outcome: evicted lists every removed
// key (for per-key events), victims the subset whose files the caller must
// unlink outside the lock (unpinned entries only — pinned ones defer the
// unlink to their last unpin), reclaimed/count the pressure-summary numbers.
type evictResult struct {
	evicted   []Key
	victims   []Key
	reclaimed int64
	count     int
}

// evictLocked removes oldest-access entries until the byte budget holds,
// keeping at least one entry (a single oversized result may exceed the
// budget rather than thrash). Deletion records are appended to lines when
// non-nil (runtime path); the Open path compacts the index right after
// instead. An entry pinned by an in-flight read is dropped from the live
// set but its file survives until the last unpin. Caller holds s.mu (or is
// single-threaded Open).
func (s *Store) evictLocked(lines *strings.Builder) evictResult {
	var r evictResult
	if s.maxBytes <= 0 || s.ro {
		return r
	}
	for s.bytes > s.maxBytes && s.ll.Len() > 1 {
		e := s.ll.Back().Value.(*entry)
		s.dropLocked(e)
		s.stats.Evictions++
		r.evicted = append(r.evicted, e.key)
		r.reclaimed += e.size
		r.count++
		if s.pins[e.key] > 0 {
			s.doomed[e.key] = true
		} else {
			r.victims = append(r.victims, e.key)
		}
		if lines != nil {
			fmt.Fprintf(lines, "del %x\n", e.key[:])
		}
	}
	return r
}

// emitEvictPressure publishes one summary event per eviction pass — bytes
// reclaimed, entries removed, and the budget being enforced — the firehose
// signal that the store is cycling under byte pressure (per-key
// store.evict events say who, this says how hard).
func (s *Store) emitEvictPressure(ev evictResult) {
	if s.bus == nil {
		return
	}
	s.bus.Publish(obs.Event{Type: obs.EvStoreEvictPressure,
		Bytes: ev.reclaimed, Count: ev.count, Budget: s.maxBytes})
}

// Stats returns a snapshot of the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.bytes
	return st
}

// reverifyStrikes is how many consecutive failed re-verifications doom a
// quarantined file: "fail twice and you are gone" keeps genuinely corrupt
// bytes from haunting the quarantine directory forever, while a single
// fluke (a read racing an unlink, an injected fault during the pass) gets a
// second look.
const reverifyStrikes = 2

// Reverify runs one pass over the quarantine directory, re-checking every
// entry end-to-end against its header checksum — the same verification a
// Get performs. A file that proves intact is restored: renamed back into
// objects/ and re-indexed as live (or, when its key was re-solved and is
// live again meanwhile, discarded as a redundant verified copy). A file
// that fails collects a strike and is deleted at reverifyStrikes. The
// background loop armed by Options.ReverifyEvery calls this periodically;
// tests and operators can call it directly. Returns the restored and
// deleted counts of this pass.
func (s *Store) Reverify() (restored, deleted int) {
	if s.ro {
		// Restores rename files and append index records: the writable
		// owner's reverifier does that; a read-only opener just serves.
		return 0, 0
	}
	names, err := os.ReadDir(filepath.Join(s.dir, "quarantine"))
	if err != nil {
		return 0, 0
	}
	for _, de := range names {
		name := de.Name()
		if !strings.HasSuffix(name, ".res") {
			continue
		}
		raw, err := hex.DecodeString(strings.TrimSuffix(name, ".res"))
		if err != nil || len(raw) != 32 {
			continue
		}
		var k Key
		copy(k[:], raw)
		qpath := s.quarantinePath(k)
		// Verify outside s.mu (file reads must not stall Gets); the entry
		// table mutation below re-checks liveness under the lock.
		img, verr := readEntryFile(qpath, k)
		if os.IsNotExist(verr) {
			continue // raced with a concurrent restore/delete
		}
		s.mu.Lock()
		if verr != nil {
			s.strikes[k]++
			if s.strikes[k] >= reverifyStrikes {
				delete(s.strikes, k)
				if os.Remove(qpath) == nil {
					s.stats.ReverifyDeleted++
					deleted++
					s.emit(obs.EvStoreReverifyDrop, k, verr.Error())
				}
			}
			s.mu.Unlock()
			continue
		}
		delete(s.strikes, k)
		if _, live := s.entries[k]; live {
			// The key was re-solved (or re-stored) while quarantined; the
			// live object wins and the verified copy is redundant.
			os.Remove(qpath)
			s.stats.Restored++
			restored++
			s.emit(obs.EvStoreRestore, k, "")
			s.mu.Unlock()
			continue
		}
		if os.Rename(qpath, s.objPath(k)) != nil {
			s.mu.Unlock()
			continue
		}
		delete(s.doomed, k) // the restored file owns the path now
		e := &entry{key: k, size: int64(len(img)), atime: s.stampLocked()}
		e.el = s.ll.PushFront(e)
		s.entries[k] = e
		s.bytes += e.size
		s.stats.Restored++
		restored++
		s.emit(obs.EvStoreRestore, k, "")
		atime := e.atime
		s.mu.Unlock()
		// Best-effort index record (appends happen only on the writer
		// goroutine, so route through it like Get's touch records); a lost
		// line only means orphan adoption re-indexes the file on restart.
		// Byte-budget overshoot from restores is reconciled by the next
		// put's eviction pass rather than here.
		s.recordTouch(k, atime)
	}
	return restored, deleted
}

func (s *Store) reverifyLoop(every time.Duration) {
	defer close(s.revDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.revStop:
			return
		case <-t.C:
			s.Reverify()
		}
	}
}

// syncDir fsyncs a directory so a preceding rename is durable. Filesystems
// that reject directory fsync (some CI overlays) are tolerated: the rename
// itself is still atomic, only its durability window widens.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}
