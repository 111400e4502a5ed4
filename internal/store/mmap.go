package store

// This file is the zero-copy read path (DESIGN.md §8.2): object files are
// mapped into memory once, verified end-to-end at map time, and served as
// refcounted pinned views whose bytes alias the page cache directly. The
// store lock brackets only the refcount and table bookkeeping — never the
// map, read, or hash — so a slow disk stalls one reader, not the store.
// Platforms without mmap (and stores opened with Options.NoMmap) degrade to
// a per-read heap copy via os.ReadFile, verified on every call; both paths
// pin the entry across the off-lock I/O so eviction defers its unlink to
// the last reader.

import (
	"errors"
	"os"

	"twoecss/internal/faults"
)

// ErrReadOnly reports a mutating operation on a store opened with
// Options.ReadOnly.
var ErrReadOnly = errors.New("store: read-only")

// MmapStats counts the zero-copy read path. Embedded in Stats, so the
// field set is part of the operational API.
type MmapStats struct {
	// Maps counts object files mapped (and checksum-verified) into memory;
	// Fallbacks counts reads served by a private heap copy instead (mmap
	// unsupported, disabled, or failed for that file).
	Maps      int64 `json:"maps"`
	Fallbacks int64 `json:"fallbacks"`
	// Pins and Unpins count view references taken and released on mapped
	// entries; their difference is the number of live pinned views.
	Pins   int64 `json:"pins"`
	Unpins int64 `json:"unpins"`
	// UnmapDeferred counts evictions that found the entry still pinned —
	// a mapped view outstanding, or a fallback read mid-flight — and
	// deferred the munmap/unlink to the last reader's release.
	UnmapDeferred int64 `json:"unmap_deferred"`
	// ActiveMaps and MappedBytes describe the currently mapped set,
	// including doomed mappings kept alive by outstanding pins.
	ActiveMaps  int   `json:"active_maps"`
	MappedBytes int64 `json:"mapped_bytes"`
}

// mapping is one mmapped object file image shared by every warm view of its
// key. refs and doomed are guarded by the owning store's mutex; data is
// immutable for the mapping's lifetime and read without the lock.
type mapping struct {
	s    *Store
	key  Key
	data []byte // full file image: header + payload
	refs int    // outstanding View pins
	// doomed marks a mapping removed from the warm table (evicted,
	// quarantined, store closed): the region is munmapped when the last
	// pin drops instead of being rewarmed.
	doomed bool
}

// View is a pinned read of one stored entry. On the mmap path Bytes aliases
// the mapped file image — no copy between disk and the caller — and stays
// valid until Release even if the entry is evicted or quarantined
// meanwhile. On the fallback path the bytes are a private heap copy and the
// pin is a no-op. The zero View is valid: Bytes returns nil and Release
// does nothing, so `defer v.Release()` is always safe.
type View struct {
	m   *mapping
	img []byte // full file image (header + payload)
}

// Bytes returns the entry payload. The slice must not be mutated, and for
// mapped views must not be used after the final Release.
func (v View) Bytes() []byte {
	if len(v.img) < HeaderSize {
		return nil
	}
	return v.img[HeaderSize:]
}

// Mapped reports whether the view aliases an mmapped region (and therefore
// must be released) rather than owning a private heap copy.
func (v View) Mapped() bool { return v.m != nil }

// Release drops one pin; call it exactly once per pinned view. When the
// last pin on a doomed mapping drops, the region is munmapped outside the
// store lock.
func (v View) Release() {
	if v.m == nil {
		return
	}
	s := v.m.s
	s.mu.Lock()
	v.m.refs--
	s.stats.Mmap.Unpins++
	var unmap []byte
	if v.m.refs == 0 && v.m.doomed {
		unmap = v.m.data
		s.stats.Mmap.ActiveMaps--
		s.stats.Mmap.MappedBytes -= int64(len(v.m.data))
	}
	s.mu.Unlock()
	if unmap != nil {
		_ = unmapFile(unmap)
	}
}

// GetView returns a pinned zero-copy view of the payload stored under key,
// or ok=false on a miss. The file is verified end-to-end against the header
// checksum when first mapped (the fallback path re-verifies on every read);
// a file that fails verification is quarantined and reported as a miss. The
// access time of a hit feeds LRU eviction. No lock is held across file I/O
// or hashing, and a warm hit performs no I/O and no payload allocation at
// all — it is a refcount bump on the existing mapping.
func (s *Store) GetView(key Key) (View, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return View{}, false
	}
	if m, ok := s.maps[key]; ok {
		// Warm path: already mapped and verified; pinning is bookkeeping.
		m.refs++
		s.stats.Mmap.Pins++
		now := s.stampLocked()
		e.atime = now
		s.ll.MoveToFront(e.el)
		s.stats.Hits++
		s.mu.Unlock()
		s.recordTouch(key, now)
		return View{m: m, img: m.data}, true
	}
	// Cold path: pin the entry so eviction defers the unlink to us, then
	// map (or read) and verify with no store lock held.
	e.pins++
	s.mu.Unlock()

	m, img, err := s.loadFile(key)

	s.mu.Lock()
	e.pins--
	cur, live := s.entries[key]
	sameEntry := live && cur == e
	// If eviction doomed this entry while we held the pin, the unlink was
	// deferred to the last pin — perform it only when no newer entry for
	// the same key owns the path meanwhile (a re-put after the eviction).
	var unlink string
	if e.doomed && e.pins == 0 && !live {
		unlink = s.objPath(key)
	}
	var unmap []byte
	if err != nil {
		s.stats.Misses++
		if sameEntry {
			// Same transient-vs-real ambiguity as any failed read:
			// quarantine for the reverifier to adjudicate.
			s.stats.Corruptions++
			s.dropLocked(e)
			if d, _ := s.doomMappingLocked(key); d != nil {
				unmap = d // a racing load installed a map before our failure
			}
			s.quarantineLocked(key)
		}
		s.mu.Unlock()
		if unlink != "" {
			os.Remove(unlink)
		}
		if unmap != nil {
			_ = unmapFile(unmap)
		}
		return View{}, false
	}
	v := View{img: img}
	if m != nil {
		s.stats.Mmap.Maps++
		s.stats.Mmap.Pins++
		s.stats.Mmap.ActiveMaps++
		s.stats.Mmap.MappedBytes += int64(len(img))
		m.refs = 1
		v.m = m
		if sameEntry && s.maps != nil && s.maps[key] == nil {
			s.maps[key] = m
		} else {
			// Evicted while loading, store closed, or a concurrent load won
			// the table slot: serve this verified mapping one-shot and
			// munmap on its last Release.
			m.doomed = true
		}
	} else {
		s.stats.Mmap.Fallbacks++
	}
	s.stats.Hits++
	var now int64
	if sameEntry {
		now = s.stampLocked()
		e.atime = now
		s.ll.MoveToFront(e.el)
	}
	s.mu.Unlock()
	if unlink != "" {
		os.Remove(unlink)
	}
	if now != 0 {
		s.recordTouch(key, now)
	}
	return v, true
}

// loadFile maps (or, when mmap is disabled or unavailable, reads) the
// object file for key and verifies it end-to-end. A non-nil mapping means
// img aliases a mapped region the caller owns; nil means img is a private
// heap copy. Called with no lock held; callers pin the entry around it.
func (s *Store) loadFile(key Key) (*mapping, []byte, error) {
	// store.read simulates a transient read failure (EIO): the entry is
	// quarantined exactly as a real one would be, and — since the file
	// itself is intact — the reverifier later proves it clean and restores
	// it. That loop is what the chaos smoke gates on.
	if err := faults.Point("store.read"); err != nil {
		return nil, nil, err
	}
	path := s.objPath(key)
	if !s.noMmap {
		img, err := mapFile(path)
		switch {
		case err == nil:
			if _, verr := verifyBytes(img, key); verr != nil {
				_ = unmapFile(img)
				return nil, nil, verr
			}
			return &mapping{s: s, key: key, data: img}, img, nil
		case os.IsNotExist(err):
			// A missing file fails identically on the heap path; don't
			// mask it as a fallback.
			return nil, nil, err
		}
		// Any other map failure (unsupported platform, zero-length corrupt
		// file, exotic filesystem) degrades to the heap path below.
	}
	img, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	if _, verr := verifyBytes(img, key); verr != nil {
		return nil, nil, verr
	}
	return nil, img, nil
}

// doomMappingLocked removes key's mapping from the warm table. If no view
// pins it, the region is returned for the caller to munmap outside s.mu;
// otherwise the munmap is deferred to the last Release. Caller holds s.mu.
func (s *Store) doomMappingLocked(key Key) (unmap []byte, deferred bool) {
	m, ok := s.maps[key]
	if !ok {
		return nil, false
	}
	delete(s.maps, key)
	m.doomed = true
	if m.refs == 0 {
		s.stats.Mmap.ActiveMaps--
		s.stats.Mmap.MappedBytes -= int64(len(m.data))
		return m.data, false
	}
	return nil, true
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
