// Package store is the disk-backed, content-addressed result store behind
// the solver service's in-memory LRU (DESIGN.md §8). Each entry is one file
// holding a fixed-width versioned header — content key, canonical graph
// hash, the result-relevant options blob, and a SHA-256 payload checksum —
// followed by the canonical wire payload. Files are written atomically
// (temp file + rename + directory fsync) and recorded in an fsync'd
// append-only index log that Open replays for a fast startup scan; corrupt
// or truncated entries are unlinked, never fatal. On-disk size is
// bounded by LRU eviction on the access times recorded in the index.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Key is the 32-byte content address of an entry. The service layer uses
// its cache key (SHA-256 over graph hash + options); the store treats it as
// an opaque identifier.
type Key = [32]byte

// Format constants. Version bumps when the header layout changes; Open
// drops entries whose version it does not understand rather than guessing
// at their layout.
const (
	magic         = "2ECR"
	formatVersion = 1
	// HeaderSize is the fixed byte length of an encoded header.
	HeaderSize = 4 + 2 + 2 + 32 + 32 + 32 + 8 + 32
	// MaxPayload bounds a single entry's payload so a corrupt length field
	// cannot drive a huge allocation during startup verification.
	MaxPayload = 1 << 30
)

// Header is the per-file metadata written ahead of the payload.
type Header struct {
	// Version is the format version the file was written with.
	Version uint16
	// Key is the content address the entry is stored under.
	Key Key
	// GraphHash is the canonical digest of the solved instance
	// (graph.Hash), kept so an operator can map files back to instances
	// without the service's key derivation.
	GraphHash [32]byte
	// Options is the fixed-width encoding of the result-relevant solve
	// options, exactly the blob the service hashes into Key.
	Options [32]byte
	// PayloadLen is the byte length of the payload following the header.
	PayloadLen uint64
	// Checksum is the SHA-256 of the payload bytes.
	Checksum [32]byte
}

// EncodeHeader renders h into its fixed-width on-disk form.
func EncodeHeader(h Header) [HeaderSize]byte {
	var b [HeaderSize]byte
	copy(b[0:4], magic)
	binary.LittleEndian.PutUint16(b[4:6], h.Version)
	// b[6:8] reserved, zero.
	copy(b[8:40], h.Key[:])
	copy(b[40:72], h.GraphHash[:])
	copy(b[72:104], h.Options[:])
	binary.LittleEndian.PutUint64(b[104:112], h.PayloadLen)
	copy(b[112:144], h.Checksum[:])
	return b
}

// Errors returned by DecodeHeader, distinguishable for tests; every decode
// failure is handled by dropping the file, never by panicking.
var (
	ErrShortHeader = errors.New("store: short header")
	ErrBadMagic    = errors.New("store: bad magic")
	ErrBadVersion  = errors.New("store: unsupported format version")
	ErrBadLength   = errors.New("store: implausible payload length")
)

// DecodeHeader parses the first HeaderSize bytes of b. It never panics on
// arbitrary input (fuzzed in fuzz_test.go): every malformed prefix yields a
// descriptive error instead.
func DecodeHeader(b []byte) (Header, error) {
	var h Header
	if len(b) < HeaderSize {
		return h, fmt.Errorf("%w: %d bytes, need %d", ErrShortHeader, len(b), HeaderSize)
	}
	if string(b[0:4]) != magic {
		return h, fmt.Errorf("%w: % x", ErrBadMagic, b[0:4])
	}
	h.Version = binary.LittleEndian.Uint16(b[4:6])
	if h.Version != formatVersion {
		return h, fmt.Errorf("%w: %d", ErrBadVersion, h.Version)
	}
	copy(h.Key[:], b[8:40])
	copy(h.GraphHash[:], b[40:72])
	copy(h.Options[:], b[72:104])
	h.PayloadLen = binary.LittleEndian.Uint64(b[104:112])
	if h.PayloadLen > MaxPayload {
		return h, fmt.Errorf("%w: %d", ErrBadLength, h.PayloadLen)
	}
	copy(h.Checksum[:], b[112:144])
	return h, nil
}

// headerFor builds the version-current header for a payload.
func headerFor(key Key, graphHash, options [32]byte, payload []byte) Header {
	return Header{
		Version:    formatVersion,
		Key:        key,
		GraphHash:  graphHash,
		Options:    options,
		PayloadLen: uint64(len(payload)),
		Checksum:   sha256.Sum256(payload),
	}
}
