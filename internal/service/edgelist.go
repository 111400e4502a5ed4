package service

import (
	"bytes"
	"errors"
	"fmt"
)

// EdgeList is the wire form of an instance's edges: a JSON array of
// [u, v, w] integer triples. It decodes in one scan of the request bytes
// instead of through encoding/json's reflection, which dominated a warm
// hit's cost (DESIGN.md §7.6). It encodes as the plain [][3]int64 it is.
//
// The decoder accepts exactly the inputs encoding/json accepts into
// [][3]int64 whose every element is a three-integer array, and decodes
// them to the same values; null is a nil list. It rejects anything else,
// naming the triple where the fault is: non-integers (1.5, 1e3, "1",
// null), leading zeros, values outside int64, triples of any length but 3
// (encoding/json would zero-fill a short one and drop a fourth element),
// and trailing commas.
type EdgeList [][3]int64

// UnmarshalJSON implements json.Unmarshaler.
func (l *EdgeList) UnmarshalJSON(data []byte) error {
	out, i, err := parseEdgeList(data, skipSpace(data, 0))
	if err != nil {
		return err
	}
	if skipSpace(data, i) != len(data) {
		return errors.New("edges: unexpected data after the list")
	}
	*l = out
	return nil
}

// parseEdgeList parses the edge list or null at data[i:] and returns it
// with the index just past it. SolveRequest's decoder calls it in place,
// on the list inside the request body.
func parseEdgeList(data []byte, i int) (EdgeList, int, error) {
	if bytes.HasPrefix(data[i:], []byte("null")) {
		return nil, i + 4, nil
	}
	if i == len(data) || data[i] != '[' {
		return nil, i, errors.New("edges: want an array of [u, v, w] integer triples")
	}
	// Every triple closes with one ']' and the list with one more, so the
	// count sizes the list exactly for any list that decodes and ends the
	// data, and within the few ']' of what follows it otherwise. The edge
	// limit bounds what a list of empty arrays can reserve up front.
	out := make(EdgeList, 0, min(max(bytes.Count(data[i:], []byte("]"))-1, 0), maxWireEdges))
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return out, i + 1, nil
	}
	for {
		t, j, ok := parseTriple(data, i)
		if !ok {
			return nil, i, fmt.Errorf("edges[%d]: want [u, v, w] integer triple", len(out))
		}
		out = append(out, t)
		i = skipSpace(data, j)
		if i < len(data) && data[i] == ',' {
			i = skipSpace(data, i+1)
			continue
		}
		if i < len(data) && data[i] == ']' {
			return out, i + 1, nil
		}
		return nil, i, fmt.Errorf("edges: want ',' or ']' after edges[%d]", len(out)-1)
	}
}

// parseTriple parses "[a, b, c]" at data[i:] and returns the triple and
// the index just past its ']'.
func parseTriple(data []byte, i int) (t [3]int64, end int, ok bool) {
	if i >= len(data) || data[i] != '[' {
		return t, i, false
	}
	for k := range t {
		if t[k], i, ok = parseInt(data, skipSpace(data, i+1)); !ok {
			return t, i, false
		}
		i = skipSpace(data, i)
		want := byte(',')
		if k == len(t)-1 {
			want = ']'
		}
		if i >= len(data) || data[i] != want {
			return t, i, false
		}
	}
	return t, i + 1, true
}

// parseInt parses a JSON integer that fits int64 at data[i:] and returns it
// with the index just past its last digit. A fraction, an exponent or a
// leading zero leaves a byte the caller does not accept after a number
// ('.', 'e', a digit after "0"), so those fail there.
func parseInt(data []byte, i int) (int64, int, bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	if i >= len(data) || data[i] < '0' || data[i] > '9' {
		return 0, i, false
	}
	if data[i] == '0' {
		return 0, i + 1, true
	}
	// Nineteen digits never overflow a uint64, and twenty without a
	// leading zero are beyond int64 either way.
	start := i
	var u uint64
	for ; i < len(data) && data[i] >= '0' && data[i] <= '9'; i++ {
		u = u*10 + uint64(data[i]-'0')
	}
	limit := uint64(1<<63 - 1)
	if neg {
		limit++
	}
	if i-start > 19 || u > limit {
		return 0, i, false
	}
	if neg {
		return -int64(u), i, true
	}
	return int64(u), i, true
}

// skipSpace returns the index of the first non-whitespace byte of data at
// or after i, by JSON's definition of whitespace.
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}
