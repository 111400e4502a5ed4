package service

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// edgeListSeeds are the decoder's corner cases: each fault it must refuse,
// whitespace wherever JSON allows it, null and the integer extremes.
var edgeListSeeds = []string{
	`[[0,1,2],[1,2,3]]`,
	`[]`,
	`null`,
	` null `,
	"\t[ [ 0 , 1 , 2 ] ,\r\n[1,2,-3] ]\n",
	`[[0,1,-0]]`,
	`[[0,1,-9223372036854775808],[1,2,9223372036854775807]]`,
	`[[0,1,9223372036854775808]]`,
	`[[0,1,-9223372036854775809]]`,
	`[[0,1,1],[1,2`,
	`[[0,1,1.5]]`,
	`[[0,1,1e3]]`,
	`[[0,"1",1]]`,
	`[[0,01,1]]`,
	`[[0,1]]`,
	`[[0,1,2,3]]`,
	`[[0,1,2],]`,
	`[[0,1,2,]]`,
	`[[0,1,null]]`,
	`[null]`,
	`[[0,1,2]] x`,
	`{"0":[0,1,2]}`,
	`[[0,1,2]`,
	`[[-,1,2]]`,
}

func TestEdgeListDecode(t *testing.T) {
	var l EdgeList
	if err := json.Unmarshal([]byte("\n[ [0, 1, 2],[3,4 ,-5] ]"), &l); err != nil {
		t.Fatal(err)
	}
	if want := (EdgeList{{0, 1, 2}, {3, 4, -5}}); !slices.Equal(l, want) || cap(l) != len(want) {
		t.Fatalf("decoded %v (cap %d), want %v at exact capacity", l, cap(l), want)
	}
	if err := json.Unmarshal([]byte("null"), &l); err != nil || l != nil {
		t.Fatalf("null decoded to %v, %v; want a nil list", l, err)
	}
	// Called directly, the decoder sees the faults encoding/json's syntax
	// check would otherwise catch first, and names the triple.
	for in, want := range map[string]string{
		`[[0,1,2],[0,01,2]]`: "edges[1]: want [u, v, w] integer triple",
		`[[0,1,2],]`:         "edges[1]: want [u, v, w] integer triple",
		`[[0,1,2] [0,1,2]]`:  "edges: want ',' or ']' after edges[0]",
		`{}`:                 "edges: want an array",
		`[[0,1,2]] 7`:        "edges: unexpected data after the list",
	} {
		if err := l.UnmarshalJSON([]byte(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want %q", in, err, want)
		}
	}
}

// FuzzEdgeList checks the one-pass decoder against encoding/json decoding
// into [][3]int64. Every list the decoder accepts, encoding/json accepts
// with the same values; every input encoding/json accepts whose elements
// are all three-integer arrays, the decoder accepts too. The two differ
// only where the decoder is stricter: a short triple that encoding/json
// zero-fills, a fourth element it drops, a null it reads as zero.
func FuzzEdgeList(f *testing.F) {
	for _, s := range edgeListSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got EdgeList
		gotErr := got.UnmarshalJSON(data)
		var want [][3]int64
		wantErr := json.Unmarshal(data, &want)
		switch {
		case gotErr == nil && wantErr != nil:
			t.Fatalf("decoder accepted %q, encoding/json refuses it: %v", data, wantErr)
		case gotErr == nil:
			if (got == nil) != (want == nil) || !slices.Equal(got, want) {
				t.Fatalf("%q: decoder gives %v, encoding/json %v", data, got, want)
			}
		case wantErr == nil && exactTriples(data):
			t.Fatalf("decoder refused %q (%v), encoding/json decodes it to %v", data, gotErr, want)
		}
	})
}

// exactTriples reports whether data is null or a JSON array whose every
// element is an array of exactly three numbers.
func exactTriples(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return false
	}
	if v == nil {
		return true
	}
	list, ok := v.([]any)
	if !ok {
		return false
	}
	for _, e := range list {
		t, ok := e.([]any)
		if !ok || len(t) != 3 {
			return false
		}
		for _, x := range t {
			if _, ok := x.(json.Number); !ok {
				return false
			}
		}
	}
	return true
}
