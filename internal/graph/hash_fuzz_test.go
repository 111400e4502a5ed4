package graph

import (
	"fmt"
	"testing"
)

// FuzzGraphHashCanonical asserts the content digest's canonicalization
// invariant under fuzzed instances: permuting the edge insertion order and
// swapping edge endpoint orientation never changes Hash, while changing the
// vertex count always does. HashEdges, the digest of wire triples without
// a graph, must give FromEdges(...).Hash() and refuse exactly what
// FromEdges refuses, with the same error. The service layer's disk store and result cache
// are keyed on this digest (DESIGN.md §7.1, §8), so a canonicalization gap
// would silently split or alias cache entries.
func FuzzGraphHashCanonical(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 0, 5})
	f.Add([]byte{3, 0, 1, 9, 0, 1, 9, 1, 2, 1}) // parallel edges
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 3 + int(data[0])%61
		data = data[1:]

		type edge struct {
			u, v int
			w    Weight
		}
		var edges []edge
		for i := 0; i+3 <= len(data) && len(edges) < 512; i += 3 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u == v {
				continue
			}
			edges = append(edges, edge{u: u, v: v, w: Weight(data[i+2]) + 1})
		}

		a := New(n)
		for _, e := range edges {
			a.MustAddEdge(e.u, e.v, e.w)
		}

		// b holds the same edge multiset: insertion order rotated by a
		// data-derived offset and reversed, every other edge's endpoints
		// swapped.
		rot := 0
		if len(edges) > 0 {
			rot = int(data[len(data)-1]) % len(edges)
		}
		b := New(n)
		for i := len(edges) - 1; i >= 0; i-- {
			e := edges[(i+rot)%len(edges)]
			if i%2 == 0 {
				e.u, e.v = e.v, e.u
			}
			b.MustAddEdge(e.u, e.v, e.w)
		}
		if a.Hash() != b.Hash() {
			t.Fatalf("hash differs across edge permutation/orientation (n=%d, %d edges)", n, len(edges))
		}

		// A different vertex count over the same edges is different content.
		c := New(n + 1)
		for _, e := range edges {
			c.MustAddEdge(e.u, e.v, e.w)
		}
		if a.Hash() == c.Hash() {
			t.Fatalf("hash ignores vertex count (n=%d)", n)
		}

		wire := make([][3]int64, len(edges))
		for i, e := range edges {
			wire[i] = [3]int64{int64(e.u), int64(e.v), e.w}
		}
		if h, err := HashEdges(n, wire); err != nil || h != a.Hash() {
			t.Fatalf("HashEdges = %x, %v; want Hash %x", h, err, a.Hash())
		}

		// The same bytes as raw triples, endpoints in [-1, n], so some
		// are self-loops or out of range, and weights signed.
		var triples [][3]int64
		var raw []Edge
		for i := 0; i+3 <= len(data) && len(triples) < 512; i += 3 {
			u, v, w := int(data[i])%(n+2)-1, int(data[i+1])%(n+2)-1, Weight(int8(data[i+2]))
			triples = append(triples, [3]int64{int64(u), int64(v), w})
			raw = append(raw, Edge{U: u, V: v, W: w})
		}
		h, herr := HashEdges(n, triples)
		g, gerr := FromEdges(n, raw)
		if fmt.Sprint(herr) != fmt.Sprint(gerr) {
			t.Fatalf("HashEdges error %v, FromEdges error %v", herr, gerr)
		}
		if gerr == nil && h != g.Hash() {
			t.Fatalf("HashEdges differs from FromEdges(...).Hash() (n=%d, %d edges)", n, len(raw))
		}
	})
}
