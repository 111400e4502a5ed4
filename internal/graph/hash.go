package graph

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
)

// Hash returns a canonical content digest of g: two graphs hash equal iff
// they have the same vertex count and the same multiset of weighted
// undirected edges, independent of edge insertion order and of the stored
// orientation of each edge. The service layer uses it as the
// content-addressed cache key (DESIGN.md §7), so the digest must be
// deterministic across processes: it is a SHA-256 over a fixed-width
// little-endian encoding of (N, M, sorted normalized edges).
//
// Note the digest identifies the edge *multiset*, not the edge numbering:
// two graphs with equal hash may assign different ids to the same edge.
// Consumers keying on Hash must therefore exchange results in a
// representation-independent form (endpoint triples, not edge ids).
func (g *Graph) Hash() [32]byte {
	return digest(g.N, len(g.Edges), func(i int) (int, int, Weight) {
		e := g.Edges[i]
		return e.U, e.V, e.W
	})
}

// HashEdges returns FromEdges(n, edges).Hash() for the graph whose edge i
// joins edges[i][0] and edges[i][1] with weight edges[i][2], without
// building it: a cache keyed on Hash can be looked up before deciding to
// build the graph. It rejects exactly the edges FromEdges rejects, with
// FromEdges' error. n must be at least 0.
func HashEdges(n int, edges [][3]int64) ([32]byte, error) {
	for i, e := range edges {
		if err := checkEdge(n, int(e[0]), int(e[1])); err != nil {
			return [32]byte{}, fmt.Errorf("edge %d: %w", i, err)
		}
	}
	return digest(n, len(edges), func(i int) (int, int, Weight) {
		e := edges[i]
		return int(e[0]), int(e[1]), e[2]
	}), nil
}

// digest is the one digest core behind Hash and HashEdges: the SHA-256 of
// n, m and the m valid edges edge(i) returns, normalized and sorted.
func digest(n, m int, edge func(i int) (u, v int, w Weight)) [32]byte {
	// Sort in two steps: a counting sort buckets the edges by their
	// smaller endpoint, then each bucket, about a degree long, is sorted
	// by (v, w). That is far fewer comparisons than one comparison sort of
	// all M edges.
	end := make([]int, n+1)
	for i := range m {
		u, v, _ := edge(i)
		end[min(u, v)+1]++
	}
	for u := 1; u <= n; u++ {
		end[u] += end[u-1]
	}
	es := make([]hashEdge, m)
	for i := range m {
		u, v, w := edge(i)
		u, v = min(u, v), max(u, v)
		es[end[u]] = hashEdge{key: uint64(u)<<32 | uint64(v), w: w}
		end[u]++
	}
	// end[u] is now where bucket u ends.
	lo := 0
	for _, hi := range end[:n] {
		slices.SortFunc(es[lo:hi], cmpHashEdge)
		lo = hi
	}
	// The digest input is 16 bytes of header and 16 per edge: N and M as
	// uint64, then each edge as uint32 u, uint32 v (u <= v) and int64 w.
	// It streams into the hash through one small buffer.
	h := sha256.New()
	var buf [1024]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(n))
	binary.LittleEndian.PutUint64(buf[8:], uint64(m))
	k := 16
	for _, t := range es {
		if k == len(buf) {
			h.Write(buf[:])
			k = 0
		}
		binary.LittleEndian.PutUint32(buf[k:], uint32(t.key>>32))
		binary.LittleEndian.PutUint32(buf[k+4:], uint32(t.key))
		binary.LittleEndian.PutUint64(buf[k+8:], uint64(t.w))
		k += 16
	}
	h.Write(buf[:k])
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// hashEdge is one normalized edge of the digest: key packs (u, v) with
// u <= v so that one integer comparison orders by u, then v.
type hashEdge struct {
	key uint64
	w   Weight
}

func cmpHashEdge(a, b hashEdge) int {
	if c := cmp.Compare(a.key, b.key); c != 0 {
		return c
	}
	return cmp.Compare(a.w, b.w)
}
