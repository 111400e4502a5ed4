package graph

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"
)

// Hash returns a canonical content digest of g: two graphs hash equal iff
// they have the same vertex count and the same multiset of weighted
// undirected edges, independent of edge insertion order and of the stored
// orientation of each edge. The service layer uses it as the
// content-addressed cache and network-pool key (DESIGN.md §7), so the
// digest must be deterministic across processes: it is a SHA-256 over a
// fixed-width little-endian encoding of (N, M, sorted normalized edges).
//
// Note the digest identifies the edge *multiset*, not the edge numbering:
// two graphs with equal hash may assign different ids to the same edge.
// Consumers keying on Hash must therefore exchange results in a
// representation-independent form (endpoint triples, not edge ids).
func (g *Graph) Hash() [32]byte {
	// Sort in two steps: a counting sort buckets the edges by their
	// smaller endpoint, then each bucket, about a degree long, is sorted
	// by (v, w). That is far fewer comparisons than one comparison sort of
	// all M edges.
	end := make([]int, g.N+1)
	for _, e := range g.Edges {
		end[min(e.U, e.V)+1]++
	}
	for u := 1; u <= g.N; u++ {
		end[u] += end[u-1]
	}
	es := make([]hashEdge, len(g.Edges))
	for _, e := range g.Edges {
		u, v := min(e.U, e.V), max(e.U, e.V)
		es[end[u]] = hashEdge{key: uint64(u)<<32 | uint64(v), w: e.W}
		end[u]++
	}
	// end[u] is now where bucket u ends.
	lo := 0
	for _, hi := range end[:g.N] {
		slices.SortFunc(es[lo:hi], cmpHashEdge)
		lo = hi
	}
	// The digest input is 16 bytes of header and 16 per edge: N and M as
	// uint64, then each edge as uint32 u, uint32 v (u <= v) and int64 w.
	buf := make([]byte, 16+16*len(es))
	binary.LittleEndian.PutUint64(buf, uint64(g.N))
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(es)))
	for i, t := range es {
		b := buf[16+16*i:]
		binary.LittleEndian.PutUint32(b, uint32(t.key>>32))
		binary.LittleEndian.PutUint32(b[4:], uint32(t.key))
		binary.LittleEndian.PutUint64(b[8:], uint64(t.w))
	}
	return sha256.Sum256(buf)
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
