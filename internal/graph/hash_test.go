package graph

import (
	"encoding/hex"
	"testing"
)

func TestHashIgnoresInsertionOrderAndOrientation(t *testing.T) {
	a := New(5)
	a.MustAddEdge(0, 1, 7)
	a.MustAddEdge(1, 2, 3)
	a.MustAddEdge(2, 3, 3)
	a.MustAddEdge(3, 4, 9)
	a.MustAddEdge(4, 0, 1)

	b := New(5)
	b.MustAddEdge(3, 2, 3) // flipped orientation
	b.MustAddEdge(0, 4, 1)
	b.MustAddEdge(1, 0, 7)
	b.MustAddEdge(4, 3, 9)
	b.MustAddEdge(2, 1, 3)

	if a.Hash() != b.Hash() {
		t.Fatal("hash differs across insertion order / orientation of the same edge multiset")
	}
}

func TestHashDistinguishesContent(t *testing.T) {
	base := New(4)
	base.MustAddEdge(0, 1, 1)
	base.MustAddEdge(1, 2, 1)
	base.MustAddEdge(2, 0, 1)

	weight := base.Clone()
	weight.Edges[1].W = 2
	if base.Hash() == weight.Hash() {
		t.Fatal("hash ignores edge weights")
	}

	extra := base.Clone()
	extra.MustAddEdge(2, 3, 1)
	if base.Hash() == extra.Hash() {
		t.Fatal("hash ignores an added edge")
	}

	// Parallel edges change the multiset even with identical triples.
	dup := base.Clone()
	dup.MustAddEdge(0, 1, 1)
	if base.Hash() == dup.Hash() {
		t.Fatal("hash ignores edge multiplicity")
	}

	bigger := New(5)
	bigger.MustAddEdge(0, 1, 1)
	bigger.MustAddEdge(1, 2, 1)
	bigger.MustAddEdge(2, 0, 1)
	if base.Hash() == bigger.Hash() {
		t.Fatal("hash ignores vertex count")
	}
}

func TestHashStableAcrossCalls(t *testing.T) {
	g, err := ByFamily("er", 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	if g.Hash() != g.Hash() {
		t.Fatal("hash not deterministic on one graph")
	}
	h, err := ByFamily("er", 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	if g.Hash() != h.Hash() {
		t.Fatal("same (family, n, seed) generated different graphs")
	}
}

// hashGolden pins Hash's digest of ByFamily(f, 256, 7). Store entries on
// disk, the service's cache keys and the router's ring placement are all
// this digest, so any change to it orphans every stored result: a rewrite
// of Hash must leave these bytes exactly as they are.
var hashGolden = map[string]string{
	"er":     "25014f46bc08f30e577435a67b9b8f00bfe95f0c26955cb4e45a82161dcf8888",
	"grid":   "89771b049b3817d7170b51061de93705578b8dd522098433bb3bd04a87c7be37",
	"ring":   "15a8337c0dc0f5ce09aa8525e1cccf6e6e9fe2ce46f76d3eecc02378e4672cd9",
	"random": "4ae87e780a67f642f840629ad5347da2248c9e8ba363c477eb43539e2fe6760a",
	"ba":     "a4c74e35091181b2491fbe45cea0bc288635143440ea945f33058b88b4e743cb",
}

func TestHashGolden(t *testing.T) {
	for _, f := range []string{"er", "grid", "ring", "random", "ba"} {
		g, err := ByFamily(f, 256, 7)
		if err != nil {
			t.Fatal(err)
		}
		h := g.Hash()
		if got := hex.EncodeToString(h[:]); got != hashGolden[f] {
			t.Errorf("%s: Hash = %s, want %s", f, got, hashGolden[f])
		}
		// The same multiset, inserted in reverse with every edge flipped.
		r := New(g.N)
		for i := len(g.Edges) - 1; i >= 0; i-- {
			e := g.Edges[i]
			r.MustAddEdge(e.V, e.U, e.W)
		}
		if r.Hash() != h {
			t.Errorf("%s: reversed and flipped copy hashes differently", f)
		}
	}
}

// TestHashGoldenSignedParallel pins the digest's order on what the
// families never produce: parallel edges, negative weights and weights
// past 32 bits. Equal endpoints sort by signed weight.
func TestHashGoldenSignedParallel(t *testing.T) {
	g := New(5)
	g.MustAddEdge(3, 1, -4)
	g.MustAddEdge(1, 3, 9)
	g.MustAddEdge(1, 3, -4)
	g.MustAddEdge(0, 4, 1<<40)
	g.MustAddEdge(4, 2, 0)
	g.MustAddEdge(2, 0, -1<<50)
	h := g.Hash()
	const want = "50adeb5b48e9e80945185ebd0e70270f3f5504a1ed52a19d0737898264033851"
	if got := hex.EncodeToString(h[:]); got != want {
		t.Fatalf("Hash = %s, want %s", got, want)
	}
}

// TestHashEdgesGolden pins HashEdges, the digest the service and router
// compute from a request's wire edges, to the digests Hash gives: the
// families' and the signed, parallel instance's. A store written through
// either path is keyed by the same bytes.
func TestHashEdgesGolden(t *testing.T) {
	triples := func(g *Graph) [][3]int64 {
		out := make([][3]int64, len(g.Edges))
		for i, e := range g.Edges {
			out[i] = [3]int64{int64(e.U), int64(e.V), e.W}
		}
		return out
	}
	for _, f := range []string{"er", "grid", "ring", "random", "ba"} {
		g, err := ByFamily(f, 256, 7)
		if err != nil {
			t.Fatal(err)
		}
		h, err := HashEdges(g.N, triples(g))
		if got := hex.EncodeToString(h[:]); err != nil || got != hashGolden[f] {
			t.Errorf("%s: HashEdges = %s, %v; want %s", f, got, err, hashGolden[f])
		}
	}
	h, err := HashEdges(5, [][3]int64{{3, 1, -4}, {1, 3, 9}, {1, 3, -4}, {0, 4, 1 << 40}, {4, 2, 0}, {2, 0, -1 << 50}})
	const want = "50adeb5b48e9e80945185ebd0e70270f3f5504a1ed52a19d0737898264033851"
	if got := hex.EncodeToString(h[:]); err != nil || got != want {
		t.Fatalf("HashEdges = %s, %v; want %s", got, err, want)
	}
	for _, tc := range []struct {
		edges [][3]int64
		want  string
	}{
		{[][3]int64{{0, 1, 1}, {2, 2, 1}}, "edge 1: graph: self-loop at vertex 2"},
		{[][3]int64{{0, 5, 1}}, "edge 0: graph: edge {0,5} out of range [0,5)"},
		{[][3]int64{{-1, 0, 1}}, "edge 0: graph: edge {-1,0} out of range [0,5)"},
	} {
		if _, err := HashEdges(5, tc.edges); err == nil || err.Error() != tc.want {
			t.Errorf("%v: error %v, want %q", tc.edges, err, tc.want)
		}
	}
}
