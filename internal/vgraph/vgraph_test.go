package vgraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"twoecss/internal/graph"
	"twoecss/internal/tree"
)

func buildRandom(t *testing.T, seed int64, n, extra int) (*graph.Graph, *tree.Rooted, *VGraph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := graph.GenConfig{Mode: graph.WeightUniform, MaxW: 50, Rng: rng}
	g := graph.RandomSpanningTreePlus(n, extra, cfg)
	rt, err := tree.BFSTree(g, rng.Intn(n))
	if err != nil {
		t.Fatal(err)
	}
	vg, err := BuildFromGraph(rt)
	if err != nil {
		t.Fatal(err)
	}
	return g, rt, vg
}

func TestAllVirtualEdgesAncestorDescendant(t *testing.T) {
	_, rt, vg := buildRandom(t, 1, 60, 80)
	for _, e := range vg.VEdges {
		if !rt.IsAncestor(e.Anc, e.Dec) || e.Anc == e.Dec {
			t.Fatalf("virtual edge %d: %d not a proper ancestor of %d", e.ID, e.Anc, e.Dec)
		}
	}
}

func TestVirtualCoversSameTreeEdges(t *testing.T) {
	// The union of tree edges covered by the virtual replacements of an
	// original edge equals the tree edges covered by the original edge.
	g, rt, vg := buildRandom(t, 2, 50, 70)
	for _, orig := range rt.NonTreeEdgeIDs() {
		e := g.Edges[orig]
		want := map[int]bool{}
		for c := 0; c < g.N; c++ {
			if c != rt.Root && rt.Covers(e.U, e.V, c) {
				want[c] = true
			}
		}
		got := map[int]bool{}
		for _, ve := range vg.VirtualOf(orig) {
			for _, c := range vg.CoveredTreeEdges(ve) {
				got[c] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("edge %d: covered sets differ: %v vs %v", orig, got, want)
		}
		for c := range want {
			if !got[c] {
				t.Fatalf("edge %d: missing covered tree edge %d", orig, c)
			}
		}
	}
}

func TestCoversMatchesPathMembership(t *testing.T) {
	_, rt, vg := buildRandom(t, 3, 40, 60)
	for ve := range vg.VEdges {
		onPath := map[int]bool{}
		for _, c := range vg.CoveredTreeEdges(ve) {
			onPath[c] = true
		}
		for c := 0; c < 40; c++ {
			if c == rt.Root {
				continue
			}
			if vg.Covers(ve, c) != onPath[c] {
				t.Fatalf("Covers(%d,%d) mismatch", ve, c)
			}
		}
	}
}

func TestFullyCoversOn2ECGraph(t *testing.T) {
	// On a 2-edge-connected graph, the set of ALL virtual edges covers
	// every tree edge (otherwise the uncovered tree edge is a bridge).
	rng := rand.New(rand.NewSource(7))
	cfg := graph.GenConfig{Mode: graph.WeightUniform, MaxW: 50, Rng: rng}
	g := graph.RingWithChords(40, 15, cfg)
	rt, err := tree.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	vg, err := BuildFromGraph(rt)
	if err != nil {
		t.Fatal(err)
	}
	if !vg.FullyCovers(func(int) bool { return true }) {
		t.Fatal("all-edges set fails to cover a 2EC graph's tree")
	}
	if vg.FullyCovers(func(int) bool { return false }) {
		t.Fatal("empty set covers the tree")
	}
}

func TestProjectDeduplicates(t *testing.T) {
	g, _, vg := buildRandom(t, 8, 30, 40)
	// Take every virtual edge; projection must contain each original
	// non-tree edge at most once and weight must not exceed virtual sum.
	all := make([]int, len(vg.VEdges))
	var vsum graph.Weight
	for i := range all {
		all[i] = i
		vsum += vg.VEdges[i].W
	}
	proj := vg.Project(all)
	seen := map[int]bool{}
	var psum graph.Weight
	for _, id := range proj {
		if seen[id] {
			t.Fatalf("duplicate original edge %d", id)
		}
		seen[id] = true
		psum += g.Edges[id].W
	}
	if psum > vsum {
		t.Fatalf("projection weight %d exceeds virtual weight %d", psum, vsum)
	}
}

func TestSplitCount(t *testing.T) {
	// Every original non-tree edge yields exactly 1 or 2 virtual edges.
	_, rt, vg := buildRandom(t, 9, 45, 70)
	for _, orig := range rt.NonTreeEdgeIDs() {
		k := len(vg.VirtualOf(orig))
		if k < 1 || k > 2 {
			t.Fatalf("original edge %d split into %d virtual edges", orig, k)
		}
		for _, ve := range vg.VirtualOf(orig) {
			if vg.VEdges[ve].Orig != orig {
				t.Fatalf("VirtualOf(%d) lists virtual edge %d of original edge %d", orig, ve, vg.VEdges[ve].Orig)
			}
		}
	}
	for v := 0; v < rt.G.N; v++ {
		if id := rt.ParentEdge[v]; id >= 0 && vg.VirtualOf(id) != nil {
			t.Fatalf("tree edge %d has virtual edges %v", id, vg.VirtualOf(id))
		}
	}
}

func TestVGraphQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		cfg := graph.GenConfig{Mode: graph.WeightUniform, MaxW: 20, Rng: rng}
		g := graph.RandomSpanningTreePlus(n, rng.Intn(2*n), cfg)
		rt, err := tree.BFSTree(g, 0)
		if err != nil {
			return false
		}
		vg, err := BuildFromGraph(rt)
		if err != nil {
			return false
		}
		// Each virtual edge's covered set must be non-empty and each
		// element a strict descendant of Anc.
		for ve, e := range vg.VEdges {
			cs := vg.CoveredTreeEdges(ve)
			if len(cs) == 0 {
				return false
			}
			for _, c := range cs {
				if !rt.IsAncestor(e.Anc, c) || c == e.Anc {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
