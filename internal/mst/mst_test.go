package mst

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"twoecss/internal/congest"
	"twoecss/internal/graph"
)

func TestKruskalSmall(t *testing.T) {
	g := graph.New(4)
	e01 := g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 5)
	e23 := g.MustAddEdge(2, 3, 1)
	e02 := g.MustAddEdge(0, 2, 2)
	g.MustAddEdge(1, 3, 9)
	ids, err := Kruskal(g)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{e01: true, e23: true, e02: true}
	if len(ids) != 3 {
		t.Fatalf("MST size %d", len(ids))
	}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("unexpected MST edge %d", id)
		}
	}
}

func TestKruskalDisconnected(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	if _, err := Kruskal(g); err != ErrNotConnected {
		t.Fatalf("err = %v, want ErrNotConnected", err)
	}
}

func TestKruskalTreeChargesRounds(t *testing.T) {
	g := graph.RingWithChords(30, 10, graph.DefaultGenConfig(2))
	net := congest.NewNetwork(g)
	rt, err := KruskalTree(g, 0, net)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Root != 0 {
		t.Fatal("wrong root")
	}
	if net.Stats().ChargedRounds == 0 {
		t.Fatal("Kutten-Peleg bill not charged")
	}
}

func TestBoruvkaMatchesKruskal(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(50)
		cfg := graph.GenConfig{Mode: graph.WeightUniform, MaxW: 40, Rng: rng}
		g := graph.RandomSpanningTreePlus(n, rng.Intn(2*n), cfg)
		want, err := Kruskal(g)
		if err != nil {
			t.Fatal(err)
		}
		net := congest.NewNetwork(g)
		got, err := Boruvka(net, rng.Intn(n))
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: |MST| %d != %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: MST differs: %v vs %v", trial, got, want)
			}
		}
	}
}

func TestBoruvkaTiedWeights(t *testing.T) {
	// All weights equal: tie-break by edge id must keep Boruvka and
	// Kruskal identical and loop-free.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(30)
		cfg := graph.GenConfig{Mode: graph.WeightUnit, MaxW: 1, Rng: rng}
		g := graph.RandomSpanningTreePlus(n, n, cfg)
		want, err := Kruskal(g)
		if err != nil {
			t.Fatal(err)
		}
		net := congest.NewNetwork(g)
		got, err := Boruvka(net, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("tied-weight MST differs")
			}
		}
	}
}

func TestBoruvkaDisconnected(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(2, 3, 1)
	net := congest.NewNetwork(g)
	if _, err := Boruvka(net, 0); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestBoruvkaRoundsReasonable(t *testing.T) {
	g := graph.Grid(8, 8, graph.DefaultGenConfig(4))
	net := congest.NewNetwork(g)
	if _, err := Boruvka(net, 0); err != nil {
		t.Fatal(err)
	}
	// Pipelined Boruvka is O(n + D log n); allow a generous constant.
	if r := net.Stats().SimulatedRounds; r > int64(20*g.N) {
		t.Fatalf("Boruvka used %d rounds on n=%d", r, g.N)
	}
}

// Property: MST total weight equals Kruskal's on random graphs, via quick.
func TestBoruvkaWeightQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(24)
		cfg := graph.GenConfig{Mode: graph.WeightSkewed, MaxW: 1000, Rng: rng}
		g := graph.RandomSpanningTreePlus(n, rng.Intn(n), cfg)
		want, err := Kruskal(g)
		if err != nil {
			return false
		}
		net := congest.NewNetwork(g)
		got, err := Boruvka(net, 0)
		if err != nil {
			return false
		}
		return g.TotalWeight(got) == g.TotalWeight(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	if !uf.union(0, 1) || !uf.union(2, 3) {
		t.Fatal("fresh unions failed")
	}
	if uf.union(1, 0) {
		t.Fatal("repeated union succeeded")
	}
	if uf.find(0) != uf.find(1) || uf.find(0) == uf.find(2) {
		t.Fatal("find inconsistent")
	}
	uf.union(1, 3)
	if uf.find(0) != uf.find(2) {
		t.Fatal("transitive union failed")
	}
}

// TestBoruvkaWorkersAgree pins the edges and the whole cost bill of
// Borůvka on three n=200 instances. Every handler touches only its own
// vertex's state, so the congestcheck build, which runs each round's
// handlers in a permuted order, must reproduce the same pins.
func TestBoruvkaWorkersAgree(t *testing.T) {
	for _, tc := range []struct {
		family string
		want   congest.Stats
	}{
		{"er", congest.Stats{SimulatedRounds: 535, Messages: 110129, Words: 254652, MaxEdgeWords: 3}},
		{"grid", congest.Stats{SimulatedRounds: 921, Messages: 98558, Words: 245736, MaxEdgeWords: 3}},
		{"ba", congest.Stats{SimulatedRounds: 534, Messages: 94685, Words: 234384, MaxEdgeWords: 3}},
	} {
		g, err := graph.ByFamily(tc.family, 200, 5)
		if err != nil {
			t.Fatal(err)
		}
		net := congest.NewNetwork(g)
		ids, err := Boruvka(net, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.family, err)
		}
		kr, err := Kruskal(g)
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(ids)
		slices.Sort(kr)
		if !slices.Equal(ids, kr) {
			t.Fatalf("%s: Borůvka chose other edges than Kruskal", tc.family)
		}
		if st := net.Stats(); st != tc.want {
			t.Errorf("%s: stats %#v, want %#v", tc.family, st, tc.want)
		}
	}
}
