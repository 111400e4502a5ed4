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

// TestBoruvkaWorkersAgree runs Borůvka sequentially and on a four-worker
// pool: every handler touches only its own vertex's state, so the edges
// and the whole cost bill must match. The instances are large enough
// (n >= 64 scheduled vertices) for the engine's parallel rounds to run.
func TestBoruvkaWorkersAgree(t *testing.T) {
	for _, f := range []string{"er", "grid", "ba"} {
		g, err := graph.ByFamily(f, 200, 5)
		if err != nil {
			t.Fatal(err)
		}
		run := func(workers int) ([]int, congest.Stats) {
			net := congest.NewNetwork(g)
			net.Workers = workers
			defer net.Close()
			ids, err := Boruvka(net, 0)
			if err != nil {
				t.Fatalf("%s, %d workers: %v", f, workers, err)
			}
			return ids, net.Stats()
		}
		seqIDs, seqStats := run(1)
		parIDs, parStats := run(4)
		if !slices.Equal(seqIDs, parIDs) {
			t.Fatalf("%s: 4 workers chose different edges than 1", f)
		}
		if seqStats != parStats {
			t.Fatalf("%s: stats with 4 workers %+v, with 1 %+v", f, parStats, seqStats)
		}
	}
}
