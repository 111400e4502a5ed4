package primitives

import (
	"math/rand"
	"testing"

	"twoecss/internal/congest"
	"twoecss/internal/graph"
	"twoecss/internal/tree"
)

func testNet(t *testing.T, seed int64, n int) (*congest.Network, *tree.Rooted) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := graph.GenConfig{Mode: graph.WeightUniform, MaxW: 100, Rng: rng}
	g := graph.RandomSpanningTreePlus(n, n/2, cfg)
	net := congest.NewNetwork(g)
	rt, err := BuildBFS(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	return net, rt
}

func TestBuildBFSMatchesCentral(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(50)
		cfg := graph.GenConfig{Mode: graph.WeightUniform, MaxW: 10, Rng: rng}
		g := graph.RandomSpanningTreePlus(n, rng.Intn(n), cfg)
		net := congest.NewNetwork(g)
		root := rng.Intn(n)
		rt, err := BuildBFS(net, root)
		if err != nil {
			t.Fatal(err)
		}
		_, dist := g.BFS(root)
		for v := 0; v < n; v++ {
			if rt.Depth[v] != dist[v] {
				t.Fatalf("BFS depth[%d]=%d, want %d", v, rt.Depth[v], dist[v])
			}
		}
		// Round bill must be about the eccentricity, certainly <= n+3.
		if net.Stats().SimulatedRounds > int64(n+3) {
			t.Fatalf("BFS used %d rounds on n=%d", net.Stats().SimulatedRounds, n)
		}
	}
}

func TestBuildBFSBadRoot(t *testing.T) {
	g := graph.Grid(2, 2, graph.DefaultGenConfig(1))
	net := congest.NewNetwork(g)
	if _, err := BuildBFS(net, 99); err == nil {
		t.Fatal("bad root accepted")
	}
}

func TestGatherCollectsEverything(t *testing.T) {
	net, rt := testNet(t, 5, 40)
	perNode := make([][]Item, 40)
	want := map[congest.Word]bool{}
	for v := 0; v < 40; v++ {
		if v%3 == 0 {
			perNode[v] = []Item{{congest.Word(v), congest.Word(v * 10)}}
			want[congest.Word(v)] = true
		}
	}
	got, err := Gather(net, rt, new(Scratch), perNode)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("gathered %d items, want %d", len(got), len(want))
	}
	for _, it := range got {
		if !want[it[0]] || it[1] != it[0]*10 {
			t.Fatalf("bad item %v", it)
		}
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	net, rt := testNet(t, 6, 35)
	items := []Item{{1, 2}, {3, 4}, {5, 6}}
	recv, err := Broadcast(net, rt, new(Scratch), items)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 35; v++ {
		if len(recv[v]) != len(items) {
			t.Fatalf("vertex %d received %d items", v, len(recv[v]))
		}
		for i, it := range recv[v] {
			if it[0] != items[i][0] || it[1] != items[i][1] {
				t.Fatalf("vertex %d item %d = %v", v, i, it)
			}
		}
	}
}

func TestBroadcastPipelines(t *testing.T) {
	// A path of n vertices with k items must take ~n+k rounds, not n*k.
	n, k := 60, 30
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	net := congest.NewNetwork(g)
	rt, err := BuildBFS(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := net.Stats().SimulatedRounds
	items := make([]Item, k)
	for i := range items {
		items[i] = Item{congest.Word(i)}
	}
	if _, err := Broadcast(net, rt, new(Scratch), items); err != nil {
		t.Fatal(err)
	}
	rounds := net.Stats().SimulatedRounds - base
	if rounds > int64(n+2*k+8) {
		t.Fatalf("broadcast of %d items on path %d took %d rounds (not pipelined)", k, n, rounds)
	}
}

func TestGatherBroadcast(t *testing.T) {
	net, rt := testNet(t, 7, 30)
	perNode := make([][]Item, 30)
	perNode[3] = []Item{{42}}
	perNode[17] = []Item{{99}}
	all, err := GatherBroadcast(net, rt, new(Scratch), perNode)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 30; v++ {
		if len(all[v]) != 2 {
			t.Fatalf("vertex %d has %d items", v, len(all[v]))
		}
		seen := map[congest.Word]bool{all[v][0][0]: true, all[v][1][0]: true}
		if !seen[42] || !seen[99] {
			t.Fatalf("vertex %d items wrong: %v", v, all[v])
		}
	}
}

func TestSubtreeAggregateSum(t *testing.T) {
	net, rt := testNet(t, 8, 45)
	x := make([]congest.Word, 45)
	for v := range x {
		x[v] = congest.Word(v + 1)
	}
	sum := func(a, b congest.Word) congest.Word { return a + b }
	got, err := SubtreeAggregate(net, rt, new(Scratch), x, sum)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: iterate in reverse preorder.
	want := append([]congest.Word(nil), x...)
	for i := len(rt.Order) - 1; i >= 1; i-- {
		v := rt.Order[i]
		want[rt.Parent[v]] += want[v]
	}
	for v := 0; v < 45; v++ {
		if got[v] != want[v] {
			t.Fatalf("subtree sum at %d = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestGlobalAggregateMax(t *testing.T) {
	net, rt := testNet(t, 10, 25)
	x := make([]congest.Word, 25)
	for v := range x {
		x[v] = congest.Word(v * v % 97)
	}
	max := func(a, b congest.Word) congest.Word {
		if a > b {
			return a
		}
		return b
	}
	got, err := GlobalAggregate(net, rt, new(Scratch), x, max)
	if err != nil {
		t.Fatal(err)
	}
	var want congest.Word
	for _, v := range x {
		if v > want {
			want = v
		}
	}
	if got != want {
		t.Fatalf("global max = %d, want %d", got, want)
	}
}

func TestGatherLengthValidation(t *testing.T) {
	net, rt := testNet(t, 11, 10)
	if _, err := Gather(net, rt, new(Scratch), make([][]Item, 3)); err == nil {
		t.Fatal("short perNode accepted")
	}
	if _, err := SubtreeAggregate(net, rt, new(Scratch), make([]congest.Word, 3), func(a, b congest.Word) congest.Word { return a + b }); err == nil {
		t.Fatal("short input accepted")
	}
}

func TestBandwidthCompliance(t *testing.T) {
	net, rt := testNet(t, 12, 40)
	perNode := make([][]Item, 40)
	for v := range perNode {
		perNode[v] = []Item{{congest.Word(v), 1, 2, 3}}
	}
	if _, err := GatherBroadcast(net, rt, new(Scratch), perNode); err != nil {
		t.Fatal(err)
	}
	if net.Stats().MaxEdgeWords > net.WordsPerEdge {
		t.Fatalf("bandwidth violated: %d > %d", net.Stats().MaxEdgeWords, net.WordsPerEdge)
	}
}
