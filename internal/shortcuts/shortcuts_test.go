package shortcuts

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"twoecss/internal/congest"
	"twoecss/internal/graph"
	"twoecss/internal/primitives"
	"twoecss/internal/tree"
)

func fixtureNet(t *testing.T, g *graph.Graph) (*congest.Network, *tree.Rooted) {
	t.Helper()
	net := congest.NewNetwork(g)
	bfs, err := primitives.BuildBFS(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	return net, bfs
}

// randomConnectedPartition grows parts from random seeds.
func randomConnectedPartition(g *graph.Graph, rng *rand.Rand, parts int) []int {
	of := make([]int, g.N)
	for v := range of {
		of[v] = -1
	}
	var frontier []int
	for p := 0; p < parts && p < g.N; p++ {
		for {
			v := rng.Intn(g.N)
			if of[v] < 0 {
				of[v] = p
				frontier = append(frontier, v)
				break
			}
		}
	}
	for len(frontier) > 0 {
		i := rng.Intn(len(frontier))
		v := frontier[i]
		grew := false
		for _, id := range g.Incident(v) {
			u := g.Edges[id].Other(v)
			if of[u] < 0 {
				of[u] = of[v]
				frontier = append(frontier, u)
				grew = true
				break
			}
		}
		if !grew {
			frontier[i] = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
		}
	}
	return of
}

func TestPartitionValidation(t *testing.T) {
	g := graph.Grid(4, 4, graph.DefaultGenConfig(1))
	of := make([]int, g.N)
	of[0], of[15] = 1, 1 // corners: disconnected part
	for v := 1; v < 15; v++ {
		of[v] = 0
	}
	if _, err := NewPartition(g, of); err == nil {
		t.Fatal("disconnected part accepted")
	}
	if _, err := NewPartition(g, []int{0}); err == nil {
		t.Fatal("short assignment accepted")
	}
}

func TestBuildersQualityAndAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"grid", graph.Grid(6, 6, graph.DefaultGenConfig(2))},
		{"treeleafcycle", graph.TreeLeafCycle(5, graph.DefaultGenConfig(3))},
		{"er", graph.ErdosRenyi(48, 0.12, graph.DefaultGenConfig(4))},
	}
	for _, tg := range graphs {
		for trial := 0; trial < 3; trial++ {
			of := randomConnectedPartition(tg.g, rng, 2+rng.Intn(6))
			part, err := NewPartition(tg.g, of)
			if err != nil {
				t.Fatal(err)
			}
			net, bfs := fixtureNet(t, tg.g)
			builders := []Builder{
				&TrivialBuilder{G: tg.g},
				&GlobalBFSBuilder{G: tg.g, BFS: bfs},
				&SteinerBuilder{G: tg.g, BFS: bfs},
			}
			for _, b := range builders {
				sc, err := b.Build(part)
				if err != nil {
					t.Fatalf("%s/%s: %v", tg.name, b.Name(), err)
				}
				if sc.Alpha < 1 || sc.Beta < 1 {
					t.Fatalf("%s/%s: degenerate quality %d/%d", tg.name, b.Name(), sc.Alpha, sc.Beta)
				}
				// Aggregate: per-part max of vertex ids must equal the
				// true per-part max for every member.
				x := make([]Word, tg.g.N)
				for v := range x {
					x[v] = Word(v)
				}
				max := func(a, b Word) Word {
					if a > b {
						return a
					}
					return b
				}
				got, err := PartwiseAggregate(net, part, sc, x, max)
				if err != nil {
					t.Fatalf("%s/%s: %v", tg.name, b.Name(), err)
				}
				want := map[int]Word{}
				for v, p := range of {
					if Word(v) > want[p] {
						want[p] = Word(v)
					}
				}
				for v, p := range of {
					if got[v] != want[p] {
						t.Fatalf("%s/%s: vertex %d got %d want %d", tg.name, b.Name(), v, got[v], want[p])
					}
				}
			}
		}
	}
}

func TestGlobalBFSWorstCaseBound(t *testing.T) {
	// alpha+beta must be O(D + sqrt n) on any partition.
	g := graph.ErdosRenyi(100, 0.08, graph.DefaultGenConfig(7))
	rng := rand.New(rand.NewSource(8))
	_, bfs := fixtureNet(t, g)
	b := &GlobalBFSBuilder{G: g, BFS: bfs}
	diam, err := g.DiameterApprox()
	if err != nil {
		t.Fatal(err)
	}
	bound := 8 * (diam + int(math.Sqrt(100)) + 2)
	for trial := 0; trial < 5; trial++ {
		of := randomConnectedPartition(g, rng, 1+rng.Intn(20))
		part, err := NewPartition(g, of)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := b.Build(part)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Quality() > bound {
			t.Fatalf("global-bfs quality %d exceeds O(D+sqrt n) bound %d", sc.Quality(), bound)
		}
	}
}

func TestHierarchyStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(300)
		cfg := graph.GenConfig{Mode: graph.WeightUnit, MaxW: 1, Rng: rng}
		g := graph.RandomSpanningTreePlus(n, 0, cfg)
		rt, err := tree.BFSTree(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		h, err := BuildHierarchy(rt)
		if err != nil {
			t.Fatal(err)
		}
		lg := 1
		for 1<<lg < n {
			lg++
		}
		if h.Depth() > 2*lg+3 {
			t.Fatalf("n=%d: hierarchy depth %d not O(log n)", n, h.Depth())
		}
		// Levels must coarsen: same level-i fragment implies same
		// level-(i+1) fragment.
		for li := 0; li+1 < h.Depth(); li++ {
			fmap := map[int]int{}
			for v := 0; v < n; v++ {
				f := h.Levels[li][v]
				nf := h.Levels[li+1][v]
				if prev, ok := fmap[f]; ok && prev != nf {
					t.Fatalf("level %d fragment %d splits at level %d", li, f, li+1)
				}
				fmap[f] = nf
			}
		}
		// Top level is a single fragment.
		top := h.Levels[h.Depth()-1]
		for v := 1; v < n; v++ {
			if top[v] != top[0] {
				t.Fatal("top level not a single fragment")
			}
		}
		// Every level's fragments are connected in the tree.
		for _, lv := range h.Levels {
			if _, err := NewPartition(g, lv); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func toolsFixture(t *testing.T, seed int64, n, extra int) (*Tools, *tree.Rooted) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := graph.GenConfig{Mode: graph.WeightUniform, MaxW: 40, Rng: rng}
	g := graph.RandomSpanningTreePlus(n, extra, cfg)
	net, bfs := fixtureNet(t, g)
	rt, err := tree.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := NewTools(net, rt, &SteinerBuilder{G: g, BFS: bfs})
	if err != nil {
		t.Fatal(err)
	}
	return tl, rt
}

func TestDescendantsAndAncestorsSum(t *testing.T) {
	tl, rt := toolsFixture(t, 10, 60, 40)
	n := rt.G.N
	x := make([]Word, n)
	for v := range x {
		x[v] = Word(v + 3)
	}
	sum := func(a, b Word) Word { return a + b }
	ds, err := tl.DescendantsSum(x, sum)
	if err != nil {
		t.Fatal(err)
	}
	as, err := tl.AncestorsSum(x, sum)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		var wantD, wantA Word
		for u := 0; u < n; u++ {
			if rt.IsAncestor(v, u) {
				wantD += x[u]
			}
			if rt.IsAncestor(u, v) {
				wantA += x[u]
			}
		}
		if ds[v] != wantD {
			t.Fatalf("descendants sum at %d: %d want %d", v, ds[v], wantD)
		}
		if as[v] != wantA {
			t.Fatalf("ancestors sum at %d: %d want %d", v, as[v], wantA)
		}
	}
	if tl.Net.Stats().SimulatedRounds == 0 {
		t.Fatal("tools billed no simulated rounds")
	}
}

func TestCoveredDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tl, rt := toolsFixture(t, 11, 50, 60)
	nonTree := rt.NonTreeEdgeIDs()
	var s []int
	for _, id := range nonTree {
		if rng.Intn(2) == 0 {
			s = append(s, id)
		}
	}
	got, err := tl.CoveredDetection(s, rng)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < rt.G.N; c++ {
		if c == rt.Root {
			continue
		}
		want := false
		for _, id := range s {
			e := rt.G.Edges[id]
			if rt.Covers(e.U, e.V, c) {
				want = true
				break
			}
		}
		if got[c] != want {
			t.Fatalf("covered detection at %d: got %v want %v", c, got[c], want)
		}
	}
}

// twinSource is a rand.Source whose first two draws are equal; later
// draws follow a splitmix64 stream.
type twinSource struct {
	draws int
	state uint64
}

func (s *twinSource) Seed(int64) {}

func (s *twinSource) Int63() int64 {
	s.draws++
	if s.draws != 2 {
		s.state += 0x9e3779b97f4a7c15
	}
	z := s.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// TestCoveredDetectionDeterministic gives two edges of S the same
// fingerprint, so a tree edge that only they cross reads uncovered; which
// tree edge that is depends on which edges draw the twins. On a sparse
// fixture, with S every non-tree edge (as the set-cover solver passes
// it), one rng stream must still give one answer on every call.
func TestCoveredDetectionDeterministic(t *testing.T) {
	tl, rt := toolsFixture(t, 11, 30, 4)
	s := rt.NonTreeEdgeIDs()
	first, err := tl.CoveredDetection(s, rand.New(&twinSource{}))
	if err != nil {
		t.Fatal(err)
	}
	for call := 1; call < 30; call++ {
		got, err := tl.CoveredDetection(s, rand.New(&twinSource{}))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, first) {
			t.Fatalf("call %d: detection %v, first call %v", call, got, first)
		}
	}
}

func TestCoverCount(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tl, rt := toolsFixture(t, 12, 45, 50)
	marked := make([]bool, rt.G.N)
	// Two calls: the second reads the LCAs the first one computed.
	for call := 0; call < 2; call++ {
		for v := 0; v < rt.G.N; v++ {
			marked[v] = v != rt.Root && rng.Intn(2) == 0
		}
		got, err := tl.CoverCount(marked)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range rt.NonTreeEdgeIDs() {
			e := rt.G.Edges[id]
			want := 0
			for c := 0; c < rt.G.N; c++ {
				if c != rt.Root && marked[c] && rt.Covers(e.U, e.V, c) {
					want++
				}
			}
			if got[id] != want {
				t.Fatalf("call %d: cover count of edge %d: got %d want %d", call, id, got[id], want)
			}
		}
	}
}

// TestToolsRebillMatchesSimulation checks that tool calls bill what full
// simulations cost: k CoverCount and CoveredDetection calls with
// different inputs, which simulate each level's aggregation once and
// rebill it afterwards, leave the ledger equal to k passes of gamma
// charges and simulations of every level on a twin network, run with
// other payloads.
func TestToolsRebillMatchesSimulation(t *testing.T) {
	fixtures := []struct {
		fam     string
		n       int
		builder string
	}{
		{aggBenchFixtures[0].fam, 127, aggBenchFixtures[0].builder},
		{aggBenchFixtures[1].fam, 127, aggBenchFixtures[1].builder},
		{"er", 256, "steiner"},
		{"grid", 256, "steiner"},
		{"ring", 256, "steiner"},
	}
	const k = 6
	or := func(a, b Word) Word { return a | b }
	for _, fx := range fixtures {
		name := fmt.Sprintf("%s/%s/n=%d", fx.fam, fx.builder, fx.n)
		tl := e4Tools(t, fx.fam, fx.n, fx.builder)
		g := tl.T.G
		rng := rand.New(rand.NewSource(int64(fx.n)))
		tl.Net.ResetAccounting()
		nonTree := tl.T.NonTreeEdgeIDs()
		marked := make([]bool, g.N)
		for call := range k {
			if call%2 == 0 {
				for v := range marked {
					marked[v] = rng.Intn(2) == 0
				}
				if _, err := tl.CoverCount(marked); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				continue
			}
			var s []int
			for _, id := range nonTree {
				if rng.Intn(2) == 0 {
					s = append(s, id)
				}
			}
			if _, err := tl.CoveredDetection(s, rng); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}

		twin := congest.NewNetwork(g)
		x := make([]Word, g.N)
		for range k {
			for v := range x {
				x[v] = Word(rng.Int63())
			}
			for _, ls := range tl.levels {
				if err := twin.Charge(ls.sc.BuildRounds, "gamma"); err != nil {
					t.Fatal(err)
				}
				if err := ls.plan.simulate(twin, x, or); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		if got, want := tl.Net.Stats(), twin.Stats(); got != want || want.Messages == 0 {
			t.Errorf("%s: %d tool calls billed %+v, %d simulations cost %+v", name, k, got, k, want)
		}
	}
}

func TestHeavyLightLabels(t *testing.T) {
	tl, rt := toolsFixture(t, 13, 40, 30)
	lb, err := tl.HeavyLightLabels()
	if err != nil {
		t.Fatal(err)
	}
	if lb == nil || len(lb.Labels) != rt.G.N {
		t.Fatal("bad labeling")
	}
}
