package segments

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"twoecss/internal/congest"
	"twoecss/internal/graph"
	"twoecss/internal/mst"
	"twoecss/internal/primitives"
	"twoecss/internal/tree"
	"twoecss/internal/vgraph"
)

func randRooted(rng *rand.Rand, n, extra int) (*graph.Graph, *tree.Rooted) {
	cfg := graph.GenConfig{Mode: graph.WeightUniform, MaxW: 30, Rng: rng}
	g := graph.RandomSpanningTreePlus(n, extra, cfg)
	rt, err := tree.BFSTree(g, rng.Intn(n))
	if err != nil {
		panic(err)
	}
	return g, rt
}

func TestBuildValidateFamilies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", pathGraph(100)},
		{"star", starGraph(100)},
		{"grid", graph.Grid(10, 13, graph.DefaultGenConfig(3))},
		{"caterpillar", graph.Caterpillar(20, 4, graph.DefaultGenConfig(4))},
		{"binarytree", graph.TreeLeafCycle(6, graph.DefaultGenConfig(5))},
		{"tiny", pathGraph(2)},
		{"single", graph.New(1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := tree.BFSTree(tc.g, 0)
			if err != nil {
				t.Fatal(err)
			}
			d, err := Build(rt)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	_ = rng
}

func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	return g
}

func starGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, v, 1)
	}
	return g
}

func TestBuildValidateRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		_, rt := randRooted(rng, maxInt(n, 1), 0)
		d, err := Build(rt)
		if err != nil {
			t.Fatalf("trial %d n=%d: %v", trial, n, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("trial %d n=%d: %v", trial, n, err)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestSegmentCountScaling(t *testing.T) {
	// On a path of n vertices the decomposition must produce Theta(sqrt n)
	// segments.
	for _, n := range []int{64, 256, 1024} {
		rt, err := tree.BFSTree(pathGraph(n), 0)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Build(rt)
		if err != nil {
			t.Fatal(err)
		}
		s := int(math.Ceil(math.Sqrt(float64(n))))
		if len(d.Segs) < s/2 || len(d.Segs) > 2*s+2 {
			t.Fatalf("n=%d: %d segments, want about %d", n, len(d.Segs), s)
		}
	}
}

func TestSkeletonParentAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, rt := randRooted(rng, 200, 0)
	d, err := Build(rt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Segs {
		steps := 0
		for p := d.SkeletonParent[i]; p >= 0; p = d.SkeletonParent[p] {
			steps++
			if steps > len(d.Segs) {
				t.Fatalf("skeleton parent cycle at segment %d", i)
			}
		}
	}
	// Parent's Desc must equal child's Root.
	for i := range d.Segs {
		p := d.SkeletonParent[i]
		if p < 0 {
			continue
		}
		if d.Segs[p].Desc != d.Segs[i].Root && !contains(d.Segs[p].Highway, d.Segs[i].Root) {
			t.Fatalf("segment %d root %d not on parent %d highway", i, d.Segs[i].Root, p)
		}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func buildAggregator(t *testing.T, seed int64, n, extra int) (*Aggregator, *vgraph.VGraph, *tree.Rooted) {
	t.Helper()
	_, rt := randRooted(rand.New(rand.NewSource(seed)), n, extra)
	a := aggregatorOn(t, rt)
	return a, a.VG, rt
}

func TestPerVEdgeSum(t *testing.T) {
	a, vg, rt := buildAggregator(t, 11, 80, 100)
	value := func(c int) congest.Word { return congest.Word(2*c + 1) }
	sum := func(x, y congest.Word) congest.Word { return x + y }
	got, err := a.PerVEdge(value, sum, 0)
	if err != nil {
		t.Fatal(err)
	}
	for ve := range vg.VEdges {
		var want congest.Word
		for c := 0; c < rt.G.N; c++ {
			if c != rt.Root && vg.Covers(ve, c) {
				want += value(c)
			}
		}
		if got[ve] != want {
			t.Fatalf("PerVEdge[%d] = %d, want %d", ve, got[ve], want)
		}
	}
	if a.Net.Stats().ChargedRounds == 0 || a.Net.Stats().SimulatedRounds == 0 {
		t.Fatal("aggregate call must bill both charged and simulated rounds")
	}
}

func TestPerTreeEdgeMin(t *testing.T) {
	a, vg, rt := buildAggregator(t, 12, 70, 90)
	const inf = int64(1) << 60
	contribute := func(ve int) (congest.Word, bool) {
		if ve%3 == 0 {
			return 0, false // a third of the edges sit out
		}
		return congest.Word(vg.VEdges[ve].W), true
	}
	min := func(x, y congest.Word) congest.Word {
		if x < y {
			return x
		}
		return y
	}
	got, err := a.PerTreeEdge(contribute, min, inf)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < rt.G.N; c++ {
		if c == rt.Root {
			continue
		}
		want := congest.Word(inf)
		for ve := range vg.VEdges {
			if w, ok := contribute(ve); ok && vg.Covers(ve, c) && w < want {
				want = w
			}
		}
		if got[c] != want {
			t.Fatalf("PerTreeEdge[%d] = %d, want %d", c, got[c], want)
		}
	}
}

// aggregatorOn builds an Aggregator for spanning tree rt of its graph.
func aggregatorOn(t testing.TB, rt *tree.Rooted) *Aggregator {
	t.Helper()
	vg, err := vgraph.BuildFromGraph(rt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Build(rt)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	net := congest.NewNetwork(rt.G)
	bfs, err := primitives.BuildBFS(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	return NewAggregator(net, bfs, d, vg)
}

// randomSpanningTree roots a Kruskal tree of g over a shuffled edge order:
// a random spanning tree, in general neither g's BFS tree nor its MST.
func randomSpanningTree(t *testing.T, rng *rand.Rand, g *graph.Graph) *tree.Rooted {
	t.Helper()
	comp := make([]int, g.N)
	for v := range comp {
		comp[v] = v
	}
	var find func(int) int
	find = func(v int) int {
		if comp[v] != v {
			comp[v] = find(comp[v])
		}
		return comp[v]
	}
	var ids []int
	for _, id := range rng.Perm(g.M()) {
		e := g.Edges[id]
		if ru, rv := find(e.U), find(e.V); ru != rv {
			comp[ru] = rv
			ids = append(ids, id)
		}
	}
	rt, err := tree.NewFromEdgeSet(g, rng.Intn(g.N), ids)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// denseMultigraphTree roots a deep random tree on n vertices whose graph
// also holds 6n non-tree edge pairs, each added one to three times: every
// vertex simulates many virtual edges, several of them with one Anc.
func denseMultigraphTree(t *testing.T, rng *rand.Rand, n int) *tree.Rooted {
	t.Helper()
	g := graph.New(n)
	ids := make([]int, 0, n-1)
	for v := 1; v < n; v++ {
		p := v - 1
		if rng.Intn(4) == 0 {
			p = rng.Intn(v)
		}
		ids = append(ids, g.MustAddEdge(v, p, graph.Weight(1+rng.Intn(30))))
	}
	for k := 0; k < 6*n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		for c := 1 + rng.Intn(3); c > 0; c-- {
			g.MustAddEdge(u, v, graph.Weight(1+rng.Intn(30)))
		}
	}
	rt, err := tree.NewFromEdgeSet(g, rng.Intn(n), ids)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture must have the shape it is for.
	vg, err := vgraph.BuildFromGraph(rt)
	if err != nil {
		t.Fatal(err)
	}
	perDec := make([]int, n)
	pairs := make(map[[2]int]int)
	shared := 0
	for _, e := range vg.VEdges {
		perDec[e.Dec]++
		if pairs[[2]int{e.Dec, e.Anc}]++; pairs[[2]int{e.Dec, e.Anc}] == 2 {
			shared++
		}
	}
	if slices.Max(perDec) < 8 || shared < n/4 {
		t.Fatalf("dense fixture: at most %d virtual edges per Dec, %d (Dec, Anc) pairs shared", slices.Max(perDec), shared)
	}
	return rt
}

// TestAggregatorPathWalksMatchCoverSets checks the aggregates, which walk
// cover paths instead of storing them, against folds over the reference
// cover sets vgraph.CoveredTreeEdges, bit for bit and in the documented
// fold order, on random BFS trees, path trees, random non-MST spanning
// trees and dense multigraphs, where PerVEdge's one walk per vertex
// serves many virtual edges, several ending at one Anc.
func TestAggregatorPathWalksMatchCoverSets(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var trees []*tree.Rooted
	for trial := 0; trial < 6; trial++ {
		n := 2 + rng.Intn(150)
		_, rt := randRooted(rng, n, rng.Intn(2*n))
		trees = append(trees, rt)

		cfg := graph.GenConfig{Mode: graph.WeightUniform, MaxW: 30, Rng: rng}
		pg := graph.PathWithIntervals(n+2, n, cfg)
		pathEdges := make([]int, pg.N-1) // PathWithIntervals adds the path first
		for i := range pathEdges {
			pathEdges[i] = i
		}
		pt, err := tree.NewFromEdgeSet(pg, rng.Intn(pg.N), pathEdges)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, pt)

		rg := graph.RandomSpanningTreePlus(n+1, 2*n, cfg)
		trees = append(trees, randomSpanningTree(t, rng, rg))

		trees = append(trees, denseMultigraphTree(t, rng, 20+rng.Intn(60)))
	}
	// A non-associative, non-commutative op: any reordering shows.
	mix := func(x, y congest.Word) congest.Word { return 31*x + y }
	for i, rt := range trees {
		a := aggregatorOn(t, rt)
		vg, d := a.VG, a.D
		n, nv := rt.G.N, len(vg.VEdges)
		// Reference cover lists: per virtual edge bottom-up, per tree edge
		// ascending by virtual edge id.
		covering := make([][]int, n)
		for ve := 0; ve < nv; ve++ {
			path := vg.CoveredTreeEdges(ve)
			var segs []int32
			for _, c := range path {
				covering[c] = append(covering[c], ve)
				if sid := int32(d.SegOfEdge[c]); !slices.Contains(segs, sid) {
					segs = append(segs, sid)
				}
			}
			if got := a.segOf[a.segOff[ve]:a.segOff[ve+1]]; !slices.Equal(got, segs) {
				t.Fatalf("tree %d vedge %d: segment hops %v, edge by edge %v", i, ve, got, segs)
			}
		}
		// Two calls each, so reused scratch is exercised.
		for call := 0; call < 2; call++ {
			vals := make([]float64, n)
			for c := range vals {
				vals[c] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
			}
			got, err := a.PerVEdge(func(c int) congest.Word {
				return congest.Word(math.Float64bits(vals[c]))
			}, fsumWord, congest.Word(math.Float64bits(0)))
			if err != nil {
				t.Fatal(err)
			}
			for ve := 0; ve < nv; ve++ {
				var want float64
				for _, c := range vg.CoveredTreeEdges(ve) {
					want += vals[c]
				}
				if uint64(got[ve]) != math.Float64bits(want) {
					t.Fatalf("tree %d call %d: PerVEdge[%d] = %v, want %v", i, call,
						ve, math.Float64frombits(uint64(got[ve])), want)
				}
			}

			ws := make([]congest.Word, nv)
			oks := make([]bool, nv)
			for ve := range ws {
				ws[ve], oks[ve] = congest.Word(rng.Int63()), rng.Intn(4) != 0
			}
			const id = congest.Word(7)
			gotT, err := a.PerTreeEdge(func(ve int) (congest.Word, bool) {
				return ws[ve], oks[ve]
			}, mix, id)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < n; c++ {
				want := id
				for _, ve := range covering[c] {
					if oks[ve] {
						want = mix(want, ws[ve])
					}
				}
				if gotT[c] != want {
					t.Fatalf("tree %d call %d: PerTreeEdge[%d] = %d, want %d", i, call, c, gotT[c], want)
				}
			}
		}
	}
}

func fsumWord(x, y congest.Word) congest.Word {
	return congest.Word(math.Float64bits(math.Float64frombits(uint64(x)) + math.Float64frombits(uint64(y))))
}

func TestDecompositionQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		_, rt := randRooted(rng, n, 0)
		d, err := Build(rt)
		if err != nil {
			return false
		}
		return d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAggregatorSteadyStateAllocs repeats both aggregates on one network:
// once warm, each call allocates only the slice it returns, because the
// primitives' node state lives in the Aggregator's Scratch and the engine
// recycles its buffers.
func TestAggregatorSteadyStateAllocs(t *testing.T) {
	a, vg, _ := buildAggregator(t, 15, 120, 160)
	value := func(c int) congest.Word { return congest.Word(c) }
	contribute := func(ve int) (congest.Word, bool) { return congest.Word(vg.VEdges[ve].W), ve%4 != 0 }
	sum := func(x, y congest.Word) congest.Word { return x + y }
	perVEdge := func() {
		if _, err := a.PerVEdge(value, sum, 0); err != nil {
			t.Fatal(err)
		}
	}
	perTreeEdge := func() {
		if _, err := a.PerTreeEdge(contribute, sum, 0); err != nil {
			t.Fatal(err)
		}
	}
	perVEdge()
	perTreeEdge()
	if allocs := testing.AllocsPerRun(10, perVEdge); allocs != 1 {
		t.Errorf("PerVEdge allocated %.1f objects per call, want 1 (its result)", allocs)
	}
	if allocs := testing.AllocsPerRun(10, perTreeEdge); allocs != 1 {
		t.Errorf("PerTreeEdge allocated %.1f objects per call, want 1 (its result)", allocs)
	}
}

// roundCounter is an Observer: a network with one armed simulates every
// RunOnce schedule instead of rebilling it.
type roundCounter struct{ rounds int64 }

func (r *roundCounter) ObserveRound(congest.RoundSample) { r.rounds++ }

// TestAggregatorRebillMatchesSimulation runs the same interleaved PerVEdge
// and PerTreeEdge calls on twin aggregators, one on an observed network,
// which simulates every global step, and one on an unobserved network,
// which rebills its broadcast-type steps. The contributing virtual edges
// change from call to call (none, all and several sizes between), so
// table sizes repeat with different contributors, and after every call
// both ledgers and results must be equal.
func TestAggregatorRebillMatchesSimulation(t *testing.T) {
	var trees []*tree.Rooted
	for _, fam := range []string{"er", "grid", "ring"} {
		g, err := graph.ByFamily(fam, 256, 1)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := mst.KruskalTree(g, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, rt)
	}
	trees = append(trees, denseMultigraphTree(t, rand.New(rand.NewSource(30)), 200))
	sum := func(x, y congest.Word) congest.Word { return x + y }
	for i, rt := range trees {
		a, sim := aggregatorOn(t, rt), aggregatorOn(t, rt)
		obs := &roundCounter{}
		sim.Net.Observer = obs
		base := sim.Net.Stats().SimulatedRounds
		rng := rand.New(rand.NewSource(int64(i)))
		nv := len(a.VG.VEdges)
		oks := make([]bool, nv)
		sizes := map[int]int{} // calls per table size
		// Shares of contributing virtual edges: 0 and 1 give none and all.
		for call, share := range []float64{0, 1, 0.5, 0.01, 0.002, 0, 1, 0.5, 0.01, 0.002, 0.1, 1, 0.01, 0.002} {
			vals := make([]congest.Word, rt.G.N)
			for c := range vals {
				vals[c] = congest.Word(rng.Intn(1000))
			}
			value := func(c int) congest.Word { return vals[c] }
			gotV, err := a.PerVEdge(value, sum, 0)
			if err != nil {
				t.Fatal(err)
			}
			wantV, err := sim.PerVEdge(value, sum, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := a.Net.Stats(), sim.Net.Stats(); got != want || !slices.Equal(gotV, wantV) {
				t.Fatalf("tree %d call %d: PerVEdge billed %+v, simulated %+v", i, call, got, want)
			}

			segs := map[int32]bool{}
			for ve := range oks {
				oks[ve] = rng.Float64() < share
				if oks[ve] {
					for _, sid := range a.segOf[a.segOff[ve]:a.segOff[ve+1]] {
						segs[sid] = true
					}
				}
			}
			sizes[len(segs)]++
			contribute := func(ve int) (congest.Word, bool) { return congest.Word(a.VG.VEdges[ve].W), oks[ve] }
			gotT, err := a.PerTreeEdge(contribute, sum, 0)
			if err != nil {
				t.Fatal(err)
			}
			wantT, err := sim.PerTreeEdge(contribute, sum, 0)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := a.Net.Stats(), sim.Net.Stats(); got != want || !slices.Equal(gotT, wantT) {
				t.Fatalf("tree %d call %d: PerTreeEdge with a %d-segment table billed %+v, simulated %+v",
					i, call, len(segs), got, want)
			}
		}
		// The fixture must do what it is for: several table sizes, some
		// of them repeated, and every simulated round observed.
		repeated := 0
		for _, k := range sizes {
			if k > 1 {
				repeated++
			}
		}
		if len(sizes) < 4 || repeated < 2 {
			t.Errorf("tree %d: calls per table size %v, want at least 4 sizes, 2 of them repeated", i, sizes)
		}
		if got, want := obs.rounds, sim.Net.Stats().SimulatedRounds-base; got != want {
			t.Errorf("tree %d: observed network ran %d rounds, billed %d", i, got, want)
		}
	}
}

// BenchmarkAggregatorFolds times warm PerVEdge (a float sum, as tap's
// forward phase folds) and PerTreeEdge (a min) on the solve's tree, the
// MST, of E-table instances. Each op is one call: the global steps, the
// analytic bill and the central fold. On an unobserved network the
// broadcast-type global steps are rebilled; the Observed rows run on a
// network with an Observer armed, as a served solve does, and simulate
// every call.
func BenchmarkAggregatorFolds(b *testing.B) {
	for _, fx := range []struct {
		fam string
		n   int
	}{{"er", 256}, {"ring", 256}, {"er", 1024}} {
		g, err := graph.ByFamily(fx.fam, fx.n, 1)
		if err != nil {
			b.Fatal(err)
		}
		rt, err := mst.KruskalTree(g, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		a, observed := aggregatorOn(b, rt), aggregatorOn(b, rt)
		observed.Net.Observer = &roundCounter{}
		value := func(c int) congest.Word { return congest.Word(math.Float64bits(float64(c) + 0.5)) }
		contribute := func(ve int) (congest.Word, bool) { return congest.Word(a.VG.VEdges[ve].W), ve%3 != 0 }
		lower := func(x, y congest.Word) congest.Word { return min(x, y) }
		perVEdge := func(a *Aggregator) func(*testing.B) {
			return func(b *testing.B) {
				if _, err := a.PerVEdge(value, fsumWord, congest.Word(math.Float64bits(0))); err != nil {
					b.Fatal(err)
				}
			}
		}
		perTreeEdge := func(a *Aggregator) func(*testing.B) {
			return func(b *testing.B) {
				if _, err := a.PerTreeEdge(contribute, lower, math.MaxInt64); err != nil {
					b.Fatal(err)
				}
			}
		}
		name := fmt.Sprintf("%s/n=%d", fx.fam, fx.n)
		for _, f := range []struct {
			name string
			call func(*testing.B)
		}{
			{"PerVEdge", perVEdge(a)}, {"PerTreeEdge", perTreeEdge(a)},
			{"PerVEdgeObserved", perVEdge(observed)}, {"PerTreeEdgeObserved", perTreeEdge(observed)},
		} {
			b.Run(name+"/"+f.name, func(b *testing.B) {
				f.call(b) // warm
				b.ReportAllocs()
				for b.Loop() {
					f.call(b)
				}
			})
		}
	}
}
