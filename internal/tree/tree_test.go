package tree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"twoecss/internal/graph"
)

func randTreeGraph(rng *rand.Rand, n int) (*graph.Graph, *Rooted) {
	cfg := graph.GenConfig{Mode: graph.WeightUniform, MaxW: 50, Rng: rng}
	g := graph.RandomSpanningTreePlus(n, rng.Intn(n), cfg)
	t, err := BFSTree(g, rng.Intn(n))
	if err != nil {
		panic(err)
	}
	return g, t
}

func TestBFSTreeBasic(t *testing.T) {
	g := graph.Grid(3, 3, graph.DefaultGenConfig(1))
	rt, err := BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Root != 0 || rt.Parent[0] != -1 {
		t.Fatal("bad root")
	}
	if rt.Size[0] != 9 {
		t.Fatalf("root subtree size = %d", rt.Size[0])
	}
	if got := len(rt.TreeEdgeIDs()); got != 8 {
		t.Fatalf("tree edges = %d", got)
	}
	if got := len(rt.NonTreeEdgeIDs()); got != g.M()-8 {
		t.Fatalf("non-tree edges = %d", got)
	}
	// BFS tree depths equal BFS distances.
	_, dist := g.BFS(0)
	for v := 0; v < g.N; v++ {
		if rt.Depth[v] != dist[v] {
			t.Fatalf("depth[%d]=%d, dist=%d", v, rt.Depth[v], dist[v])
		}
	}
}

func TestNewFromEdgeSetErrors(t *testing.T) {
	g := graph.New(4)
	e0 := g.MustAddEdge(0, 1, 1)
	e1 := g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	e3 := g.MustAddEdge(0, 2, 1)
	if _, err := NewFromEdgeSet(g, 0, []int{e0, e1}); err == nil {
		t.Fatal("too-small edge set accepted")
	}
	if _, err := NewFromEdgeSet(g, 0, []int{e0, e1, e3}); err == nil {
		t.Fatal("cyclic edge set accepted (does not span vertex 3)")
	}
}

// lcaNaive walks parents.
func lcaNaive(t *Rooted, u, v int) int {
	seen := map[int]bool{}
	for x := u; ; x = t.Parent[x] {
		seen[x] = true
		if t.Parent[x] < 0 {
			break
		}
	}
	for x := v; ; x = t.Parent[x] {
		if seen[x] {
			return x
		}
	}
}

func TestLCAAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		_, rt := randTreeGraph(rng, n)
		for q := 0; q < 50; q++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if got, want := rt.LCA(u, v), lcaNaive(rt, u, v); got != want {
				t.Fatalf("LCA(%d,%d)=%d, want %d", u, v, got, want)
			}
		}
	}
}

func TestIsAncestorMatchesParentWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	_, rt := randTreeGraph(rng, 30)
	for u := 0; u < 30; u++ {
		anc := map[int]bool{}
		for x := u; ; x = rt.Parent[x] {
			anc[x] = true
			if rt.Parent[x] < 0 {
				break
			}
		}
		for a := 0; a < 30; a++ {
			if rt.IsAncestor(a, u) != anc[a] {
				t.Fatalf("IsAncestor(%d,%d) mismatch", a, u)
			}
		}
	}
}

func TestCovers(t *testing.T) {
	// Path 0-1-2-3-4 rooted at 0; chord {1,4} covers tree edges 2,3,4.
	g := graph.New(5)
	for v := 1; v < 5; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	rt, err := BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c < 5; c++ {
		want := c >= 2
		if got := rt.Covers(1, 4, c); got != want {
			t.Fatalf("Covers(1,4,%d)=%v want %v", c, got, want)
		}
	}
}

func TestCoversAgainstPathMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(25)
		_, rt := randTreeGraph(rng, n)
		u, v := rng.Intn(n), rng.Intn(n)
		onPath := map[int]bool{}
		w := rt.LCA(u, v)
		for x := u; x != w; x = rt.Parent[x] {
			onPath[x] = true
		}
		for x := v; x != w; x = rt.Parent[x] {
			onPath[x] = true
		}
		for c := 0; c < n; c++ {
			if c == rt.Root {
				continue
			}
			if rt.Covers(u, v, c) != onPath[c] {
				t.Fatalf("Covers(%d,%d,%d) != path membership", u, v, c)
			}
		}
	}
}

func TestKthAncestor(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	_, rt := randTreeGraph(rng, 50)
	for v := 0; v < 50; v++ {
		x := v
		for k := 0; k <= rt.Depth[v]+2; k++ {
			if got := rt.KthAncestor(v, k); got != x {
				t.Fatalf("KthAncestor(%d,%d)=%d want %d", v, k, got, x)
			}
			if rt.Parent[x] >= 0 {
				x = rt.Parent[x]
			}
		}
	}
}

func TestHeavyLightLightCount(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(300)
		_, rt := randTreeGraph(rng, n)
		light := rt.LightEdgesToRoot()
		lg := 0
		for 1<<lg < n {
			lg++
		}
		for v := 0; v < n; v++ {
			if len(light[v]) > lg+1 {
				t.Fatalf("n=%d vertex %d has %d light edges (> log n + 1)", n, v, len(light[v]))
			}
			// Validate each listed light edge is genuinely on the path.
			for _, c := range light[v] {
				if !rt.IsAncestor(c, v) {
					t.Fatalf("light edge child %d not an ancestor of %d", c, v)
				}
			}
		}
	}
}

func TestHeavyPathsAreChains(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	_, rt := randTreeGraph(rng, 200)
	_, isHeavy := rt.HeavyLight()
	// Each vertex has at most one heavy child edge.
	heavyKids := make([]int, rt.G.N)
	for v := 0; v < rt.G.N; v++ {
		if isHeavy[v] {
			heavyKids[rt.Parent[v]]++
		}
	}
	for v, k := range heavyKids {
		if k > 1 {
			t.Fatalf("vertex %d has %d heavy children", v, k)
		}
	}
}

func TestSubtreeSizesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		_, rt := randTreeGraph(rng, n)
		// Size[v] must equal 1 + sum of children sizes, and Size[root]==n.
		// Children ascend, and ChildEdges[v][i] is Children[v][i]'s parent
		// edge.
		for v := 0; v < n; v++ {
			s := 1
			if len(rt.ChildEdges[v]) != len(rt.Children[v]) {
				return false
			}
			for i, c := range rt.Children[v] {
				if rt.Parent[c] != v || rt.ChildEdges[v][i] != rt.ParentEdge[c] || (i > 0 && rt.Children[v][i-1] >= c) {
					return false
				}
				s += rt.Size[c]
			}
			if s != rt.Size[v] {
				return false
			}
		}
		return rt.Size[rt.Root] == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPathLen(t *testing.T) {
	g := graph.Grid(4, 4, graph.DefaultGenConfig(3))
	rt, err := BFSTree(g, 5)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N; u++ {
		for v := 0; v < g.N; v++ {
			w := rt.LCA(u, v)
			want := rt.Depth[u] + rt.Depth[v] - 2*rt.Depth[w]
			if got := rt.PathLen(u, v); got != want {
				t.Fatalf("PathLen(%d,%d)=%d want %d", u, v, got, want)
			}
		}
	}
}

func TestWeightAndHeight(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(1, 2, 20)
	rt, err := BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Weight() != 30 {
		t.Fatalf("Weight = %d", rt.Weight())
	}
	if rt.Height() != 2 {
		t.Fatalf("Height = %d", rt.Height())
	}
}
