package graph

import (
	"fmt"
	"math/rand"
	"slices"
)

// WeightMode selects how generators assign edge weights.
type WeightMode int

const (
	// WeightUniform draws weights uniformly from [1, MaxW].
	WeightUniform WeightMode = iota + 1
	// WeightUnit assigns weight 1 to every edge (the unweighted case).
	WeightUnit
	// WeightSkewed draws weights as 1 + x^3-skewed values in [1, MaxW],
	// producing a few very expensive edges, which stresses the primal-dual
	// weighting logic.
	WeightSkewed
)

// GenConfig parametrizes the instance generators.
type GenConfig struct {
	Mode WeightMode
	MaxW Weight
	Rng  *rand.Rand
}

// DefaultGenConfig returns a uniform-weight config with the given seed and a
// polynomially bounded weight range, as assumed by the paper.
func DefaultGenConfig(seed int64) GenConfig {
	return GenConfig{Mode: WeightUniform, MaxW: 1 << 16, Rng: rand.New(rand.NewSource(seed))}
}

func (c GenConfig) weight() Weight {
	switch c.Mode {
	case WeightUnit:
		return 1
	case WeightSkewed:
		x := c.Rng.Float64()
		w := Weight(x*x*x*float64(c.MaxW)) + 1
		return w
	default:
		return Weight(c.Rng.Int63n(int64(c.MaxW))) + 1
	}
}

// RandomSpanningTreePlus generates a connected graph on n vertices: a random
// spanning tree (random-parent attachment) plus extra additional random
// chords. With extra >= n/2 the result is usually 2-edge-connected; callers
// needing guaranteed 2EC should use Ensure2EC.
func RandomSpanningTreePlus(n, extra int, cfg GenConfig) *Graph {
	g := New(n)
	perm := cfg.Rng.Perm(n)
	for i := 1; i < n; i++ {
		p := perm[cfg.Rng.Intn(i)]
		g.MustAddEdge(perm[i], p, cfg.weight())
	}
	seen := make(map[[2]int]bool, extra+n)
	for _, e := range g.Edges {
		seen[normPair(e.U, e.V)] = true
	}
	for added := 0; added < extra && len(seen) < n*(n-1)/2; {
		u, v := cfg.Rng.Intn(n), cfg.Rng.Intn(n)
		if u == v || seen[normPair(u, v)] {
			continue
		}
		seen[normPair(u, v)] = true
		g.MustAddEdge(u, v, cfg.weight())
		added++
	}
	return g
}

func normPair(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// ErdosRenyi generates G(n,p) with weights per cfg, conditioned on
// connectivity by adding a random spanning tree first (standard practice for
// benchmarking distributed algorithms above the connectivity threshold).
func ErdosRenyi(n int, p float64, cfg GenConfig) *Graph {
	g := New(n)
	perm := cfg.Rng.Perm(n)
	// The tree pairs {u < v} as u*n+v, sorted: the pair scan below meets
	// them in the same order and skips each with one comparison.
	tree := make([]int, 0, n)
	for i := 1; i < n; i++ {
		q := perm[cfg.Rng.Intn(i)]
		g.MustAddEdge(perm[i], q, cfg.weight())
		e := normPair(perm[i], q)
		tree = append(tree, e[0]*n+e[1])
	}
	slices.Sort(tree)
	next := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if next < len(tree) && tree[next] == u*n+v {
				next++
				continue
			}
			if cfg.Rng.Float64() < p {
				g.MustAddEdge(u, v, cfg.weight())
			}
		}
	}
	return g
}

// Grid generates an rows x cols grid graph (planar, diameter rows+cols-2).
// Grids are 2-edge-connected for rows,cols >= 2.
func Grid(rows, cols int, cfg GenConfig) *Graph {
	g := New(rows * cols)
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(at(r, c), at(r, c+1), cfg.weight())
			}
			if r+1 < rows {
				g.MustAddEdge(at(r, c), at(r+1, c), cfg.weight())
			}
		}
	}
	return g
}

// RingWithChords generates a cycle on n vertices plus chords random chords;
// always 2-edge-connected, diameter up to n/2.
func RingWithChords(n, chords int, cfg GenConfig) *Graph {
	g := New(n)
	for v := 0; v < n; v++ {
		g.MustAddEdge(v, (v+1)%n, cfg.weight())
	}
	for i := 0; i < chords; i++ {
		u, v := cfg.Rng.Intn(n), cfg.Rng.Intn(n)
		if u == v || (u+1)%n == v || (v+1)%n == u {
			continue
		}
		g.MustAddEdge(u, v, cfg.weight())
	}
	return g
}

// TreeLeafCycle generates the low-diameter planar-like family used in the
// shortcut experiments: a complete binary tree of the given depth, plus
// edges connecting consecutive leaves (in DFS order) and an edge closing the
// leaf path into a cycle through the root side. The result is planar,
// 2-edge-connected, and has diameter O(depth) = O(log n).
func TreeLeafCycle(depth int, cfg GenConfig) *Graph {
	n := (1 << (depth + 1)) - 1
	g := New(n)
	// Heap-indexed complete binary tree: children of v are 2v+1, 2v+2.
	for v := 0; v < n; v++ {
		if 2*v+1 < n {
			g.MustAddEdge(v, 2*v+1, cfg.weight())
		}
		if 2*v+2 < n {
			g.MustAddEdge(v, 2*v+2, cfg.weight())
		}
	}
	firstLeaf := (1 << depth) - 1
	for v := firstLeaf; v < n-1; v++ {
		g.MustAddEdge(v, v+1, cfg.weight())
	}
	// Close the structure: connect the extreme leaves to the root so every
	// tree edge lies on a cycle.
	g.MustAddEdge(firstLeaf, 0, cfg.weight())
	if n-1 != firstLeaf {
		g.MustAddEdge(n-1, 0, cfg.weight())
	}
	return g
}

// Caterpillar generates a caterpillar tree (a path of spineLen vertices,
// each with legs pendant leaves) and returns it as a graph. Useful for
// layering tests: it has exactly 2 layers.
func Caterpillar(spineLen, legs int, cfg GenConfig) *Graph {
	n := spineLen * (legs + 1)
	g := New(n)
	for i := 1; i < spineLen; i++ {
		g.MustAddEdge(i-1, i, cfg.weight())
	}
	next := spineLen
	for i := 0; i < spineLen; i++ {
		for l := 0; l < legs; l++ {
			g.MustAddEdge(i, next, cfg.weight())
			next++
		}
	}
	return g
}

// PathWithIntervals generates a path on n vertices (the tree) plus m
// interval chords {l, r} with l<r. TAP on a path is exactly weighted
// interval covering, for which the baseline package has an exact solver, so
// this family yields instances with known optimum.
func PathWithIntervals(n, m int, cfg GenConfig) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v-1, v, cfg.weight())
	}
	// Guarantee feasibility: chords covering the whole path in overlapping
	// windows, then random ones.
	win := n/4 + 2
	for l := 0; l < n-1; l += win / 2 {
		r := l + win
		if r > n-1 {
			r = n - 1
		}
		if l < r {
			g.MustAddEdge(l, r, cfg.weight())
		}
	}
	for i := 0; i < m; i++ {
		l, r := cfg.Rng.Intn(n), cfg.Rng.Intn(n)
		if l == r {
			continue
		}
		if l > r {
			l, r = r, l
		}
		if r == l+1 && cfg.Rng.Intn(2) == 0 {
			continue // skew away from trivial chords parallel to tree edges
		}
		g.MustAddEdge(l, r, cfg.weight())
	}
	return g
}

// Dumbbell generates two cliques of size k joined by a path of length
// bridgeLen, then doubled so it is 2-edge-connected. High-diameter stress
// instance.
func Dumbbell(k, bridgeLen int, cfg GenConfig) *Graph {
	n := 2*k + bridgeLen
	g := New(n)
	clique := func(base int) {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				g.MustAddEdge(base+i, base+j, cfg.weight())
			}
		}
	}
	clique(0)
	clique(k + bridgeLen)
	prev := k - 1
	for i := 0; i < bridgeLen; i++ {
		g.MustAddEdge(prev, k+i, cfg.weight())
		g.MustAddEdge(prev, k+i, cfg.weight()) // parallel edge: keeps 2EC
		prev = k + i
	}
	g.MustAddEdge(prev, k+bridgeLen, cfg.weight())
	g.MustAddEdge(prev, k+bridgeLen, cfg.weight())
	return g
}

// BarabasiAlbert generates a Barabási–Albert preferential-attachment graph:
// a ring core on m+1 vertices (2-edge-connected seed), then each new vertex
// attaches to m distinct existing vertices sampled with probability
// proportional to their current degree via the standard repeated-endpoint
// urn. The result is hub-dominated (power-law degree tail) with diameter
// O(log n / log log n) — a scale-free low-diameter family complementing the
// existing geometric and random ones. With m >= 2 the graph is usually
// 2-edge-connected but not guaranteed; callers needing a guarantee run
// Ensure2EC afterwards (the "ba" family in ByFamily does).
func BarabasiAlbert(n, m int, cfg GenConfig) *Graph {
	if m < 1 {
		m = 1
	}
	core := m + 1
	if core < 3 {
		core = 3
	}
	if core > n {
		core = n
	}
	g := New(n)
	// urn holds one entry per edge endpoint, so a uniform draw from it is a
	// degree-proportional vertex draw.
	urn := make([]int, 0, 2*(core+m*n))
	switch {
	case core >= 3:
		for v := 0; v < core; v++ {
			g.MustAddEdge(v, (v+1)%core, cfg.weight())
			urn = append(urn, v, (v+1)%core)
		}
	case core == 2:
		// Two vertices: a doubled edge keeps the core 2-edge-connected.
		g.MustAddEdge(0, 1, cfg.weight())
		g.MustAddEdge(0, 1, cfg.weight())
		urn = append(urn, 0, 1, 0, 1)
	}
	var chosen []int
	for v := core; v < n; v++ {
		chosen = chosen[:0]
		// v-1 >= core >= m+1 existing vertices, so m distinct targets exist
		// and the rejection loop terminates.
		for len(chosen) < m {
			t := urn[cfg.Rng.Intn(len(urn))]
			if slices.Contains(chosen, t) {
				continue
			}
			chosen = append(chosen, t)
		}
		for _, t := range chosen {
			g.MustAddEdge(v, t, cfg.weight())
			urn = append(urn, v, t)
		}
	}
	return g
}

// Ensure2EC augments g with minimum structural effort until it is
// 2-edge-connected: it repeatedly finds a bridge (or disconnection) and adds
// a random chord fixing it. Returns the number of edges added.
func Ensure2EC(g *Graph, cfg GenConfig) (int, error) {
	if g.N < 3 {
		return 0, fmt.Errorf("graph: cannot make %d vertices 2-edge-connected", g.N)
	}
	added := 0
	if !g.Connected() {
		return 0, ErrDisconnected
	}
	for iter := 0; ; iter++ {
		if iter > 4*g.N {
			return added, fmt.Errorf("graph: Ensure2EC failed to converge")
		}
		bridges := g.Bridges()
		if len(bridges) == 0 {
			return added, nil
		}
		// Fix the first bridge: connect a vertex on each side, far apart.
		b := g.Edges[bridges[0]]
		sideU := g.componentWithout(bridges[0], b.U)
		sideV := g.componentWithout(bridges[0], b.V)
		u := sideU[cfg.Rng.Intn(len(sideU))]
		v := sideV[cfg.Rng.Intn(len(sideV))]
		if u == v {
			continue
		}
		g.MustAddEdge(u, v, cfg.weight())
		added++
	}
}

// componentWithout returns the vertices reachable from src without crossing
// the edge with id skip.
func (g *Graph) componentWithout(skip, src int) []int {
	seen := make([]bool, g.N)
	seen[src] = true
	stack := []int{src}
	var out []int
	off, ent := g.CSRView()
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, v)
		for _, h := range ent[off[v]:off[v+1]] {
			if int(h.ID) == skip {
				continue
			}
			if !seen[h.To] {
				seen[h.To] = true
				stack = append(stack, int(h.To))
			}
		}
	}
	return out
}
