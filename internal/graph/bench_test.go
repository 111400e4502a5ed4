package graph

import "testing"

// The microbenchmarks compare the CSR hot paths against the legacy
// [][]int-adjacency formulation (kept here, in test code only, as the
// baseline) on a 256x256 grid — the layout-sensitive workload named in the
// acceptance criteria of the CSR refactor. CI runs them with -benchtime=1x
// as a smoke test so layout regressions fail loudly.

func benchGrid(b *testing.B) *Graph {
	b.Helper()
	g := Grid(256, 256, DefaultGenConfig(1))
	g.ensureCSR()
	return g
}

// legacyScratch is the seed's BFSScratch: vertex-indexed []int buffers.
type legacyScratch struct {
	parentEdge, dist, queue []int
}

// legacyBFSInto is the pre-CSR BFS inner loop: per neighbor visit it loads
// the inner adjacency slice and then Edges[id] to resolve the far endpoint.
func legacyBFSInto(g *Graph, src int, s *legacyScratch) (parentEdge, dist []int) {
	if cap(s.parentEdge) < g.N {
		s.parentEdge = make([]int, g.N)
		s.dist = make([]int, g.N)
		s.queue = make([]int, 0, g.N)
	}
	parentEdge, dist = s.parentEdge[:g.N], s.dist[:g.N]
	for i := range dist {
		dist[i] = -1
		parentEdge[i] = -1
	}
	dist[src] = 0
	queue := append(s.queue[:0], src)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, id := range g.adj[v] {
			u := g.Edges[id].Other(v)
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				parentEdge[u] = id
				queue = append(queue, u)
			}
		}
	}
	s.queue = queue[:0]
	return parentEdge, dist
}

func BenchmarkBFS(b *testing.B) {
	g := benchGrid(b)
	// csr is the pass Diameter actually runs per vertex now (distance-only
	// over the 4-byte neighbor stream); csr-tree is the full parent-edge
	// BFS; legacy is the seed's inner pass ([][]int adjacency + Edge.Other
	// + parent bookkeeping), which is what Diameter paid per vertex at seed.
	b.Run("csr", func(b *testing.B) {
		var s BFSScratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.DistancesInto(i%g.N, &s)
		}
	})
	b.Run("csr-tree", func(b *testing.B) {
		var s BFSScratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.BFSInto(i%g.N, &s)
		}
	})
	b.Run("legacy", func(b *testing.B) {
		var s legacyScratch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			legacyBFSInto(g, i%g.N, &s)
		}
	})
}

// legacyBridges is the pre-CSR bridge pass (modulo the final sort, which is
// identical in both): adjacency via g.adj plus Edges[id].Other.
func legacyBridges(g *Graph) []int {
	disc := make([]int, g.N)
	low := make([]int, g.N)
	for i := range disc {
		disc[i] = -1
	}
	var bridges []int
	timer := 0
	type frame struct {
		v, parentEdge, idx int
	}
	stack := make([]frame, 0, g.N)
	for s := 0; s < g.N; s++ {
		if disc[s] >= 0 {
			continue
		}
		disc[s], low[s] = timer, timer
		timer++
		stack = append(stack[:0], frame{v: s, parentEdge: -1})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx < len(g.adj[f.v]) {
				id := g.adj[f.v][f.idx]
				f.idx++
				if id == f.parentEdge {
					continue
				}
				u := g.Edges[id].Other(f.v)
				if disc[u] < 0 {
					disc[u], low[u] = timer, timer
					timer++
					stack = append(stack, frame{v: u, parentEdge: id})
				} else if disc[u] < low[f.v] {
					low[f.v] = disc[u]
				}
			} else {
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					p := &stack[len(stack)-1]
					if low[f.v] < low[p.v] {
						low[p.v] = low[f.v]
					}
					if low[f.v] > disc[p.v] {
						bridges = append(bridges, f.parentEdge)
					}
				}
			}
		}
	}
	return bridges
}

func BenchmarkBridges(b *testing.B) {
	g := benchGrid(b)
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Bridges()
		}
	})
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			legacyBridges(g)
		}
	})
}

func BenchmarkDiameter(b *testing.B) {
	g := Grid(64, 64, DefaultGenConfig(1))
	g.ensureCSR()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Diameter(); err != nil {
			b.Fatal(err)
		}
	}
}

var hashSink [32]byte

// BenchmarkHash digests the five n=256 service families, the instances a
// warm hit hashes on every request.
func BenchmarkHash(b *testing.B) {
	var gs []*Graph
	for _, f := range []string{"er", "grid", "ring", "random", "ba"} {
		g, err := ByFamily(f, 256, 7)
		if err != nil {
			b.Fatal(err)
		}
		gs = append(gs, g)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		hashSink = gs[i%len(gs)].Hash()
	}
}
