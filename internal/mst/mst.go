// Package mst provides minimum spanning tree computation in two forms:
//
//   - Kruskal: a centralized exact algorithm used as the verification oracle
//     and as the structural result in cost-model mode, where the round bill
//     of the cited Kutten–Peleg O(D + sqrt(n) log* n) algorithm is charged
//     analytically (the paper uses MST as a black box, Claim 2.1).
//
//   - Boruvka: a real message-level CONGEST simulation of pipelined Borůvka,
//     in which per-phase candidate edges are convergecast with combining
//     over a BFS tree and merge decisions are broadcast back. Its round
//     complexity is O(n + D log n) — not the optimal O(D + sqrt n), but it
//     is a genuine distributed MST whose measured rounds are honest.
//
// Both return the same tree on distinct weights; ties are broken by edge id
// so results are always identical and deterministic.
package mst

import (
	"errors"
	"fmt"
	"slices"

	"twoecss/internal/congest"
	"twoecss/internal/graph"
	"twoecss/internal/primitives"
	"twoecss/internal/tree"
)

// ErrNotConnected reports an MST request on a disconnected graph.
var ErrNotConnected = errors.New("mst: graph is not connected")

// unionFind is a standard DSU with path halving and union by size.
type unionFind struct {
	parent []int
	size   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	return true
}

// less orders edges by (weight, id): the deterministic tie-break shared by
// Kruskal and Borůvka.
func less(g *graph.Graph, a, b int) bool {
	if g.Edges[a].W != g.Edges[b].W {
		return g.Edges[a].W < g.Edges[b].W
	}
	return a < b
}

// Kruskal computes the MST edge ids of g.
func Kruskal(g *graph.Graph) ([]int, error) {
	ids := make([]int, g.M())
	for i := range ids {
		ids[i] = i
	}
	slices.SortFunc(ids, func(a, b int) int {
		if less(g, a, b) {
			return -1
		}
		if less(g, b, a) {
			return 1
		}
		return 0
	})
	uf := newUnionFind(g.N)
	out := make([]int, 0, g.N-1)
	for _, id := range ids {
		e := g.Edges[id]
		if uf.union(e.U, e.V) {
			out = append(out, id)
		}
	}
	if len(out) != g.N-1 {
		return nil, ErrNotConnected
	}
	slices.Sort(out)
	return out, nil
}

// KruskalTree computes the MST and returns it rooted at root, charging the
// cited Kutten–Peleg round bill to the network if net is non-nil.
func KruskalTree(g *graph.Graph, root int, net *congest.Network) (*tree.Rooted, error) {
	ids, err := Kruskal(g)
	if err != nil {
		return nil, err
	}
	if net != nil {
		diam, err := g.DiameterApprox()
		if err != nil {
			return nil, err
		}
		if err := net.Charge(congest.KuttenPelegMSTRounds(g.N, diam), "Kutten-Peleg MST"); err != nil {
			return nil, err
		}
	}
	return tree.NewFromEdgeSet(g, root, ids)
}

// Boruvka runs the pipelined distributed Borůvka algorithm on net and
// returns the MST edge ids. Every cross-node information flow is simulated:
// neighbor component exchange, per-component minimum outgoing edge
// convergecast (with combining), and merge-decision broadcast.
func Boruvka(net *congest.Network, bfsRoot int) ([]int, error) {
	g := net.G
	if g.N == 0 {
		return nil, nil
	}
	rt, err := primitives.BuildBFS(net, bfsRoot)
	if err != nil {
		if errors.Is(err, tree.ErrNotTree) {
			return nil, ErrNotConnected
		}
		return nil, err
	}

	comp := make([]int, g.N) // node-local component id
	for v := range comp {
		comp[v] = v
	}
	uf := newUnionFind(g.N) // root-local bookkeeping (lives at the BFS root)
	chosen := make(map[int]bool)
	remaining := g.N
	var prim primitives.Scratch // broadcast node state, kept across phases

	for phase := 0; remaining > 1; phase++ {
		if phase > 2*g.N {
			return nil, fmt.Errorf("mst: Boruvka failed to converge")
		}
		// Step 1: exchange component ids with all neighbors (1 round).
		nbrComp, err := exchangeComp(net, comp)
		if err != nil {
			return nil, err
		}
		// Step 2: each vertex proposes its minimum outgoing edge; items
		// (comp, edgeID) are convergecast to the BFS root with
		// per-component min combining at intermediate nodes.
		proposals, err := minOutgoingPerComp(net, rt, comp, nbrComp)
		if err != nil {
			return nil, err
		}
		if len(proposals) == 0 {
			return nil, ErrNotConnected
		}
		// Step 3 (root-local): merge along proposed edges.
		var newEdges []int
		pcomps := make([]int, 0, len(proposals))
		for c := range proposals {
			pcomps = append(pcomps, c)
		}
		slices.Sort(pcomps)
		for _, c := range pcomps {
			id := proposals[c]
			e := g.Edges[id]
			if uf.union(e.U, e.V) {
				newEdges = append(newEdges, id)
				remaining--
			}
		}
		// Step 4: broadcast accepted edges; endpoints mark them; then
		// every vertex recomputes its component id as the DSU root —
		// delivered as a relabeling table (old comp -> new comp), which
		// has one entry per merged component.
		items := make([]primitives.Item, 0, len(newEdges)+len(pcomps))
		for _, id := range newEdges {
			items = append(items, primitives.Item{0, congest.Word(id)})
		}
		seenOld := map[int]bool{}
		for _, c := range pcomps {
			if !seenOld[c] {
				seenOld[c] = true
				items = append(items, primitives.Item{1, congest.Word(c), congest.Word(uf.find(c))})
			}
		}
		recv, err := primitives.Broadcast(net, rt, &prim, items)
		if err != nil {
			return nil, err
		}
		for v := 0; v < g.N; v++ {
			for _, it := range recv[v] {
				switch it[0] {
				case 0:
					id := int(it[1])
					e := g.Edges[id]
					if e.U == v || e.V == v {
						chosen[id] = true
					}
				case 1:
					if comp[v] == int(it[1]) {
						comp[v] = int(it[2])
					}
				}
			}
		}
	}
	out := make([]int, 0, len(chosen))
	for id := range chosen {
		out = append(out, id)
	}
	slices.Sort(out)
	if len(out) != g.N-1 {
		return nil, fmt.Errorf("mst: Boruvka selected %d edges, want %d", len(out), g.N-1)
	}
	return out, nil
}

// exchangeComp has every vertex send its component id to all neighbors in
// one round and returns, per half-edge, the component of the far endpoint:
// nbrComp[halfEdge(g, v, id)] for incident edge id of v, -1 if nothing
// arrived. Vertex v's handler writes only v's own half-edges.
func exchangeComp(net *congest.Network, comp []int) ([]int32, error) {
	g := net.G
	out := make([]int32, 2*g.M())
	for i := range out {
		out[i] = -1
	}
	sent := make([]bool, g.N)
	handler := func(v int, inbox []congest.Msg) bool {
		for _, m := range inbox {
			out[halfEdge(g, v, int(m.EdgeID))] = int32(net.Words(m)[0])
		}
		if !sent[v] {
			sent[v] = true
			for _, id := range g.Incident(v) {
				net.Send(v, id, congest.Word(comp[v]))
			}
		}
		return false
	}
	if err := net.Run(handler, nil, 8); err != nil {
		return nil, err
	}
	return out, nil
}

// halfEdge indexes edge id as seen from its endpoint v: 2*id at the edge's
// U end, 2*id+1 at its V end.
func halfEdge(g *graph.Graph, v, id int) int {
	if g.Edges[id].U == v {
		return 2 * id
	}
	return 2*id + 1
}

// minOutgoingPerComp convergecasts, for every component, the minimum-weight
// outgoing edge to the BFS root. Intermediate vertices combine entries for
// the same component, so at most one item per component crosses any edge.
func minOutgoingPerComp(net *congest.Network, rt *tree.Rooted, comp []int, nbrComp []int32) (map[int]int, error) {
	g := net.G
	// best[v] is the node-local table comp -> edge id, merged en route.
	best := make([]map[int]int, g.N)
	for v := 0; v < g.N; v++ {
		best[v] = map[int]int{}
		for _, id := range g.Incident(v) {
			oc := nbrComp[halfEdge(g, v, id)]
			if oc < 0 || int(oc) == comp[v] {
				continue
			}
			cur, ok := best[v][comp[v]]
			if !ok || less(g, id, cur) {
				best[v][comp[v]] = id
			}
		}
	}
	// Streaming convergecast with combining: entries flow upward as they
	// become known; if a better edge for a component arrives later the
	// entry is re-sent. Min-combining is idempotent, so duplicates are
	// harmless and quiescence implies the root holds the global minima.
	dirty := make([][]int, g.N) // components whose entry must be (re)sent
	inDirty := make([]map[int]bool, g.N)
	for v := 0; v < g.N; v++ {
		inDirty[v] = make(map[int]bool, len(best[v]))
		comps := make([]int, 0, len(best[v]))
		for c := range best[v] {
			comps = append(comps, c)
		}
		slices.Sort(comps)
		for _, c := range comps {
			dirty[v] = append(dirty[v], c)
			inDirty[v][c] = true
		}
	}

	handler := func(v int, inbox []congest.Msg) bool {
		for _, m := range inbox {
			w := net.Words(m)
			c, id := int(w[0]), int(w[1])
			cur, ok := best[v][c]
			if !ok || less(g, id, cur) {
				best[v][c] = id
				if !inDirty[v][c] {
					inDirty[v][c] = true
					dirty[v] = append(dirty[v], c)
				}
			}
		}
		if rt.ParentEdge[v] < 0 || len(dirty[v]) == 0 {
			dirty[v] = dirty[v][:0]
			return false
		}
		c := dirty[v][0]
		dirty[v] = dirty[v][1:]
		inDirty[v][c] = false
		net.Send(v, rt.ParentEdge[v], congest.Word(c), congest.Word(best[v][c]))
		return len(dirty[v]) > 0
	}
	if err := net.Run(handler, nil, int64(16*g.N+64)); err != nil {
		return nil, err
	}
	return best[rt.Root], nil
}
