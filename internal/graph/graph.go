// Package graph provides the weighted undirected graph substrate used by all
// algorithms in this repository: adjacency representation, basic traversals,
// bridge finding / 2-edge-connectivity testing, diameter computation, and a
// set of instance generators matching the graph families discussed in the
// paper (Erdős–Rényi, grids, rings with chords, low-diameter planar-like
// families, and assorted trees).
package graph

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Weight is the edge-weight type. The paper assumes polynomially bounded
// integer weights so that a weight fits in an O(log n)-bit message.
type Weight = int64

// Edge is an undirected weighted edge. U < V is not required; the pair is
// unordered but stored in a fixed orientation for determinism.
type Edge struct {
	U, V int
	W    Weight
}

// Other returns the endpoint of e that is not v.
func (e Edge) Other(v int) int {
	if e.U == v {
		return e.V
	}
	return e.U
}

// Graph is a weighted undirected multigraph stored as an edge list plus an
// adjacency index. Vertices are 0..N-1; edges are identified by their dense
// index into Edges. The zero value is an empty graph with no vertices.
type Graph struct {
	N     int
	Edges []Edge
	// adj[v] lists the incident edge ids of v.
	adj [][]int
	// csr is the flat adjacency view (see csr.go), rebuilt lazily when
	// csrDirty after a mutation.
	csr      csr
	csrDirty bool
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	return &Graph{N: n, adj: make([][]int, n), csrDirty: true}
}

// checkEdge is the edge validation AddEdge and FromEdges share.
// Self-loops are rejected because no algorithm here tolerates them.
func checkEdge(n, u, v int) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	if u < 0 || v < 0 || u >= n || v >= n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
	}
	return nil
}

// AddEdge inserts the undirected edge {u,v} with weight w and returns its id.
func (g *Graph) AddEdge(u, v int, w Weight) (int, error) {
	if err := checkEdge(g.N, u, v); err != nil {
		return -1, err
	}
	id := len(g.Edges)
	g.Edges = append(g.Edges, Edge{U: u, V: v, W: w})
	g.adj[u] = append(g.adj[u], id)
	g.adj[v] = append(g.adj[v], id)
	g.csrDirty = true
	return id, nil
}

// FromEdges returns the graph on n vertices whose edge i is edges[i]: the
// graph New(n) plus one AddEdge per edge in order builds, with the same
// incidence order at every vertex. An invalid edge fails with AddEdge's
// error prefixed by its index. FromEdges takes ownership of edges.
//
// The incidence lists are carved from one array sized by degree instead
// of grown by appends. Each list's capacity is its vertex's degree, so a
// later AddEdge reallocates that list rather than writing into the next
// vertex's.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	deg := make([]int, n)
	for i, e := range edges {
		if err := checkEdge(n, e.U, e.V); err != nil {
			return nil, fmt.Errorf("edge %d: %w", i, err)
		}
		deg[e.U]++
		deg[e.V]++
	}
	g := &Graph{N: n, Edges: edges, adj: make([][]int, n), csrDirty: true}
	flat := make([]int, 2*len(edges))
	off := 0
	for v, d := range deg {
		g.adj[v] = flat[off : off : off+d]
		off += d
	}
	for id, e := range edges {
		g.adj[e.U] = append(g.adj[e.U], id)
		g.adj[e.V] = append(g.adj[e.V], id)
	}
	return g, nil
}

// MustAddEdge is AddEdge for generator code where inputs are known valid.
// It panics on invalid input; library callers should use AddEdge.
func (g *Graph) MustAddEdge(u, v int, w Weight) int {
	id, err := g.AddEdge(u, v, w)
	if err != nil {
		panic(err)
	}
	return id
}

// M returns the number of edges.
func (g *Graph) M() int { return len(g.Edges) }

// Incident returns the edge ids incident to v. The returned slice is owned
// by the graph and must not be mutated.
func (g *Graph) Incident(v int) []int { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the neighbor vertices of v (with multiplicity for
// parallel edges), in incident-edge order. It allocates the result; it is a
// convenience for call sites outside hot loops. Hot loops should use
// NeighborsInto or walk Row/CSRView directly.
func (g *Graph) Neighbors(v int) []int {
	return g.NeighborsInto(v, nil)
}

// NeighborsInto appends the neighbor vertices of v (with multiplicity, in
// incident-edge order) to buf[:0] and returns it, reusing buf's backing
// array when it is large enough.
func (g *Graph) NeighborsInto(v int, buf []int) []int {
	row := g.Row(v)
	buf = buf[:0]
	if cap(buf) < len(row) {
		buf = make([]int, 0, len(row))
	}
	for _, h := range row {
		buf = append(buf, int(h.To))
	}
	return buf
}

// TotalWeight sums the weights of the edge ids in set.
func (g *Graph) TotalWeight(set []int) Weight {
	var s Weight
	for _, id := range set {
		s += g.Edges[id].W
	}
	return s
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	h := New(g.N)
	h.Edges = append([]Edge(nil), g.Edges...)
	for v := range g.adj {
		h.adj[v] = append([]int(nil), g.adj[v]...)
	}
	return h
}

// Subgraph returns the spanning subgraph of g containing exactly the edges
// whose ids are in keep (vertex set unchanged).
func (g *Graph) Subgraph(keep []int) *Graph {
	h := New(g.N)
	for _, id := range keep {
		e := g.Edges[id]
		h.MustAddEdge(e.U, e.V, e.W)
	}
	return h
}

// ErrDisconnected reports that an operation requiring connectivity was
// invoked on a disconnected graph.
var ErrDisconnected = errors.New("graph: graph is not connected")

// BFS runs a breadth-first search from src and returns (parentEdge, dist)
// where parentEdge[v] is the edge id used to reach v (-1 for src and for
// unreachable vertices) and dist[v] is the hop distance (-1 if unreachable).
func (g *Graph) BFS(src int) (parentEdge, dist []int) {
	pe32, d32 := g.BFSInto(src, &BFSScratch{})
	parentEdge = make([]int, len(pe32))
	dist = make([]int, len(d32))
	for i := range pe32 {
		parentEdge[i] = int(pe32[i])
		dist[i] = int(d32[i])
	}
	return parentEdge, dist
}

// BFSScratch holds reusable buffers for repeated BFS passes (Diameter runs
// one per vertex). The zero value is ready to use. Buffers are int32 to
// halve the traversal working set; vertex and edge counts fit int32 by the
// CSR contract (see csr.go).
type BFSScratch struct {
	parentEdge, dist, queue []int32
}

// BFSInto is BFS with buffers taken from s. The returned slices are owned
// by s and are only valid until the next call with the same scratch.
// The frontier is processed level by level, so the current distance is a
// register, dist doubles as the visited check, and parentEdge is written
// on first visit only (unreachable vertices are fixed up to the documented
// -1 in a tail pass that connected graphs skip).
func (g *Graph) BFSInto(src int, s *BFSScratch) (parentEdge, dist []int32) {
	if cap(s.parentEdge) < g.N {
		s.parentEdge = make([]int32, g.N)
		s.dist = make([]int32, g.N)
		s.queue = make([]int32, 0, g.N)
	}
	parentEdge, dist = s.parentEdge[:g.N], s.dist[:g.N]
	for i := range dist {
		dist[i] = -1
	}
	off, ent := g.CSRView()
	dist[src] = 0
	parentEdge[src] = -1
	queue := append(s.queue[:0], int32(src))
	lo := 0
	for d := int32(1); lo < len(queue); d++ {
		hi := len(queue)
		for _, v := range queue[lo:hi] {
			for _, h := range ent[off[v]:off[v+1]] {
				if dist[h.To] < 0 {
					dist[h.To] = d
					parentEdge[h.To] = h.ID
					queue = append(queue, h.To)
				}
			}
		}
		lo = hi
	}
	if len(queue) < g.N {
		for v := range dist {
			if dist[v] < 0 {
				parentEdge[v] = -1
			}
		}
	}
	s.queue = queue[:0]
	return parentEdge, dist
}

// DistancesInto is the distance-only BFS pass: like BFSInto but without
// parent-edge maintenance, streaming the 4-byte neighbor array instead of
// the 8-byte (neighbor, edge) pairs. This is the inner pass Diameter runs
// N times; at seed it paid for parent bookkeeping it never read.
// The returned slice is owned by s until the next call with the same
// scratch; dist[v] is -1 for unreachable vertices.
func (g *Graph) DistancesInto(src int, s *BFSScratch) (dist []int32) {
	if cap(s.dist) < g.N {
		s.dist = make([]int32, g.N)
		s.queue = make([]int32, 0, g.N)
	}
	dist = s.dist[:g.N]
	for i := range dist {
		dist[i] = -1
	}
	g.ensureCSR()
	off, nbr := g.csr.off, g.csr.nbr
	dist[src] = 0
	queue := s.queue[:g.N]
	queue[0] = int32(src)
	tail := 1
	lo := 0
	for d := int32(1); lo < tail; d++ {
		hi := tail
		for _, v := range queue[lo:hi] {
			b, e := off[v], off[v+1]
			for i := b; i < e; i++ {
				u := nbr[i]
				if dist[u] < 0 {
					dist[u] = d
					queue[tail] = u
					tail++
				}
			}
		}
		lo = hi
	}
	return dist
}

// Connected reports whether g is connected (true for the empty and
// single-vertex graph).
func (g *Graph) Connected() bool {
	if g.N <= 1 {
		return true
	}
	dist := g.DistancesInto(0, &BFSScratch{})
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Eccentricity returns the maximum hop distance from src, or an error if g
// is disconnected.
func (g *Graph) Eccentricity(src int) (int, error) {
	return g.eccentricityInto(src, &BFSScratch{})
}

func (g *Graph) eccentricityInto(src int, s *BFSScratch) (int, error) {
	dist := g.DistancesInto(src, s)
	ecc := int32(0)
	for _, d := range dist {
		if d < 0 {
			return 0, ErrDisconnected
		}
		if d > ecc {
			ecc = d
		}
	}
	return int(ecc), nil
}

// Diameter computes the exact hop diameter by running a BFS from every
// vertex. The N independent BFS passes are split across a worker pool
// (GOMAXPROCS workers, each with its own scratch); the result is the max
// over all eccentricities, so it is identical for any worker count.
// Intended for instance preparation, not for inner loops.
func (g *Graph) Diameter() (int, error) {
	if g.N == 0 {
		return 0, nil
	}
	g.ensureCSR() // build once before the workers fan out
	workers := runtime.GOMAXPROCS(0)
	if workers > g.N {
		workers = g.N
	}
	if workers <= 1 {
		var s BFSScratch
		diam := 0
		for v := 0; v < g.N; v++ {
			ecc, err := g.eccentricityInto(v, &s)
			if err != nil {
				return 0, err
			}
			if ecc > diam {
				diam = ecc
			}
		}
		return diam, nil
	}
	var (
		next       atomic.Int64
		failed     atomic.Bool
		wg         sync.WaitGroup
		workerDiam = make([]int, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var s BFSScratch
			diam := 0
			for !failed.Load() {
				v := int(next.Add(1)) - 1
				if v >= g.N {
					break
				}
				ecc, err := g.eccentricityInto(v, &s)
				if err != nil {
					// Disconnected from any source means disconnected
					// from all; stop the pool early.
					failed.Store(true)
					return
				}
				if ecc > diam {
					diam = ecc
				}
			}
			workerDiam[w] = diam
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		return 0, ErrDisconnected
	}
	diam := 0
	for _, d := range workerDiam {
		if d > diam {
			diam = d
		}
	}
	return diam, nil
}

// DiameterApprox returns a 2-approximation of the diameter using two BFS
// sweeps (cheap; used for round accounting on large instances).
func (g *Graph) DiameterApprox() (int, error) {
	if g.N == 0 {
		return 0, nil
	}
	var s BFSScratch
	dist := g.DistancesInto(0, &s)
	far, best := 0, int32(-1)
	for v, d := range dist {
		if d < 0 {
			return 0, ErrDisconnected
		}
		if d > best {
			best, far = d, v
		}
	}
	// dist aliases the scratch, so take what we need before the next pass.
	return g.eccentricityInto(far, &s)
}

// Bridges returns the ids of all bridge edges of g (edges whose removal
// disconnects their component), via an iterative Tarjan low-link DFS over
// the CSR view (int32 discovery/low-link arrays keep the working set half
// the size of the vertex-indexed []int formulation).
// Parallel edges are handled correctly: a duplicated edge is never a bridge.
func (g *Graph) Bridges() []int {
	// dl[v] packs (disc, low) of v in one 8-byte slot: discovery writes
	// both halves of one cache line entry, and the pop path reads the
	// parent's pair together.
	type discLow struct{ disc, low int32 }
	dl := make([]discLow, g.N)
	for i := range dl {
		dl[i].disc = -1
	}
	var bridges []int
	timer := int32(0)
	type frame struct {
		v, parentEdge, idx int32
	}
	off, ent := g.CSRView()
	stack := make([]frame, 0, g.N)
	for s := 0; s < g.N; s++ {
		if dl[s].disc >= 0 {
			continue
		}
		dl[s] = discLow{disc: timer, low: timer}
		timer++
		stack = append(stack[:0], frame{v: int32(s), parentEdge: -1, idx: off[s]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			// Keep the frame's cursor and low-link in locals for the whole
			// scan of v's row; write back only when pushing or popping.
			v, pe := f.v, f.parentEdge
			i, end := f.idx, off[v+1]
			lowv := dl[v].low
			pushed := false
			for i < end {
				h := ent[i]
				i++
				if h.ID == pe {
					continue
				}
				if d := dl[h.To].disc; d >= 0 {
					if d < lowv {
						lowv = d
					}
					continue
				}
				dl[h.To] = discLow{disc: timer, low: timer}
				timer++
				f.idx = i
				dl[v].low = lowv
				stack = append(stack, frame{v: h.To, parentEdge: h.ID, idx: off[h.To]})
				pushed = true
				break
			}
			if pushed {
				continue
			}
			dl[v].low = lowv
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := &stack[len(stack)-1]
				if lowv < dl[p.v].low {
					dl[p.v].low = lowv
				}
				if lowv > dl[p.v].disc {
					bridges = append(bridges, int(pe))
				}
			}
		}
	}
	slices.Sort(bridges)
	return bridges
}

// TwoEdgeConnected reports whether g is connected, has at least 2 vertices'
// worth of structure (n<=1 counts as trivially 2-edge-connected), and has no
// bridges.
func (g *Graph) TwoEdgeConnected() bool {
	if g.N <= 1 {
		return true
	}
	if !g.Connected() {
		return false
	}
	return len(g.Bridges()) == 0
}

// MaxWeight returns the maximum edge weight (0 for an edgeless graph).
func (g *Graph) MaxWeight() Weight {
	var mx Weight
	for _, e := range g.Edges {
		if e.W > mx {
			mx = e.W
		}
	}
	return mx
}
