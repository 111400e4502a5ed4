// Package tree provides the rooted spanning tree toolkit used throughout the
// reproduction: parent/child structure, preorder intervals (ancestry tests),
// depths, subtree sizes, binary-lifting LCA (used as a centralized
// verification oracle), and heavy-light decomposition.
//
// Tree edges are identified by their child endpoint: the tree edge with id v
// is the edge {v, Parent[v]} for v != Root. This convention is shared by all
// packages.
package tree

import (
	"errors"
	"fmt"

	"twoecss/internal/graph"
)

// Rooted is a rooted spanning tree of an underlying graph. All slices are
// indexed by vertex.
type Rooted struct {
	G    *graph.Graph
	Root int
	// Parent[v] is the parent of v (-1 for the root).
	Parent []int
	// ParentEdge[v] is the id (in G) of the edge {v,Parent[v]} (-1 for root).
	ParentEdge []int
	// Children[v] lists the children of v in ascending order, and
	// ChildEdges[v][i] is the id of the edge to Children[v][i]. Every list
	// is a capped window of one backing array.
	Children   [][]int
	ChildEdges [][]int
	// Depth[v] is the hop distance from the root.
	Depth []int
	// Tin/Tout are preorder entry/exit times: u is an ancestor of v
	// (inclusive) iff Tin[u] <= Tin[v] && Tout[v] <= Tout[u].
	Tin, Tout []int
	// Order is the preorder vertex sequence (Order[0] == Root).
	Order []int
	// Size[v] is the number of vertices in the subtree rooted at v.
	Size []int

	up [][]int // binary lifting table; up[0] == Parent with root mapped to root
}

// ErrNotTree reports that the provided edge set is not a spanning tree.
var ErrNotTree = errors.New("tree: edge set is not a spanning tree")

// NewFromParentEdges builds a Rooted from a parentEdge array as produced by
// graph.BFS (parentEdge[v] = edge id connecting v towards the root, -1 at the
// root).
func NewFromParentEdges(g *graph.Graph, root int, parentEdge []int) (*Rooted, error) {
	if root < 0 || root >= g.N {
		return nil, fmt.Errorf("tree: root %d out of range", root)
	}
	t := &Rooted{
		G:          g,
		Root:       root,
		Parent:     make([]int, g.N),
		ParentEdge: make([]int, g.N),
		Children:   make([][]int, g.N),
		ChildEdges: make([][]int, g.N),
		Depth:      make([]int, g.N),
		Tin:        make([]int, g.N),
		Tout:       make([]int, g.N),
		Size:       make([]int, g.N),
	}
	for v := 0; v < g.N; v++ {
		t.Parent[v] = -1
		t.ParentEdge[v] = -1
	}
	cnt := 0
	for v := 0; v < g.N; v++ {
		if v == root {
			continue
		}
		id := parentEdge[v]
		if id < 0 || id >= g.M() {
			return nil, fmt.Errorf("tree: vertex %d has no parent edge: %w", v, ErrNotTree)
		}
		e := g.Edges[id]
		if e.U != v && e.V != v {
			return nil, fmt.Errorf("tree: edge %d not incident to %d: %w", id, v, ErrNotTree)
		}
		t.Parent[v] = e.Other(v)
		t.ParentEdge[v] = id
		cnt++
	}
	if cnt != g.N-1 {
		return nil, ErrNotTree
	}
	t.buildChildren()
	if err := t.computeOrders(); err != nil {
		return nil, err
	}
	t.buildLifting()
	return t, nil
}

// NewFromEdgeSet builds a Rooted from a set of n-1 edge ids forming a
// spanning tree, rooted at root.
func NewFromEdgeSet(g *graph.Graph, root int, treeEdges []int) (*Rooted, error) {
	if len(treeEdges) != g.N-1 {
		return nil, ErrNotTree
	}
	sub := make([][]int, g.N) // adjacency restricted to tree edges
	for _, id := range treeEdges {
		if id < 0 || id >= g.M() {
			return nil, fmt.Errorf("tree: edge id %d out of range: %w", id, ErrNotTree)
		}
		e := g.Edges[id]
		sub[e.U] = append(sub[e.U], id)
		sub[e.V] = append(sub[e.V], id)
	}
	parentEdge := make([]int, g.N)
	for i := range parentEdge {
		parentEdge[i] = -1
	}
	seen := make([]bool, g.N)
	seen[root] = true
	queue := []int{root}
	reached := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, id := range sub[v] {
			u := g.Edges[id].Other(v)
			if !seen[u] {
				seen[u] = true
				parentEdge[u] = id
				reached++
				queue = append(queue, u)
			}
		}
	}
	if reached != g.N {
		return nil, ErrNotTree
	}
	return NewFromParentEdges(g, root, parentEdge)
}

// BFSTree computes a BFS spanning tree of g rooted at root.
func BFSTree(g *graph.Graph, root int) (*Rooted, error) {
	parentEdge, dist := g.BFS(root)
	for _, d := range dist {
		if d < 0 {
			return nil, graph.ErrDisconnected
		}
	}
	return NewFromParentEdges(g, root, parentEdge)
}

// buildChildren fills Children and ChildEdges by a counting sort on the
// parent: off[p] counts p's children, then becomes the start of p's window.
func (t *Rooted) buildChildren() {
	n := t.G.N
	off := make([]int, n+1)
	for _, p := range t.Parent {
		if p >= 0 {
			off[p+1]++
		}
	}
	for p := 0; p < n; p++ {
		off[p+1] += off[p]
	}
	kids := make([]int, off[n])
	edges := make([]int, off[n])
	for p := 0; p < n; p++ {
		t.Children[p] = kids[off[p]:off[p]:off[p+1]]
		t.ChildEdges[p] = edges[off[p]:off[p]:off[p+1]]
	}
	for v, p := range t.Parent {
		if p >= 0 {
			t.Children[p] = append(t.Children[p], v)
			t.ChildEdges[p] = append(t.ChildEdges[p], t.ParentEdge[v])
		}
	}
}

func (t *Rooted) computeOrders() error {
	n := t.G.N
	t.Order = make([]int, 0, n)
	timer := 0
	type frame struct{ v, idx int }
	stack := make([]frame, 0, n)
	stack = append(stack, frame{v: t.Root})
	t.Tin[t.Root] = timer
	timer++
	t.Order = append(t.Order, t.Root)
	visited := 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.idx < len(t.Children[f.v]) {
			c := t.Children[f.v][f.idx]
			f.idx++
			t.Depth[c] = t.Depth[f.v] + 1
			t.Tin[c] = timer
			timer++
			t.Order = append(t.Order, c)
			visited++
			stack = append(stack, frame{v: c})
		} else {
			t.Tout[f.v] = timer
			timer++
			stack = stack[:len(stack)-1]
		}
	}
	if visited != n {
		return ErrNotTree // cycle or disconnection in parent structure
	}
	// Subtree sizes in reverse preorder.
	for i := range t.Size {
		t.Size[i] = 1
	}
	for i := n - 1; i >= 1; i-- {
		v := t.Order[i]
		t.Size[t.Parent[v]] += t.Size[v]
	}
	return nil
}

func (t *Rooted) buildLifting() {
	n := t.G.N
	lg := 1
	for 1<<lg < n {
		lg++
	}
	t.up = make([][]int, lg+1)
	base := make([]int, n)
	for v := 0; v < n; v++ {
		if t.Parent[v] >= 0 {
			base[v] = t.Parent[v]
		} else {
			base[v] = v
		}
	}
	t.up[0] = base
	for k := 1; k <= lg; k++ {
		prev := t.up[k-1]
		cur := make([]int, n)
		for v := 0; v < n; v++ {
			cur[v] = prev[prev[v]]
		}
		t.up[k] = cur
	}
}

// IsAncestor reports whether u is an ancestor of v (inclusive: every vertex
// is an ancestor of itself). This is the local test enabled by LCA labels in
// the paper (Section 4.1).
func (t *Rooted) IsAncestor(u, v int) bool {
	return t.Tin[u] <= t.Tin[v] && t.Tout[v] <= t.Tout[u]
}

// LCA returns the lowest common ancestor of u and v via binary lifting.
func (t *Rooted) LCA(u, v int) int {
	if t.IsAncestor(u, v) {
		return u
	}
	if t.IsAncestor(v, u) {
		return v
	}
	for k := len(t.up) - 1; k >= 0; k-- {
		if !t.IsAncestor(t.up[k][u], v) {
			u = t.up[k][u]
		}
	}
	return t.Parent[u]
}

// KthAncestor returns the ancestor of v at distance k, or the root if k
// exceeds Depth[v].
func (t *Rooted) KthAncestor(v, k int) int {
	if k > t.Depth[v] {
		k = t.Depth[v]
	}
	for i := 0; k > 0; i, k = i+1, k>>1 {
		if k&1 == 1 {
			v = t.up[i][v]
		}
	}
	return v
}

// TreeEdgeIDs returns the graph edge ids of all tree edges.
func (t *Rooted) TreeEdgeIDs() []int {
	out := make([]int, 0, t.G.N-1)
	for v := 0; v < t.G.N; v++ {
		if t.ParentEdge[v] >= 0 {
			out = append(out, t.ParentEdge[v])
		}
	}
	return out
}

// IsTreeEdge reports whether graph edge id belongs to the tree.
func (t *Rooted) IsTreeEdge(id int) bool {
	e := t.G.Edges[id]
	return t.ParentEdge[e.U] == id || t.ParentEdge[e.V] == id
}

// NonTreeEdgeIDs returns the graph edge ids not in the tree.
func (t *Rooted) NonTreeEdgeIDs() []int {
	out := make([]int, 0, t.G.M()-(t.G.N-1))
	for id := range t.G.Edges {
		if !t.IsTreeEdge(id) {
			out = append(out, id)
		}
	}
	return out
}

// Covers reports whether the (non-tree) edge {u,v} covers the tree edge with
// child endpoint c, i.e. whether the edge {c,Parent[c]} lies on the tree path
// between u and v (Section 2 of the paper).
func (t *Rooted) Covers(u, v, c int) bool {
	// {c,p(c)} is on P(u,v) iff exactly one of u,v is in the subtree of c,
	// equivalently c is an ancestor of exactly one of them... precisely:
	// the path P(u,v) passes c's parent edge iff (c ancestor of u) XOR
	// (c ancestor of v).
	return t.IsAncestor(c, u) != t.IsAncestor(c, v)
}

// PathLen returns the number of edges on the tree path between u and v.
func (t *Rooted) PathLen(u, v int) int {
	w := t.LCA(u, v)
	return t.Depth[u] + t.Depth[v] - 2*t.Depth[w]
}

// Weight returns the total weight of the tree.
func (t *Rooted) Weight() graph.Weight {
	var s graph.Weight
	for v := 0; v < t.G.N; v++ {
		if t.ParentEdge[v] >= 0 {
			s += t.G.Edges[t.ParentEdge[v]].W
		}
	}
	return s
}

// Height returns the maximum depth.
func (t *Rooted) Height() int {
	h := 0
	for _, d := range t.Depth {
		if d > h {
			h = d
		}
	}
	return h
}

// HeavyLight computes a heavy-light decomposition per Definition 5.3: edge
// {v,parent} is heavy iff Size[v] > Size[parent]/2. It returns head[v], the
// topmost vertex of the heavy path containing v, and isHeavy[v] reporting
// whether v's parent edge is heavy. Every root-to-leaf path contains at most
// log2(n) light edges.
func (t *Rooted) HeavyLight() (head []int, isHeavy []bool) {
	n := t.G.N
	head = make([]int, n)
	isHeavy = make([]bool, n)
	for _, v := range t.Order {
		p := t.Parent[v]
		if p >= 0 && 2*t.Size[v] > t.Size[p] {
			isHeavy[v] = true
			head[v] = head[p]
		} else {
			head[v] = v
		}
	}
	return head, isHeavy
}

// LightEdgesToRoot returns for each vertex the list of child endpoints of
// the light edges on its path to the root, bottom-up. Lists have length at
// most log2(n)+1.
func (t *Rooted) LightEdgesToRoot() [][]int {
	_, isHeavy := t.HeavyLight()
	out := make([][]int, t.G.N)
	for _, v := range t.Order {
		p := t.Parent[v]
		if p < 0 {
			continue
		}
		if isHeavy[v] {
			out[v] = out[p]
		} else {
			lst := make([]int, 0, len(out[p])+1)
			lst = append(lst, v)
			lst = append(lst, out[p]...)
			out[v] = lst
		}
	}
	return out
}
