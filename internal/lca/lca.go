// Package lca implements the LCA labeling scheme the paper relies on
// (Section 4.1, citing Alstrup et al., and Theorem 5.3): every vertex is
// assigned a short label such that, given only the labels of two vertices u
// and v, anyone can (a) test whether u is an ancestor of v, (b) compute the
// label of LCA(u,v), and (c) test whether a non-tree ancestor-descendant
// edge covers a given tree edge (Observation 1).
//
// The scheme combines preorder-interval labels (ancestry tests) with
// heavy-light light-edge lists (LCA computation): a vertex's label carries
// the identifiers of the at most log2(n) light edges on its root path, so
// the label occupies O(log^2 n) bits and fits in O(log n) CONGEST messages.
// The distributed construction is cited prior work; its round bill
// (congest.LCALabelRounds) is charged by callers that account rounds.
package lca

import (
	"fmt"

	"twoecss/internal/tree"
)

// Label is the per-vertex core label: preorder interval, depth, and the
// vertex id (all O(log n)-bit fields).
type Label struct {
	Tin, Tout, Depth, ID int
}

// Valid reports whether l looks like a real label (zero Labels have
// Tout == 0 which is impossible for any non-root vertex; the root has
// Tout = 2n-1 > 0).
func (l Label) Valid() bool { return l.Tout > 0 || l.Tin > 0 || l.ID > 0 }

// LightEdge identifies one light edge on a root path: the labels of its
// child and parent endpoints.
type LightEdge struct {
	Child, Parent Label
}

// VertexLabel is the complete label of a vertex: its core label plus the
// light edges on its path to the root, ordered bottom-up (deepest first).
type VertexLabel struct {
	Core Label
	// Light lists the light edges on the root path of the vertex, deepest
	// first; length is at most log2(n)+1.
	Light []LightEdge
}

// Labeling holds the labels of all vertices of one rooted tree.
type Labeling struct {
	Labels []VertexLabel
	n      int
}

// Build computes the labeling for t. The returned structure supports only
// label-local operations; algorithms ship labels around in messages.
func Build(t *tree.Rooted) *Labeling {
	n := t.G.N
	lb := &Labeling{Labels: make([]VertexLabel, n), n: n}
	core := make([]Label, n)
	for v := 0; v < n; v++ {
		core[v] = Label{Tin: t.Tin[v], Tout: t.Tout[v], Depth: t.Depth[v], ID: v}
	}
	lightChildren := t.LightEdgesToRoot()
	for v := 0; v < n; v++ {
		lst := make([]LightEdge, 0, len(lightChildren[v]))
		for _, c := range lightChildren[v] {
			lst = append(lst, LightEdge{Child: core[c], Parent: core[t.Parent[c]]})
		}
		lb.Labels[v] = VertexLabel{Core: core[v], Light: lst}
	}
	return lb
}

// Of returns the full label of vertex v.
func (lb *Labeling) Of(v int) VertexLabel { return lb.Labels[v] }

// IsAncestor reports whether a is an (inclusive) ancestor of b, from labels
// alone.
func IsAncestor(a, b Label) bool {
	return a.Tin <= b.Tin && b.Tout <= a.Tout
}

// SameVertex reports whether two labels denote the same vertex.
func SameVertex(a, b Label) bool { return a.Tin == b.Tin && a.Tout == b.Tout }

// Higher returns the label closer to the root (smaller depth); both labels
// must be on one root path for the result to be meaningful.
func Higher(a, b Label) Label {
	if a.Depth <= b.Depth {
		return a
	}
	return b
}

// LCA computes the label of the lowest common ancestor of u and v using
// only their labels (Theorem 5.3's local LCA rule).
func LCA(u, v VertexLabel) (Label, error) {
	if IsAncestor(u.Core, v.Core) {
		return u.Core, nil
	}
	if IsAncestor(v.Core, u.Core) {
		return v.Core, nil
	}
	// Common light edges are exactly the light edges of the LCA's root
	// path. Find the deepest common one, e, then the topmost light edges
	// strictly below e on each side; the shallower of their parent
	// endpoints is the LCA.
	lowestCommon := -1 // index into u.Light of the deepest common light edge
	common := func(le LightEdge, lst []LightEdge) bool {
		for _, o := range lst {
			if SameVertex(le.Child, o.Child) {
				return true
			}
		}
		return false
	}
	for i, le := range u.Light {
		if common(le, v.Light) {
			lowestCommon = i
			break // u.Light is deepest-first
		}
	}
	// Candidates: parent endpoints of the topmost light edges strictly
	// below the common prefix on each side.
	topBelow := func(lst []LightEdge, boundary Label) (Label, bool) {
		// lst is deepest-first; the topmost entry strictly below the
		// boundary (child of deepest common light edge) is the last
		// entry before the common suffix starts.
		var best Label
		found := false
		for _, le := range lst {
			if boundary.Valid() && !isBelow(le.Child, boundary) {
				break
			}
			best = le.Parent
			found = true
		}
		return best, found
	}
	var boundary Label
	if lowestCommon >= 0 {
		boundary = u.Light[lowestCommon].Child
	}
	cu, okU := topBelow(u.Light, boundary)
	cv, okV := topBelow(v.Light, boundary)
	switch {
	case okU && okV:
		return Higher(cu, cv), nil
	case okU:
		return cu, nil
	case okV:
		return cv, nil
	default:
		return Label{}, fmt.Errorf("lca: labels of %d and %d admit no LCA candidate (not the same tree?)",
			u.Core.ID, v.Core.ID)
	}
}

// isBelow reports whether a is a strict descendant of b.
func isBelow(a, b Label) bool {
	return IsAncestor(b, a) && !SameVertex(a, b)
}

// Covers implements Observation 1: given the label of the child endpoint v
// of a tree edge t = {v, parent(v)} and the labels (anc, dec) of a virtual
// ancestor-to-descendant edge, it reports whether the edge covers t. This
// needs no information beyond the three labels.
func Covers(treeChild, anc, dec Label) bool {
	return IsAncestor(treeChild, dec) && isBelow(treeChild, anc)
}
