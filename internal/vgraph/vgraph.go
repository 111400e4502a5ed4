// Package vgraph builds the virtual graph G' of Section 4.1 (following
// Khuller–Thurimella and Censor-Hillel–Dory): every non-tree edge {u,v} of
// the input graph is replaced by one virtual edge (if u,v are already in
// ancestor-descendant relation) or by the two virtual edges {u,w}, {v,w}
// where w = LCA(u,v). All virtual edges run between an ancestor and a
// descendant and cover exactly the same tree edges as their original edge,
// so by Lemma 4.1 an α-approximate augmentation in G' projects to a
// 2α-approximate augmentation in G.
//
// Each virtual edge is simulated by its descendant endpoint, which knows the
// LCA labels of both endpoints; covering tests against tree edges are then
// purely label-local (Observation 1).
package vgraph

import (
	"fmt"
	"slices"

	"twoecss/internal/graph"
	"twoecss/internal/lca"
	"twoecss/internal/tree"
)

// VEdge is a virtual ancestor-to-descendant non-tree edge.
type VEdge struct {
	// ID is the dense virtual edge id.
	ID int
	// Anc and Dec are the endpoints (Anc is an ancestor of Dec).
	Anc, Dec int
	// AncL and DecL are the LCA labels of the endpoints; the descendant
	// endpoint, which simulates the edge, knows both.
	AncL, DecL lca.Label
	// Orig is the id (in the input graph) of the original non-tree edge
	// this virtual edge derives from.
	Orig int
	// W is the weight, inherited from the original edge.
	W graph.Weight
}

// VGraph is the virtual graph: the tree of the input graph plus virtual
// ancestor-descendant non-tree edges.
type VGraph struct {
	T      *tree.Rooted
	Lab    *lca.Labeling
	VEdges []VEdge
	// firstVirt[orig] is the first of the 1 or 2 consecutive virtual edge
	// ids derived from original edge orig (-1 for tree edges).
	firstVirt []int32
}

// Build constructs G' from the rooted tree t and labeling lb of the input
// graph. Non-tree edges whose endpoints coincide after LCA-splitting (an
// endpoint equal to the LCA) produce a single virtual edge.
func Build(t *tree.Rooted, lb *lca.Labeling) (*VGraph, error) {
	edges := t.G.Edges
	vg := &VGraph{T: t, Lab: lb, firstVirt: make([]int32, len(edges))}
	// First pass: count the virtual edges so VEdges is allocated once.
	// firstVirt[id] holds the LCA of non-tree edge id until the second
	// pass overwrites it.
	nv := 0
	for id, e := range edges {
		vg.firstVirt[id] = -1
		if t.IsTreeEdge(id) {
			continue
		}
		wl, err := lca.LCA(lb.Of(e.U), lb.Of(e.V))
		if err != nil {
			return nil, fmt.Errorf("vgraph: %w", err)
		}
		vg.firstVirt[id] = int32(wl.ID)
		if wl.ID == e.U || wl.ID == e.V {
			nv++
		} else {
			nv += 2
		}
	}
	vg.VEdges = make([]VEdge, 0, nv)
	add := func(anc, dec, orig int, w graph.Weight) {
		id := len(vg.VEdges)
		vg.VEdges = append(vg.VEdges, VEdge{
			ID: id, Anc: anc, Dec: dec,
			AncL: lb.Of(anc).Core, DecL: lb.Of(dec).Core,
			Orig: orig, W: w,
		})
	}
	for id, e := range edges {
		w := int(vg.firstVirt[id])
		if w < 0 {
			continue
		}
		vg.firstVirt[id] = int32(len(vg.VEdges))
		switch {
		case w == e.U:
			add(e.U, e.V, id, e.W)
		case w == e.V:
			add(e.V, e.U, id, e.W)
		default:
			add(w, e.U, id, e.W)
			add(w, e.V, id, e.W)
		}
	}
	return vg, nil
}

// Covers reports whether virtual edge ve covers the tree edge whose child
// endpoint is c (label-local, Observation 1).
func (vg *VGraph) Covers(ve int, c int) bool {
	e := vg.VEdges[ve]
	return lca.Covers(vg.Lab.Of(c).Core, e.AncL, e.DecL)
}

// CoveredTreeEdges returns the child endpoints of all tree edges covered by
// ve, i.e. the vertices on the tree path from Dec up to (excluding) Anc.
func (vg *VGraph) CoveredTreeEdges(ve int) []int {
	e := vg.VEdges[ve]
	var out []int
	for x := e.Dec; x != e.Anc; x = vg.T.Parent[x] {
		out = append(out, x)
	}
	return out
}

// FullyCovers reports whether the set of virtual edges (given as a
// membership predicate over virtual edge ids) covers every tree edge.
func (vg *VGraph) FullyCovers(in func(ve int) bool) bool {
	n := vg.T.G.N
	parent := vg.T.Parent
	covered := make([]bool, n)
	for ve := range vg.VEdges {
		if !in(ve) {
			continue
		}
		e := &vg.VEdges[ve]
		for x := e.Dec; x != e.Anc; x = parent[x] {
			covered[x] = true
		}
	}
	for v := 0; v < n; v++ {
		if v != vg.T.Root && !covered[v] {
			return false
		}
	}
	return true
}

// Project maps a set of virtual edge ids back to original graph edge ids
// (Lemma 4.1): each virtual edge is replaced by its originating edge, with
// duplicates removed. The weight of the projection is at most the weight of
// the virtual set.
func (vg *VGraph) Project(ves []int) []int {
	seen := make(map[int]bool, len(ves))
	out := make([]int, 0, len(ves))
	for _, ve := range ves {
		o := vg.VEdges[ve].Orig
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	slices.Sort(out)
	return out
}

// VirtualOf returns the virtual edge ids derived from original edge id
// (nil for a tree edge).
func (vg *VGraph) VirtualOf(orig int) []int {
	f := int(vg.firstVirt[orig])
	switch {
	case f < 0:
		return nil
	case f+1 < len(vg.VEdges) && vg.VEdges[f+1].Orig == orig:
		return []int{f, f + 1}
	default:
		return []int{f}
	}
}

// Weight sums the weights of the given virtual edges.
func (vg *VGraph) Weight(ves []int) graph.Weight {
	var s graph.Weight
	for _, ve := range ves {
		s += vg.VEdges[ve].W
	}
	return s
}

// BuildFromGraph is a convenience composing BFS-tree-independent pieces:
// given a graph and a root plus a precomputed spanning tree, it builds the
// labeling and the virtual graph.
func BuildFromGraph(t *tree.Rooted) (*VGraph, error) {
	return Build(t, lca.Build(t))
}
