package graph

import (
	"fmt"
	"slices"
	"testing"
)

// addEdgeBuild is the reference FromEdges must match: New plus one
// AddEdge per edge, in order.
func addEdgeBuild(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g := New(n)
	for _, e := range edges {
		g.MustAddEdge(e.U, e.V, e.W)
	}
	return g
}

func TestFromEdgesMatchesAddEdge(t *testing.T) {
	for _, f := range Families() {
		src, err := ByFamily(f, 256, 7)
		if err != nil {
			t.Fatal(err)
		}
		want := addEdgeBuild(t, src.N, src.Edges)
		got, err := FromEdges(src.N, slices.Clone(src.Edges))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if got.N != want.N || !slices.Equal(got.Edges, want.Edges) {
			t.Fatalf("%s: edges differ", f)
		}
		for v := 0; v < want.N; v++ {
			if !slices.Equal(got.Incident(v), want.Incident(v)) {
				t.Fatalf("%s: Incident(%d) = %v, want %v", f, v, got.Incident(v), want.Incident(v))
			}
			if !slices.Equal(got.Row(v), want.Row(v)) {
				t.Fatalf("%s: Row(%d) differs", f, v)
			}
		}
		if got.Hash() != want.Hash() {
			t.Fatalf("%s: Hash differs", f)
		}
	}
}

// TestFromEdgesAddEdgeKeepsNeighbours checks the capacity invariant: each
// incidence list is carved from one shared array with capacity equal to
// its degree, so appending to one vertex's list must not overwrite the
// next vertex's.
func TestFromEdgesAddEdgeKeepsNeighbours(t *testing.T) {
	src, err := ByFamily("ring", 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := FromEdges(src.N, slices.Clone(src.Edges))
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]int, g.N)
	for v := range before {
		before[v] = slices.Clone(g.Incident(v))
	}
	id := g.MustAddEdge(0, 5, 1)
	for v := 0; v < g.N; v++ {
		want := before[v]
		if v == 0 || v == 5 {
			want = append(slices.Clone(want), id)
		}
		if !slices.Equal(g.Incident(v), want) {
			t.Fatalf("Incident(%d) = %v after AddEdge, want %v", v, g.Incident(v), want)
		}
	}
}

func TestFromEdgesErrors(t *testing.T) {
	for _, bad := range []Edge{{U: 2, V: 2, W: 1}, {U: 0, V: 4, W: 1}, {U: -1, V: 1, W: 1}} {
		edges := []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, bad}
		_, err := FromEdges(4, edges)
		_, addErr := New(4).AddEdge(bad.U, bad.V, bad.W)
		if err == nil || addErr == nil {
			t.Fatalf("%v: FromEdges err %v, AddEdge err %v; want both to fail", bad, err, addErr)
		}
		if want := fmt.Sprintf("edge 2: %v", addErr); err.Error() != want {
			t.Fatalf("%v: FromEdges error %q, want %q", bad, err, want)
		}
	}
}
