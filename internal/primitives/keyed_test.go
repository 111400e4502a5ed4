package primitives

import (
	"math/rand"
	"testing"

	"twoecss/internal/congest"
	"twoecss/internal/graph"
)

// toKeyedValues converts the map-based test fixtures to the flat
// KeyedSumOrdered input (unsorted; the primitive sorts).
func toKeyedValues(perNode []map[congest.Word]congest.Word) []KeyedValues {
	out := make([]KeyedValues, len(perNode))
	for v, m := range perNode {
		for k, val := range m {
			out[v].Keys = append(out[v].Keys, k)
			out[v].Vals = append(out[v].Vals, val)
		}
	}
	return out
}

func TestKeyedSumOrderedExact(t *testing.T) {
	for _, n := range []int{2, 5, 30, 80} {
		net, rt := testNet(t, int64(n), n)
		rng := rand.New(rand.NewSource(int64(n * 3)))
		perNode := make([]map[congest.Word]congest.Word, n)
		want := map[congest.Word]congest.Word{}
		for v := 0; v < n; v++ {
			perNode[v] = map[congest.Word]congest.Word{}
			for j := 0; j < rng.Intn(5); j++ {
				k := congest.Word(rng.Intn(9))
				val := congest.Word(1 + rng.Intn(50))
				perNode[v][k] += val
			}
			for k, val := range perNode[v] {
				want[k] += val
			}
		}
		sum := func(a, b congest.Word) congest.Word { return a + b }
		got, err := KeyedSumOrdered(net, rt, toKeyedValues(perNode), sum)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: got %d keys, want %d", n, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("n=%d key %d: got %d, want %d", n, k, got[k], v)
			}
		}
	}
}

func TestKeyedSumOrderedPipelines(t *testing.T) {
	// Path graph: K keys spread along the path must cost O(n + K), not
	// O(n*K).
	n, K := 80, 24
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	net := congest.NewNetwork(g)
	rt, err := BuildBFS(net, 0)
	if err != nil {
		t.Fatal(err)
	}
	perNode := make([]map[congest.Word]congest.Word, n)
	for v := 0; v < n; v++ {
		perNode[v] = map[congest.Word]congest.Word{congest.Word(v % K): 1}
	}
	base := net.Stats().SimulatedRounds
	sum := func(a, b congest.Word) congest.Word { return a + b }
	got, err := KeyedSumOrdered(net, rt, toKeyedValues(perNode), sum)
	if err != nil {
		t.Fatal(err)
	}
	rounds := net.Stats().SimulatedRounds - base
	if rounds > int64(3*n+6*K+20) {
		t.Fatalf("keyed sum took %d rounds on path %d with %d keys", rounds, n, K)
	}
	var total congest.Word
	for _, v := range got {
		total += v
	}
	if total != congest.Word(n) {
		t.Fatalf("total mass %d, want %d", total, n)
	}
}
