package primitives

import (
	"maps"
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

// tableMap copies a KeyedSumOrdered table into a map, checking that its
// keys ascend.
func tableMap(t *testing.T, tab KeyedValues) map[congest.Word]congest.Word {
	t.Helper()
	m := make(map[congest.Word]congest.Word, len(tab.Keys))
	for i, k := range tab.Keys {
		if i > 0 && tab.Keys[i-1] >= k {
			t.Fatalf("table keys not ascending: %v", tab.Keys)
		}
		m[k] = tab.Vals[i]
	}
	return m
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
		tab, err := KeyedSumOrdered(net, rt, new(Scratch), toKeyedValues(perNode), sum)
		if err != nil {
			t.Fatal(err)
		}
		got := tableMap(t, tab)
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
	tab, err := KeyedSumOrdered(net, rt, new(Scratch), toKeyedValues(perNode), sum)
	if err != nil {
		t.Fatal(err)
	}
	got := tableMap(t, tab)
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

// TestKeyedSumOrderedHandsBackArrays reuses one perNode and one Scratch
// across calls, the way segments.Aggregator does: every call must leave
// each entry empty, and a refilled input must give the same table at the
// same cost.
func TestKeyedSumOrderedHandsBackArrays(t *testing.T) {
	const n = 60
	net, rt := testNet(t, 5, n)
	rng := rand.New(rand.NewSource(5))
	in := make([]map[congest.Word]congest.Word, n)
	for v := range in {
		in[v] = map[congest.Word]congest.Word{}
		for j := 0; j < rng.Intn(4); j++ {
			in[v][congest.Word(rng.Intn(12))] = congest.Word(1 + rng.Intn(50))
		}
	}
	sum := func(a, b congest.Word) congest.Word { return a + b }
	perNode := make([]KeyedValues, n)
	var sc Scratch
	var first map[congest.Word]congest.Word
	var firstCost congest.Stats
	for call := 0; call < 3; call++ {
		for v, m := range in {
			for k, val := range m {
				perNode[v].Keys = append(perNode[v].Keys, k)
				perNode[v].Vals = append(perNode[v].Vals, val)
			}
		}
		before := net.Stats()
		tab, err := KeyedSumOrdered(net, rt, &sc, perNode, sum)
		if err != nil {
			t.Fatal(err)
		}
		got := tableMap(t, tab)
		after := net.Stats()
		cost := congest.Stats{
			SimulatedRounds: after.SimulatedRounds - before.SimulatedRounds,
			Messages:        after.Messages - before.Messages,
			Words:           after.Words - before.Words,
		}
		for v, kv := range perNode {
			if len(kv.Keys) != 0 || len(kv.Vals) != 0 {
				t.Fatalf("call %d: vertex %d handed back %d keys, %d values", call, v, len(kv.Keys), len(kv.Vals))
			}
		}
		if call == 0 {
			first, firstCost = got, cost
			continue
		}
		if !maps.Equal(got, first) || cost != firstCost {
			t.Fatalf("call %d: table %v cost %+v, first call %v cost %+v", call, got, cost, first, firstCost)
		}
	}
}
