package primitives

import (
	"math/rand"
	"slices"
	"testing"

	"twoecss/internal/congest"
	"twoecss/internal/graph"
)

// activeRun runs one primitive under a fresh round recorder and checks
// that no handler call was idle. A call after a run's first round either
// has mail, which messages of the previous round delivered, or sends
// without mail, as a pipelined sender streaming its next item does. So
// round r schedules at most Messages[r-1] + Messages[r] nodes, and the run
// schedules at most start + 2*messages in total; a one-shot convergecast
// never sends without mail and stays within start + messages. The first
// round schedules exactly the start set.
func activeRun(t *testing.T, net *congest.Network, name string, start int, oneShot bool, run func() error) {
	t.Helper()
	rec := congest.NewRoundRecorder(1<<14, 1)
	net.Observer = rec
	defer func() { net.Observer = nil }()
	if err := run(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	samples := rec.Samples()
	if int64(len(samples)) != rec.Observed() {
		t.Fatalf("%s: recorder thinned %d rounds", name, rec.Observed())
	}
	if len(samples) == 0 || samples[0].Active != start {
		t.Fatalf("%s: first round scheduled %v nodes, want the %d start nodes", name, samples[:min(1, len(samples))], start)
	}
	var active, messages int64
	for r, s := range samples {
		active += int64(s.Active)
		messages += s.Messages
		if r == 0 {
			continue
		}
		bound := samples[r-1].Messages
		if !oneShot {
			bound += s.Messages
		}
		if int64(s.Active) > bound {
			t.Fatalf("%s: round %d scheduled %d nodes with %d messages in and %d out", name, r+1, s.Active, samples[r-1].Messages, s.Messages)
		}
	}
	limit := int64(start) + 2*messages
	if oneShot {
		limit = int64(start) + messages
	}
	if active > limit {
		t.Fatalf("%s: %d handler calls for %d start nodes and %d messages", name, active, start, messages)
	}
}

// TestHandlersRunOnlyWithWork checks that KeyedSumOrdered, Gather and
// SubtreeAggregate start only at the nodes that can act without mail and
// keep no node scheduled that waits for mail, over deep and bushy trees.
func TestHandlersRunOnlyWithWork(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sum := func(a, b congest.Word) congest.Word { return a + b }
	for trial := 0; trial < 9; trial++ {
		n := 20 + rng.Intn(100)
		cfg := graph.GenConfig{Mode: graph.WeightUniform, MaxW: 10, Rng: rng}
		var g *graph.Graph
		root := rng.Intn(n)
		switch trial % 3 {
		case 0: // a bare path rooted at one end: every key travels n-1 hops
			g, root = graph.New(n), 0
			for v := 1; v < n; v++ {
				g.MustAddEdge(v-1, v, 1)
			}
		case 1:
			g = graph.PathWithIntervals(n, n/4, cfg)
		default:
			g = graph.RandomSpanningTreePlus(n, n/2, cfg)
		}
		net := congest.NewNetwork(g)
		rt, err := BuildBFS(net, root)
		if err != nil {
			t.Fatal(err)
		}
		leaves := 0
		for _, kids := range rt.Children {
			if len(kids) == 0 {
				leaves++
			}
		}
		var sc Scratch

		kv := make([]KeyedValues, n)
		for v := range kv {
			for k := range rng.Intn(3) {
				kv[v].Keys = append(kv[v].Keys, congest.Word(3*k+rng.Intn(3)))
				kv[v].Vals = append(kv[v].Vals, 1)
			}
		}
		activeRun(t, net, "KeyedSumOrdered", leaves, false, func() error {
			_, err := KeyedSumOrdered(net, rt, &sc, kv, sum)
			return err
		})

		perNode := make([][]Item, n)
		holders := 0
		for v := range perNode {
			if rng.Intn(5) == 0 {
				holders++
				for range 1 + rng.Intn(3) {
					perNode[v] = append(perNode[v], Item{congest.Word(v)})
				}
			}
		}
		if holders == 0 {
			perNode[n-1], holders = []Item{{1}}, 1
		}
		activeRun(t, net, "Gather", holders, false, func() error {
			_, err := Gather(net, rt, &sc, perNode)
			return err
		})
		// With no items the root alone runs, for the call's one round.
		activeRun(t, net, "Gather of nothing", 1, true, func() error {
			_, err := Gather(net, rt, &sc, make([][]Item, n))
			return err
		})

		x := make([]congest.Word, n)
		activeRun(t, net, "SubtreeAggregate", leaves, true, func() error {
			_, err := SubtreeAggregate(net, rt, &sc, x, sum)
			return err
		})
	}
}

// TestResultsSurviveLaterCalls checks that what Gather, Broadcast and
// GatherBroadcast return aliases neither the Scratch nor the engine's
// payload arena: later calls with the same Scratch on the same network,
// a second Gather and a KeyedSumOrdered among them, leave it intact.
func TestResultsSurviveLaterCalls(t *testing.T) {
	const n = 50
	net, rt := testNet(t, 13, n)
	var sc Scratch
	items := func(base congest.Word) [][]Item {
		perNode := make([][]Item, n)
		for v := 0; v < n; v += 4 {
			perNode[v] = []Item{{base + congest.Word(v)}}
		}
		return perNode
	}
	firstItems := []Item{{1}, {2}, {3}}
	gathered, err := Gather(net, rt, &sc, items(1000))
	if err != nil {
		t.Fatal(err)
	}
	received, err := Broadcast(net, rt, &sc, firstItems)
	if err != nil {
		t.Fatal(err)
	}
	everywhere, err := GatherBroadcast(net, rt, &sc, items(2000))
	if err != nil {
		t.Fatal(err)
	}
	// snapshot deep-copies every returned item in a fixed order.
	snapshot := func() []Item {
		all := slices.Clone(gathered)
		for v := range n {
			all = append(all, received[v]...)
			all = append(all, everywhere[v]...)
		}
		for i, it := range all {
			all[i] = slices.Clone(it)
		}
		return all
	}
	before := snapshot()

	// Different inputs through every primitive that shares the Scratch.
	if _, err := Gather(net, rt, &sc, items(3000)); err != nil {
		t.Fatal(err)
	}
	if _, err := Broadcast(net, rt, &sc, []Item{{7}}); err != nil {
		t.Fatal(err)
	}
	if _, err := GatherBroadcast(net, rt, &sc, items(4000)); err != nil {
		t.Fatal(err)
	}
	if err := GatherBroadcastAll(net, rt, &sc, items(5000)); err != nil {
		t.Fatal(err)
	}
	sum := func(a, b congest.Word) congest.Word { return a + b }
	if _, err := GlobalAggregate(net, rt, &sc, make([]congest.Word, n), sum); err != nil {
		t.Fatal(err)
	}
	kv := make([]KeyedValues, n)
	for v := range kv {
		kv[v] = KeyedValues{Keys: []congest.Word{congest.Word(v % 7)}, Vals: []congest.Word{6000 + congest.Word(v)}}
	}
	if _, err := KeyedSumOrdered(net, rt, &sc, kv, sum); err != nil {
		t.Fatal(err)
	}

	after := snapshot()
	if len(after) != len(before) {
		t.Fatalf("results changed length: %d items, then %d", len(before), len(after))
	}
	for i := range before {
		if !slices.Equal(before[i], after[i]) {
			t.Fatalf("result item %d changed from %v to %v", i, before[i], after[i])
		}
	}
	for v := range n {
		if len(received[v]) != len(firstItems) || len(everywhere[v]) != n/4+1 {
			t.Fatalf("vertex %d holds %d broadcast and %d gathered items", v, len(received[v]), len(everywhere[v]))
		}
	}
	if len(gathered) != n/4+1 {
		t.Fatalf("gathered %d items, want %d", len(gathered), n/4+1)
	}
}
