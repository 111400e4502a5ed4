package shortcuts

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"twoecss/internal/congest"
	"twoecss/internal/graph"
	"twoecss/internal/mst"
	"twoecss/internal/primitives"
)

// aggPin is one Aggregate call's observable schedule: the network's cost
// delta and an FNV-1a digest of the returned values.
type aggPin struct {
	Rounds, Messages, Words int64
	MaxEdgeWords            int
	Out                     uint64
}

// e4Tools builds an E4-style Tools: the family at n (seed 1) on a fresh
// network, a Kruskal tree for the hierarchy and the named builder over a
// BFS tree, whose construction the network has billed.
func e4Tools(tb testing.TB, fam string, n int, builder string) *Tools {
	tb.Helper()
	g, err := graph.ByFamily(fam, n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	net := congest.NewNetwork(g)
	bfs, err := primitives.BuildBFS(net, 0)
	if err != nil {
		tb.Fatal(err)
	}
	rt, err := mst.KruskalTree(g, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	var b Builder = &SteinerBuilder{G: g, BFS: bfs}
	if builder == "global-bfs" {
		b = &GlobalBFSBuilder{G: g, BFS: bfs}
	}
	tl, err := NewTools(net, rt, b)
	if err != nil {
		tb.Fatal(err)
	}
	return tl
}

// aggFixture builds an E4-style network and one plan per hierarchy level
// above the leaves, exactly as Tools.billLevels iterates them.
func aggFixture(tb testing.TB, fam string, n int, builder string) (*congest.Network, []*AggPlan) {
	tb.Helper()
	tl := e4Tools(tb, fam, n, builder)
	if err := tl.ensureLevels(); err != nil {
		tb.Fatal(err)
	}
	var plans []*AggPlan
	for _, ls := range tl.levels {
		plans = append(plans, ls.plan)
	}
	return tl.Net, plans
}

// scheduleOp is deliberately not commutative, so the returned values
// depend on the order in which every vertex combines its arrivals: a
// changed schedule changes the digest even when the cost does not.
func scheduleOp(a, b Word) Word { return a*1000003 ^ b }

func aggInput(n int) []Word {
	x := make([]Word, n)
	for v := range x {
		x[v] = Word(v*7919%1009 + 1)
	}
	return x
}

func digestWords(ws []Word) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, w := range ws {
		for i := range b {
			b[i] = byte(uint64(w) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestAggregateSchedule pins what Aggregate returns and costs on every
// hierarchy level of two E4 fixtures under both E4 builders: simulated
// rounds, messages, words, the widest edge-round and the values (combined
// in arrival order). Every vertex must send the same messages in the same
// rounds, and a plan must give the same answer when reused.
func TestAggregateSchedule(t *testing.T) {
	want := map[string][]aggPin{
		"treeleafcycle/steiner": {
			{14, 294, 882, 3, 0x5e96c98a264a326a},
			{13, 342, 1026, 3, 0xc5d7ee11733ce936},
			{14, 308, 924, 3, 0x152e3801b0023496},
			{18, 270, 810, 3, 0x2431fedd7171509b},
			{13, 250, 750, 3, 0x2f7006d70c6f2467},
			{13, 252, 756, 3, 0x730c089f51ce1680},
		},
		"treeleafcycle/global-bfs": {
			{5, 126, 378, 3, 0x5e96c98a264a326a},
			{11, 188, 564, 3, 0xc17be9a8fbe2ac6d},
			{24, 1062, 3186, 3, 0xae15a04556f1dfd1},
			{18, 528, 1584, 3, 0x2431fedd7171509b},
			{13, 258, 774, 3, 0x2f7006d70c6f2467},
			{13, 252, 756, 3, 0x730c089f51ce1680},
		},
		"er/steiner": {
			{10, 338, 1014, 3, 0x7aa4750834326e7d},
			{8, 334, 1002, 3, 0xd84fb6d6622a88ee},
			{10, 340, 1020, 3, 0xb8ef4bffc82dbc9d},
			{7, 276, 828, 3, 0x3ee149daa55b0c92},
			{7, 252, 756, 3, 0xa6e702844a5ad78e},
		},
		"er/global-bfs": {
			{5, 122, 366, 3, 0xbd454f4dc45b121},
			{12, 622, 1866, 3, 0x86634a6c0e6dee90},
			{10, 590, 1770, 3, 0xa52b57e957ac9f06},
			{9, 284, 852, 3, 0x3b8378acb9465e98},
			{7, 252, 756, 3, 0xa6e702844a5ad78e},
		},
	}
	for _, fx := range []struct{ fam, builder string }{
		{"treeleafcycle", "steiner"},
		{"treeleafcycle", "global-bfs"},
		{"er", "steiner"},
		{"er", "global-bfs"},
	} {
		name := fx.fam + "/" + fx.builder
		net, plans := aggFixture(t, fx.fam, 127, fx.builder)
		x := aggInput(net.G.N)
		var got []aggPin
		for li, plan := range plans {
			for rep := 0; rep < 2; rep++ {
				net.ResetAccounting()
				out, err := plan.Aggregate(net, x, scheduleOp)
				if err != nil {
					t.Fatalf("%s level %d: %v", name, li+1, err)
				}
				s := net.Stats()
				pin := aggPin{s.SimulatedRounds, s.Messages, s.Words, s.MaxEdgeWords, digestWords(out)}
				if rep == 0 {
					got = append(got, pin)
				} else if pin != got[li] {
					t.Fatalf("%s level %d: reused plan gave %+v, first run %+v", name, li+1, pin, got[li])
				}
			}
		}
		if !slices.Equal(want[name], got) {
			t.Errorf("%s: schedule changed\n got %s\nwant %s", name, goLiteral(got), goLiteral(want[name]))
		}
	}
}

func goLiteral(ps []aggPin) string {
	s := "{\n"
	for _, p := range ps {
		s += fmt.Sprintf("\t{%d, %d, %d, %d, %#x},\n", p.Rounds, p.Messages, p.Words, p.MaxEdgeWords, p.Out)
	}
	return s + "}"
}

// TestAggPlanWarmRunAllocs checks that once a plan has run, a run of it
// allocates nothing: the queues live in its arena and the engine reuses
// its buffers. The fixtures are BenchmarkAggregate's.
func TestAggPlanWarmRunAllocs(t *testing.T) {
	or := func(a, b Word) Word { return a | b }
	for _, fx := range aggBenchFixtures {
		net, plans := aggFixture(t, fx.fam, 127, fx.builder)
		x := aggInput(net.G.N)
		for li, plan := range plans {
			run := func() {
				if err := plan.simulate(net, x, or); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
				t.Errorf("%s/%s level %d: a warm run allocated %.1f objects, want 0", fx.fam, fx.builder, li+1, allocs)
			}
		}
	}
}

var aggBenchFixtures = []struct{ fam, builder string }{
	{"treeleafcycle", "steiner"},
	{"er", "global-bfs"},
}

// BenchmarkAggregate times one pass over every hierarchy level of an E4
// fixture: the per-level aggregations the first Tools.billLevels call on
// a network simulates (later calls rebill their measured cost). One pass
// before the timed loop grows the plans' arenas, so allocs/op counts a
// warm pass at any -benchtime.
func BenchmarkAggregate(b *testing.B) {
	for _, fx := range aggBenchFixtures {
		b.Run(fmt.Sprintf("%s-%s-n127", fx.fam, fx.builder), func(b *testing.B) {
			net, plans := aggFixture(b, fx.fam, 127, fx.builder)
			x := aggInput(net.G.N)
			or := func(a, b Word) Word { return a | b }
			pass := func() {
				for _, plan := range plans {
					if _, err := plan.Aggregate(net, x, or); err != nil {
						b.Fatal(err)
					}
				}
			}
			pass()
			b.ReportAllocs()
			var msgs int64
			for b.Loop() {
				before := net.Stats().Messages
				pass()
				msgs = net.Stats().Messages - before
			}
			b.ReportMetric(float64(msgs), "msgs/op")
		})
	}
}

// BenchmarkToolsCoverCount times a warm Tools.CoverCount (Lemma 5.5), the
// call set cover makes every phase, on the er/global-BFS E4 fixture: the
// aggregations are rebilled, so this is the tool's central work.
func BenchmarkToolsCoverCount(b *testing.B) {
	tl := e4Tools(b, "er", 127, "global-bfs")
	marked := make([]bool, tl.T.G.N)
	for v := range marked {
		marked[v] = v%3 != 0
	}
	if _, err := tl.CoverCount(marked); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := tl.CoverCount(marked); err != nil {
			b.Fatal(err)
		}
	}
}
