package ecss

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"twoecss/internal/congest"
	"twoecss/internal/graph"
	"twoecss/internal/tap"
)

func gen2EC(seed int64, n, extra int, mode graph.WeightMode) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	cfg := graph.GenConfig{Mode: mode, MaxW: 500, Rng: rng}
	g := graph.RandomSpanningTreePlus(n, extra, cfg)
	if _, err := graph.Ensure2EC(g, cfg); err != nil {
		panic(err)
	}
	return g
}

func TestSolveEndToEnd(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"random40", gen2EC(1, 40, 40, graph.WeightUniform)},
		{"random80", gen2EC(2, 80, 60, graph.WeightSkewed)},
		{"ring", graph.RingWithChords(30, 8, graph.DefaultGenConfig(3))},
		{"grid", graph.Grid(6, 7, graph.DefaultGenConfig(4))},
		{"treeleafcycle", graph.TreeLeafCycle(5, graph.DefaultGenConfig(5))},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			res, net, err := Solve(tc.g, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(tc.g, res); err != nil {
				t.Fatal(err)
			}
			// Theorem 1.1 certified ratio: with eps=0.25 the bound is
			// 5+eps; the certificate may be looser than OPT so only the
			// proven bound is asserted.
			if res.CertifiedRatio > 5.5+1e-9 {
				t.Fatalf("certified ratio %.3f exceeds 5.5", res.CertifiedRatio)
			}
			if res.Weight < int64(res.LowerBound) {
				t.Fatalf("weight below its own lower bound")
			}
			if net.Stats().TotalRounds() == 0 {
				t.Fatal("no rounds billed")
			}
		})
	}
}

func TestSolveWithBoruvka(t *testing.T) {
	g := gen2EC(7, 35, 30, graph.WeightUniform)
	opt := DefaultOptions()
	opt.MST = MSTSimulateBoruvka
	res, _, err := Solve(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
	// Same tree weight as the charged-Kruskal mode (identical MST).
	res2, _, err := Solve(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeWeight != res2.TreeWeight {
		t.Fatalf("Boruvka and Kruskal disagree on MST weight: %d vs %d", res.TreeWeight, res2.TreeWeight)
	}
}

func TestSolveCover4Variant(t *testing.T) {
	g := gen2EC(9, 45, 45, graph.WeightUniform)
	opt := DefaultOptions()
	opt.Variant = tap.Cover4
	res, _, err := Solve(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}
	if res.CertifiedRatio > 9.8 {
		t.Fatalf("cover4 certified ratio %.3f exceeds 9+eps bound", res.CertifiedRatio)
	}
}

func TestSolveRejectsBadInput(t *testing.T) {
	// Bridge graph.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 0, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 2, 1) // parallel: makes edge {2,3} non-bridge
	res, _, err := Solve(g, DefaultOptions())
	if err != nil {
		t.Fatalf("parallel-edge graph should solve: %v", err)
	}
	if err := Verify(g, res); err != nil {
		t.Fatal(err)
	}

	bridge := graph.New(4)
	bridge.MustAddEdge(0, 1, 1)
	bridge.MustAddEdge(1, 2, 1)
	bridge.MustAddEdge(2, 0, 1)
	bridge.MustAddEdge(2, 3, 1)
	if _, _, err := Solve(bridge, DefaultOptions()); err == nil {
		t.Fatal("bridged graph accepted")
	}

	tiny := graph.New(2)
	tiny.MustAddEdge(0, 1, 1)
	if _, _, err := Solve(tiny, DefaultOptions()); err == nil {
		t.Fatal("2-vertex graph accepted")
	}

	disc := graph.New(6)
	disc.MustAddEdge(0, 1, 1)
	disc.MustAddEdge(1, 2, 1)
	disc.MustAddEdge(2, 0, 1)
	disc.MustAddEdge(3, 4, 1)
	disc.MustAddEdge(4, 5, 1)
	disc.MustAddEdge(5, 3, 1)
	if _, _, err := Solve(disc, DefaultOptions()); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestRemovalToleranceOfSolution(t *testing.T) {
	// The defining property of 2-ECSS: removing any single solution edge
	// keeps the subgraph connected.
	g := gen2EC(11, 30, 25, graph.WeightUniform)
	res, _, err := Solve(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sub := g.Subgraph(res.Edges)
	if !sub.TwoEdgeConnected() {
		t.Fatal("solution not 2-edge-connected")
	}
}

func TestStageSpans(t *testing.T) {
	g := gen2EC(11, 40, 35, graph.WeightUniform)
	for _, tc := range []struct {
		name string
		mst  MSTMode
	}{
		{"kutten-peleg", MSTChargeKuttenPeleg},
		{"boruvka", MSTSimulateBoruvka},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.MST = tc.mst
			var progress []string
			var seen []congest.PhaseSpan // the last stage span each Progress call saw
			net := congest.NewNetwork(g)
			opt.Progress = func(stage string) {
				progress = append(progress, stage)
				ph := net.Phases()
				for i := len(ph) - 1; i >= 0; i-- {
					if ph[i].Depth == 0 {
						seen = append(seen, ph[i])
						break
					}
				}
			}
			res, err := SolveOn(net, opt)
			if err != nil {
				t.Fatal(err)
			}
			var stages []string
			var spans []congest.PhaseSpan
			var sum congest.Stats
			epochs := 0
			for _, sp := range net.Phases() {
				if sp.Simulated < 0 || sp.Charged < 0 || sp.Messages < 0 || sp.Words < 0 {
					t.Fatalf("negative span: %+v", sp)
				}
				switch sp.Depth {
				case 0:
					stages = append(stages, sp.Name)
					spans = append(spans, sp)
					sum.SimulatedRounds += sp.Simulated
					sum.ChargedRounds += sp.Charged
					sum.Messages += sp.Messages
					sum.Words += sp.Words
				case 1:
					if stages[len(stages)-1] != "tap" || !strings.Contains(sp.Name, "epoch") {
						t.Fatalf("depth-1 span %q under stage %q", sp.Name, stages[len(stages)-1])
					}
					epochs++
				default:
					t.Fatalf("span %+v nested too deep", sp)
				}
			}
			want := []string{"bfs", "mst", "tap", "assemble"}
			if !slices.Equal(stages, want) || !slices.Equal(progress, want) {
				t.Fatalf("stage spans %v, progress %v, want %v", stages, progress, want)
			}
			// Progress runs after the previous stage's span has closed, so
			// it already reads that span's final cost.
			if !slices.Equal(seen, spans[:len(spans)-1]) {
				t.Fatalf("Progress saw stage spans %+v, final %+v", seen, spans)
			}
			if epochs == 0 {
				t.Fatal("no tap epoch spans at depth 1")
			}
			sum.MaxEdgeWords = res.Stats.MaxEdgeWords
			if sum != res.Stats {
				t.Fatalf("stage spans sum to %+v, result bill %+v", sum, res.Stats)
			}
			if spans[0].Simulated == 0 {
				t.Fatal("bfs stage billed zero simulated rounds")
			}
		})
	}
}
