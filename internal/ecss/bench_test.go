package ecss

import (
	"testing"

	"twoecss/internal/graph"
)

// BenchmarkSolveLarge times one solve of an n=4096 instance
// per iteration. Its allocation count tracks the tap set-up, whose cover
// structure decides how far a cold solve scales.
func BenchmarkSolveLarge(b *testing.B) {
	for _, family := range []string{"er", "ring"} {
		g, err := graph.ByFamily(family, 4096, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(family+"/n=4096", func(b *testing.B) {
			opt := DefaultOptions()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Solve(g, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveCold times the solve a cold request pays: one
// Solve plus Verify of an n=256 instance on a fresh network,
// over the five families round-robin.
func BenchmarkSolveCold(b *testing.B) {
	var gs []*graph.Graph
	for _, family := range []string{"er", "grid", "ring", "random", "ba"} {
		g, err := graph.ByFamily(family, 256, 1)
		if err != nil {
			b.Fatal(err)
		}
		gs = append(gs, g)
	}
	opt := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := gs[i%len(gs)]
		res, _, err := Solve(g, opt)
		if err != nil {
			b.Fatal(err)
		}
		if err := Verify(g, res); err != nil {
			b.Fatal(err)
		}
	}
}
