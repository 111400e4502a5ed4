package ecss

import (
	"testing"

	"twoecss/internal/graph"
)

// BenchmarkSolveLarge times one single-worker solve of an n=4096 instance
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
			opt.Workers = 1
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := Solve(g, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
