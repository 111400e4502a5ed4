// Command ecss runs the (5+eps)-approximation 2-ECSS algorithm of
// Theorem 1.1 end to end on a generated instance and reports the solution,
// its certificate, and the CONGEST round bill per phase as a tree: one row
// per pipeline stage, with tap's epochs nested under it. The stage rows
// sum to the total bill.
//
// Usage:
//
//	ecss [-family er|grid|ring|treeleafcycle|random|ba] [-n 256] [-seed 1]
//	     [-eps 0.25] [-variant cover2|cover4] [-boruvka]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"twoecss/internal/ecss"
	"twoecss/internal/graph"
	"twoecss/internal/tap"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ecss:", err)
		os.Exit(1)
	}
}

func run() error {
	famName := flag.String("family", "er", "graph family ("+strings.Join(graph.Families(), "|")+")")
	n := flag.Int("n", 256, "number of vertices")
	seed := flag.Int64("seed", 1, "generator seed")
	eps := flag.Float64("eps", 0.25, "approximation slack")
	variant := flag.String("variant", "cover2", "reverse-delete variant: cover2|cover4")
	boruvka := flag.Bool("boruvka", false, "simulate the Boruvka MST at message level")
	flag.Parse()

	g, err := graph.ByFamily(*famName, *n, *seed)
	if err != nil {
		return err
	}
	opt := ecss.DefaultOptions()
	opt.Eps = *eps
	switch *variant {
	case "cover2":
		opt.Variant = tap.Cover2
	case "cover4":
		opt.Variant = tap.Cover4
	default:
		return fmt.Errorf("unknown variant %q", *variant)
	}
	if *boruvka {
		opt.MST = ecss.MSTSimulateBoruvka
	}

	res, net, err := ecss.Solve(g, opt)
	if err != nil {
		return err
	}
	if err := ecss.Verify(g, res); err != nil {
		return err
	}
	diam, err := g.DiameterApprox()
	if err != nil {
		return err
	}
	fmt.Printf("instance: family=%s n=%d m=%d D~%d\n", *famName, g.N, g.M(), diam)
	fmt.Printf("solution: %d edges, weight %d (tree %d + augmentation %d)\n",
		len(res.Edges), res.Weight, res.TreeWeight, res.AugWeight)
	fmt.Printf("certificate: lower bound %.1f, certified ratio %.3f (proven bound %.2f)\n",
		res.LowerBound, res.CertifiedRatio, 5+*eps)
	st := net.Stats()
	fmt.Printf("rounds: %d simulated + %d charged = %d total (messages %d)\n",
		st.SimulatedRounds, st.ChargedRounds, st.TotalRounds(), st.Messages)
	fmt.Printf("normalized: %.3f x (D+sqrt n)log^2(n)/eps\n",
		float64(st.TotalRounds())/((float64(diam)+math.Sqrt(float64(g.N)))*
			math.Log2(float64(g.N))*math.Log2(float64(g.N))/(*eps)))
	fmt.Println("phases:")
	for _, ph := range net.Phases() {
		fmt.Printf("  %-24s sim=%-8d charged=%-8d msgs=%d\n",
			strings.Repeat("  ", ph.Depth)+ph.Name, ph.Simulated, ph.Charged, ph.Messages)
	}
	return nil
}
