// Tree augmentation example: given an existing backbone tree and priced
// candidate links, compute a (4+eps)-approximate cheapest augmentation that
// removes every single point of failure (Theorem 4.19), and compare it
// against the greedy and Khuller-Thurimella baselines and the exact path
// optimum.
package main

import (
	"fmt"
	"log"

	"twoecss/internal/baseline"
	"twoecss/internal/congest"
	"twoecss/internal/graph"
	"twoecss/internal/primitives"
	"twoecss/internal/tap"
	"twoecss/internal/tree"
)

func main() {
	// A backbone path of 60 routers plus priced shortcut links.
	n := 60
	g := graph.PathWithIntervals(n, 50, graph.DefaultGenConfig(11))

	net := congest.NewNetwork(g)
	bfs, err := primitives.BuildBFS(net, 0)
	if err != nil {
		log.Fatal(err)
	}
	treeIDs := make([]int, n-1)
	for i := range treeIDs {
		treeIDs[i] = i // PathWithIntervals emits path edges first
	}
	t, err := tree.NewFromEdgeSet(g, 0, treeIDs)
	if err != nil {
		log.Fatal(err)
	}

	solver, err := tap.NewSolver(net, bfs, t)
	if err != nil {
		log.Fatal(err)
	}
	res, err := solver.SolveWeighted(0.25, tap.Cover2)
	if err != nil {
		log.Fatal(err)
	}

	// Exact optimum via interval-cover DP (path trees only).
	var ivs []baseline.Interval
	for id, e := range g.Edges {
		if id < n-1 {
			continue
		}
		l, r := e.U, e.V
		if l > r {
			l, r = r, l
		}
		ivs = append(ivs, baseline.Interval{L: l, R: r, W: int64(e.W)})
	}
	opt, _, err := baseline.ExactPathTAP(n, ivs)
	if err != nil {
		log.Fatal(err)
	}
	gw, _, err := baseline.GreedyTAP(t)
	if err != nil {
		log.Fatal(err)
	}
	kw, _, _, err := baseline.KhullerThurimella(t)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("backbone: %d routers, %d candidate links\n", g.N, g.M()-(n-1))
	fmt.Printf("exact optimum:            %5d\n", opt)
	fmt.Printf("primal-dual (4+eps):      %5d  (%.3fx, proven bound 4.5x)\n",
		res.Weight, float64(res.Weight)/float64(opt))
	fmt.Printf("greedy set cover:         %5d  (%.3fx)\n", gw, float64(gw)/float64(opt))
	fmt.Printf("khuller-thurimella 2x:    %5d  (%.3fx)\n", kw, float64(kw)/float64(opt))
	fmt.Printf("dual lower bound on G':   %.1f\n", res.DualLB)
	fmt.Printf("CONGEST rounds: %d\n", net.Stats().TotalRounds())
}
