// Resilience example: why 2-ECSS instead of MST. Buys both subgraphs on
// the same network and measures how many single-link failures disconnect
// each — the MST dies on every one of its links; the 2-ECSS survives all.
package main

import (
	"fmt"
	"log"

	"twoecss/internal/ecss"
	"twoecss/internal/graph"
	"twoecss/internal/mst"
)

func main() {
	g := graph.ErdosRenyi(96, 0.09, graph.DefaultGenConfig(23))
	if _, err := graph.Ensure2EC(g, graph.DefaultGenConfig(24)); err != nil {
		log.Fatal(err)
	}

	mstIDs, err := mst.Kruskal(g)
	if err != nil {
		log.Fatal(err)
	}
	mstW := g.TotalWeight(mstIDs)

	res, _, err := ecss.Solve(g, ecss.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	if err := ecss.Verify(g, res); err != nil {
		log.Fatal(err)
	}

	countFailures := func(edges []int) int {
		sub := g.Subgraph(edges)
		return len(sub.Bridges())
	}

	fmt.Printf("network: n=%d m=%d\n", g.N, g.M())
	fmt.Printf("MST:    weight %6d, %3d edges, %3d fatal single-link failures\n",
		mstW, len(mstIDs), countFailures(mstIDs))
	fmt.Printf("2-ECSS: weight %6d, %3d edges, %3d fatal single-link failures\n",
		res.Weight, len(res.Edges), countFailures(res.Edges))
	fmt.Printf("resilience premium: %.2fx the MST cost (certified <= %.2fx of optimal)\n",
		float64(res.Weight)/float64(mstW), res.CertifiedRatio)
}
