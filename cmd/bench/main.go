// Command bench regenerates every reproduction experiment table (E1-E12,
// see DESIGN.md) and prints them to stdout. Experiment cells run on a
// worker pool (deterministic output for any pool size).
//
// Usage:
//
//	bench [-seed N] [-only E1,E4] [-workers K]
//
// -only takes a comma-separated list of experiment ids; with no -only every
// experiment runs. Timings, including each experiment's, are measured by
// the repository benchmark in benchmark/ (its tables workload), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"twoecss/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	seed := flag.Int64("seed", 1, "random seed for instance generation")
	only := flag.String("only", "", "comma-separated experiment ids to run (e.g. E1,E4)")
	workers := flag.Int("workers", 0, "experiment-cell worker pool size (<=0: GOMAXPROCS)")
	flag.Parse()

	experiments.Workers = *workers
	specs := experiments.Specs()
	var onlySet map[string]bool
	if *only != "" {
		onlySet = make(map[string]bool)
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			known := false
			for _, sp := range specs {
				if sp.ID == id {
					known = true
					break
				}
			}
			if !known {
				return fmt.Errorf("unknown experiment id %q (known: %s..%s)",
					id, specs[0].ID, specs[len(specs)-1].ID)
			}
			onlySet[id] = true
		}
		if len(onlySet) == 0 {
			return fmt.Errorf("-only %q lists no experiment ids", *only)
		}
	}
	for _, sp := range specs {
		if onlySet != nil && !onlySet[sp.ID] {
			continue
		}
		t, err := sp.Run(*seed)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.ID, err)
		}
		fmt.Println(t.Render())
	}
	return nil
}
