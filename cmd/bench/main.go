// Command bench regenerates every reproduction experiment table (E1-E12,
// see DESIGN.md) and prints them to stdout. Experiment cells run on a
// worker pool (deterministic output for any pool size); with -json the
// command also records a machine-readable benchmark trajectory point
// (wall time, allocations, engine rounds and messages per experiment).
//
// Usage:
//
//	bench [-seed N] [-only E1,E4] [-workers K] [-json BENCH_PR1.json]
//
// -only takes a comma-separated list of experiment ids; with no -only every
// experiment runs. Serving-path and engine-observer costs are measured by
// the repository benchmark in benchmark/, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"twoecss/internal/experiments"
)

// record is one experiment's entry in the benchmark trajectory file.
// TotalNs and TotalAllocs are whole-run totals for one single-shot
// execution of the experiment (wall time and MemStats Mallocs delta), not
// benchstat-style per-operation averages.
type record struct {
	ID          string `json:"id"`
	Title       string `json:"title"`
	TotalNs     int64  `json:"total_ns"`
	TotalAllocs uint64 `json:"total_allocs"`
	Rounds      int64  `json:"rounds"`
	Messages    int64  `json:"messages"`
	Rows        int    `json:"rows"`
}

// trajectory is the top-level schema of the -json output; future PRs append
// comparable files (BENCH_PR2.json, ...) to track the perf trend.
type trajectory struct {
	Seed        int64    `json:"seed"`
	Workers     int      `json:"workers"`
	GoMaxProcs  int      `json:"gomaxprocs"`
	Experiments []record `json:"experiments"`
}

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
	jsonPath := flag.String("json", "", "write a machine-readable benchmark trajectory to this file")
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
	traj := trajectory{Seed: *seed, Workers: *workers, GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, sp := range specs {
		if onlySet != nil && !onlySet[sp.ID] {
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		begin := time.Now()
		t, err := sp.Run(*seed)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.ID, err)
		}
		elapsed := time.Since(begin)
		runtime.ReadMemStats(&after)
		fmt.Println(t.Render())
		traj.Experiments = append(traj.Experiments, record{
			ID:          t.ID,
			Title:       t.Title,
			TotalNs:     elapsed.Nanoseconds(),
			TotalAllocs: after.Mallocs - before.Mallocs,
			Rounds:      t.Rounds,
			Messages:    t.Messages,
			Rows:        len(t.Rows),
		})
	}
	if *jsonPath != "" {
		buf, err := json.MarshalIndent(&traj, "", "  ")
		if err != nil {
			return err
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bench: wrote trajectory to %s\n", *jsonPath)
	}
	return nil
}
