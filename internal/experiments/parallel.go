package experiments

// Parallel cell runner: every experiment is a list of independent cells
// (family × size × seed), each producing a few table rows. Cells are
// evaluated on a worker pool; results are collected by cell index, so the
// rendered table is byte-identical for any pool size. Cells must derive all
// randomness from their own parameters, never from state shared with other
// cells.

import (
	"runtime"
	"sync"
	"sync/atomic"

	"twoecss/internal/congest"
)

// Workers is the size of the worker pool used to evaluate experiment cells;
// <=0 means GOMAXPROCS. cmd/bench exposes it as -workers.
var Workers = 0

func poolSize(cells int) int {
	w := Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > cells {
		w = cells
	}
	if w < 1 {
		w = 1
	}
	return w
}

// cellOut is what one experiment cell contributes to its table: rows plus
// the engine statistics of every network the cell ran (summed into
// Table.Rounds and Table.Messages).
type cellOut struct {
	rows     [][]string
	rounds   int64
	messages int64
}

// addStats folds a finished network's statistics into the cell result.
func (c *cellOut) addStats(net *congest.Network) {
	st := net.Stats()
	c.rounds += st.TotalRounds()
	c.messages += st.Messages
}

// forEachCell evaluates fn(i) for every cell index on the pool and returns
// the results in index order. On failure it reports the error of the
// lowest-indexed failing cell, making errors deterministic too.
func forEachCell(cells int, fn func(i int) (cellOut, error)) ([]cellOut, error) {
	out := make([]cellOut, cells)
	errs := make([]error, cells)
	w := poolSize(cells)
	if w == 1 {
		for i := 0; i < cells; i++ {
			var err error
			if out[i], err = fn(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cells {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runCells evaluates all cells of t in parallel and appends their rows and
// statistics to the table in deterministic cell order.
func runCells(t *Table, cells int, fn func(i int) (cellOut, error)) error {
	outs, err := forEachCell(cells, fn)
	if err != nil {
		return err
	}
	for _, c := range outs {
		t.Rows = append(t.Rows, c.rows...)
		t.Rounds += c.rounds
		t.Messages += c.messages
	}
	return nil
}
