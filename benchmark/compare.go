package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// bound is one metric's definition in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// definition is the part of BENCHMARK.json -compare and the tests read.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

func loadDefinition(path string) (*definition, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def definition
	if err := json.Unmarshal(buf, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// loadRecords reads every run record (-json output) in dir, grouped by
// workload and sorted by seed.
func loadRecords(dir string) (map[string][]*runRecord, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string][]*runRecord)
	for _, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec runRecord
		if err := json.Unmarshal(buf, &rec); err != nil || rec.Workload == "" {
			continue // not a run record
		}
		out[rec.Workload] = append(out[rec.Workload], &rec)
	}
	for _, recs := range out {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Seed < recs[j].Seed })
	}
	return out, nil
}

// Verdicts of a comparison.
const (
	improved    = "improved"
	withinBound = "within-bound"
	regression  = "regression"
	unresolved  = "unresolved"
	worsened    = "worsened" // a metric without a bound that lost clearly
	noChange    = "no-clear-change"
)

// verdict applies the benchmark's rule to one metric on one workload.
// parent and change are the runs' values, paired by index (runs of equal
// seeds). The change improved when it wins at least nine tenths of the
// pairs, ties counting for neither, and its median is better than the
// parent's by more than the parent's spread (the distance between its
// quartiles). Otherwise, with a bound: when either side's spread relative
// to its median exceeds the bound the metric is unresolved (unless every
// change run beats every parent run), a median worse than the parent's by
// more than the bound (relative) is a regression, and anything else is
// within bound. A metric without a bound is judged by the mirror of the
// improvement rule.
func verdict(parent, change []float64, higherBetter bool, bnd float64, bounded bool) (v string, wins, pairs int) {
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	pairs = min(len(parent), len(change))
	losses := 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(change[i], parent[i]):
			wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	spread := q3 - q1
	gain := mc - mp // positive: the change is better
	if !higherBetter {
		gain = -gain
	}
	if pairs > 0 && 10*wins >= 9*pairs && gain > spread {
		return improved, wins, pairs
	}
	if !bounded {
		if pairs > 0 && 10*losses >= 9*pairs && -gain > spread {
			return worsened, wins, pairs
		}
		return noChange, wins, pairs
	}
	c1, c3 := quartiles(change)
	rel := func(x, m float64) float64 {
		if m == 0 {
			return math.Inf(1)
		}
		return math.Abs(x / m)
	}
	if max(rel(spread, mp), rel(c3-c1, mc)) > bnd {
		allBetter := true
		for _, c := range change {
			for _, p := range parent {
				allBetter = allBetter && better(c, p)
			}
		}
		if !allBetter {
			return unresolved, wins, pairs
		}
		return withinBound, wins, pairs
	}
	if -gain > bnd*math.Abs(mp) {
		return regression, wins, pairs
	}
	return withinBound, wins, pairs
}

// compare prints the comparison of the run records in parentDir and
// changeDir for every metric BENCHMARK.json defines, and reports whether
// any end-to-end metric regressed or any exact output differs.
func compare(w io.Writer, parentDir, changeDir, defPath string) (bool, error) {
	def, err := loadDefinition(defPath)
	if err != nil {
		return false, err
	}
	par, err := loadRecords(parentDir)
	if err != nil {
		return false, err
	}
	chg, err := loadRecords(changeDir)
	if err != nil {
		return false, err
	}
	bad := false
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\twins\tverdict")
	for _, wl := range def.Workloads {
		ps, cs := par[wl.Name], chg[wl.Name]
		if len(ps) == 0 || len(cs) == 0 {
			fmt.Fprintf(tw, "%s\t(no runs on one side)\t\t\t\t\t\n", wl.Name)
			continue
		}
		for _, group := range []struct {
			metrics []bound
			bounded bool
		}{{def.EndToEnd, true}, {def.PerLayer, false}} {
			for _, m := range group.metrics {
				pv, cv := values(ps, m.Name), values(cs, m.Name)
				if len(pv) == 0 || len(cv) == 0 {
					continue
				}
				v, wins, pairs := verdict(pv, cv, m.Better == "higher", m.Bound, group.bounded)
				bad = bad || v == regression
				p1, p3 := quartiles(pv)
				c1, c3 := quartiles(cv)
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\n",
					wl.Name, m.Name, m.Unit, median(pv), p1, p3, median(cv), c1, c3, wins, pairs, v)
			}
		}
		if msg := exactDiff(ps, cs); msg != "" {
			bad = true
			fmt.Fprintf(tw, "%s\texact output\t\t\t\t\tCHANGED: %s\n", wl.Name, msg)
		}
	}
	return bad, tw.Flush()
}

// values collects a metric's value from each record that reports it.
func values(recs []*runRecord, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.EndToEnd[name]; ok {
			out = append(out, m.Value)
		} else if m, ok := r.Layers[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// exactDiff reports the first seed whose deterministic output (rounds,
// messages, table digest) differs between the two sides. Rounds and
// messages are the paper's cost model: any change is a change in behaviour.
func exactDiff(parent, change []*runRecord) string {
	want := make(map[int64]*expectation)
	for _, r := range parent {
		if r.Exact != nil {
			want[r.Seed] = r.Exact
		}
	}
	for _, r := range change {
		if w, ok := want[r.Seed]; ok && r.Exact != nil && *w != *r.Exact {
			return fmt.Sprintf("seed %d: parent %+v, change %+v", r.Seed, *w, *r.Exact)
		}
	}
	return ""
}
