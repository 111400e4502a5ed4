package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// around returns ten values spread evenly over center*(1±rel).
func around(center, rel float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = center * (1 - rel + 2*rel*float64(i)/9)
	}
	return out
}

func TestVerdict(t *testing.T) {
	for _, c := range []struct {
		name           string
		parent, change []float64
		higherBetter   bool
		bound          float64
		bounded        bool
		want           string
	}{
		{"faster", around(100, 0.01), around(80, 0.01), false, 0.1, true, improved},
		{"higher throughput", around(100, 0.01), around(130, 0.01), true, 0.1, true, improved},
		{"slower past the bound", around(100, 0.01), around(120, 0.01), false, 0.1, true, regression},
		{"lower throughput past the bound", around(100, 0.01), around(85, 0.01), true, 0.1, true, regression},
		{"slower within the bound", around(100, 0.01), around(105, 0.01), false, 0.1, true, withinBound},
		{"noise wider than the bound", around(100, 0.3), around(101, 0.3), false, 0.1, true, unresolved},
		{"noisy but every change run better", around(100, 0.05), around(50, 0.05), false, 0.01, true, improved},
		{"unbounded loss", around(100, 0.01), around(150, 0.01), false, 0, false, worsened},
		{"unbounded noise", around(100, 0.2), around(102, 0.2), false, 0, false, noChange},
	} {
		v, _, _ := verdict(c.parent, c.change, c.higherBetter, c.bound, c.bounded)
		if v != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, v, c.want)
		}
	}
}

// The improvement rule needs nine tenths of the pairs: eight wins of ten
// are not enough, however large the median gain.
func TestVerdictNeedsNineTenthsOfPairs(t *testing.T) {
	parent := around(100, 0.01)
	change := around(70, 0.01)
	change[0], change[1] = 200, 200
	if v, wins, pairs := verdict(parent, change, false, 0.5, true); v == improved || wins != 8 || pairs != 10 {
		t.Fatalf("verdict %s with %d/%d wins", v, wins, pairs)
	}
}

func TestCompareFlagsRegressionsAndChangedOutput(t *testing.T) {
	dir := t.TempDir()
	def := `{"workloads":[{"name":"tables","why":"x"}],
		"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1}],
		"per_layer":[{"name":"tap.tap.p50_us","unit":"us","better":"lower"}]}`
	defPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(defPath, []byte(def), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(side string, p50 float64, rounds int64) {
		d := filepath.Join(dir, side)
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, v := range around(p50, 0.01) {
			rec := runRecord{Workload: "tables", Seed: int64(i + 1),
				EndToEnd: map[string]metric{"p50_ms": {v, "ms"}},
				Layers:   map[string]metric{"tap.tap.p50_us": {v * 900, "us"}},
				Exact:    &expectation{Rounds: rounds, Messages: 7}}
			buf, _ := json.Marshal(rec)
			if err := os.WriteFile(filepath.Join(d, filepath.Base(side)+string(rune('a'+i))+".json"), buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("parent", 100, 5)
	write("same", 101, 5)
	write("slow", 130, 5)
	write("other", 100, 6)
	for _, c := range []struct {
		change  string
		bad     bool
		mention string
	}{
		{"same", false, withinBound},
		{"slow", true, regression},
		{"other", true, "CHANGED"},
	} {
		var out bytes.Buffer
		bad, err := compare(&out, filepath.Join(dir, "parent"), filepath.Join(dir, c.change), defPath)
		if err != nil {
			t.Fatal(err)
		}
		if bad != c.bad || !strings.Contains(out.String(), c.mention) {
			t.Errorf("%s: bad=%v, output:\n%s", c.change, bad, out.String())
		}
	}
}
