package main

import (
	"math"
	"testing"
)

func TestTailQuantileNeedsFiftySamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{5000, 0.99, true}, // rank 4949: 50 beyond
		{4999, 0.95, true}, // p99 would have 49 beyond
		{1000, 0.95, true},
		{999, 0.9, true},
		{500, 0.9, true},
		{499, 0.75, true},
		{200, 0.75, true},
		{199, 0.5, true},
		{100, 0.5, true},
		{99, 0.5, false}, // not even the median has 50 beyond: flagged
		{1, 0.5, false},
	} {
		q, ok := tailQuantile(c.n)
		if q != c.q || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.q, c.ok)
		}
		if ok && c.n-1-rank(q, c.n) < minBeyond {
			t.Errorf("n=%d: p%v has fewer than %d samples beyond it", c.n, q*100, minBeyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // reversed: summarize sorts
	}
	d := summarize(xs)
	if d.N != 5000 || d.P50 != 2500 || d.Tail != 4950 || d.TailQ != 0.99 || d.Min != 1 || d.Max != 5000 {
		t.Fatalf("summarize(1..5000) = %+v", d)
	}
	d = summarize([]float64{3, 1, 2})
	if d.P50 != 2 || d.Tail != 2 || d.TailQ != 0.5 {
		t.Fatalf("summarize(3 samples) = %+v; want the median as tail", d)
	}
	if (summarize(nil) != dist{}) {
		t.Fatal("summarize(nil) is not the zero dist")
	}
}

// The quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is how an outside checker computes a run-to-run spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
		{[]float64{0.9, 1.3, 1.1, 1.0, 1.2, 1.05, 0.95}, 0.95, 1.2},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
