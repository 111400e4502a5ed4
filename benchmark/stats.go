package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it. Ten is the least that makes a percentile more than
// a few unlucky requests; on the 2-CPU machine the benchmark was defined
// on, a p99 with ten to twenty samples beyond it still moved by up to 80%
// between runs of mixed, so the benchmark asks for fifty.
const minBeyond = 50

// tailQuantiles are the candidate tail percentiles, highest first. A tail
// metric reports the highest one the sample supports (see tailQuantile).
var tailQuantiles = []float64{0.99, 0.95, 0.9, 0.75, 0.5}

// rank is the nearest-rank index of quantile q in a sorted sample of n.
func rank(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// tailQuantile returns the highest of tailQuantiles with at least minBeyond
// of n samples strictly beyond its rank. When none qualifies it returns the
// median with ok=false, so a tail metric always has a value whose basis the
// run record states.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range tailQuantiles {
		if n-1-rank(q, n) >= minBeyond {
			return q, true
		}
	}
	return 0.5, false
}

// dist summarizes one sample of measurements.
type dist struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	Tail  float64 `json:"tail"`
	TailQ float64 `json:"tail_q"` // the percentile Tail reports
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// summarize sorts xs in place and summarizes it. An empty sample yields the
// zero dist.
func summarize(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	slices.Sort(xs)
	q, _ := tailQuantile(len(xs))
	return dist{
		N:     len(xs),
		P50:   xs[rank(0.5, len(xs))],
		Tail:  xs[rank(q, len(xs))],
		TailQ: q,
		Min:   xs[0],
		Max:   xs[len(xs)-1],
	}
}

// percentile is the nearest-rank q-quantile of xs, leaving xs unchanged.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(q, len(s))]
}

// median is the middle of xs (the mean of the two middles for even counts),
// leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// column returns the i-th entry of every row.
func column(rows [][2]float64, i int) []float64 {
	out := make([]float64, len(rows))
	for j, r := range rows {
		out[j] = r[i]
	}
	return out
}

// quartiles returns the first and third quartile of xs with the same
// "exclusive" interpolation as Python's statistics.quantiles(xs, n=4), so
// spreads printed by -compare match what an external checker computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
