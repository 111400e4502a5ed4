package main

import (
	"math"
	"testing"
)

// A machine slowed for part of a phase slows the requests and the readings
// of that part alike, and the steady latency does not move.
func TestSteadyQuantileDividesOutTheMachinesSpeed(t *testing.T) {
	phase := func(slowFrom float64) (reqs, reads [][2]float64) {
		for at := 0.0; at < 1500; at++ {
			f := 1.0
			if at >= slowFrom {
				f = 1.7
			}
			reqs = append(reqs, [2]float64{at, f * float64(1+int(at)%4)}) // 1..4 ms
			if int(at)%10 == 0 {
				reads = append(reads, [2]float64{at, f * speedNominalMS})
			}
		}
		return reqs, reads
	}
	for _, slowFrom := range []float64{1500, 1000, 300, 0} {
		reqs, reads := phase(slowFrom)
		if got := steadyQuantile(reqs, reads, 1500, 0.25); math.Abs(got-1) > 1e-9 {
			t.Errorf("slowed from %v ms: steady p25 %v, want 1", slowFrom, got)
		}
	}
	// Two requests and a reading in different windows: one window.
	got := steadyQuantile([][2]float64{{1400, 6}, {1450, 2}}, [][2]float64{{0, 2 * speedNominalMS}}, 1500, 0.5)
	if got != 1 {
		t.Errorf("sparse phase: %v, want 1", got)
	}
	if got := steadyQuantile(nil, [][2]float64{{0, 1}}, 1500, 0.5); !math.IsNaN(got) {
		t.Errorf("no requests: %v, want NaN", got)
	}
}

// The reference computation must leave the program's heap alone.
func TestSpeedometerReadingAllocatesNothing(t *testing.T) {
	sp := newSpeedometer()
	sp.reads = make([][2]float64, 0, 1000)
	if a := testing.AllocsPerRun(100, sp.read); a != 0 {
		t.Fatalf("a reading allocates %v times", a)
	}
	for _, r := range sp.reads {
		if !(r[1] > 0) {
			t.Fatalf("reading %v is not a positive time", r)
		}
	}
}
