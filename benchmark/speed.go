package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"time"
)

// The machine the benchmark was defined on shares its cores with other
// tenants, and their load slows branchy, cache-resident code such as the
// solver, JSON decoding or a hash map by 1.5-1.7x for seconds at a time,
// for a share of each run that changes from run to run and drifts over
// minutes. A pointer chase through DRAM and a dependent integer chain
// barely slow, and there is no steal time, so neither CPU time nor a
// longer run removes it from a latency. What follows it is a fixed piece
// of code of the same kind timed beside the workload: over six noisy
// minutes the 5-second medians of n=256 solve times spread by 0.27-0.40
// (quartile distance over median), the same medians of this computation's
// time tracked them with a correlation of 0.98, and the ratio of the two
// spread by 0.03-0.05.

// Speedometer settings: one reading per speedEvery of a timed phase, each
// a reference computation over speedKeys keys.
const (
	speedEvery = 50 * time.Millisecond
	speedKeys  = 8000
)

// speedNominalMS fixes the scale of a time divided by the readings taken
// beside it: that time times speedNominalMS reads as the time on a machine
// whose readings are speedNominalMS. It is about the fastest readings of
// the machine the benchmark was defined on (0.43-0.50 ms; their median
// under its usual load was 0.70 ms).
const speedNominalMS = 0.45

// speedometer times the reference computation at regular points of a timed
// phase, between the workload's requests, on the calling goroutine's
// thread, or in the background (see background). The computation inserts keys into a hash map and sorts a slice,
// both allocated once, so it allocates nothing and leaves the program's
// garbage collector alone. A reading runs it twice and times the second
// run, whose data the first brought into the caches, so the reading does
// not depend on what the last request left there; its time is the
// thread's CPU time, so being descheduled does not count.
type speedometer struct {
	mu    sync.Mutex
	epoch time.Time
	m     map[int32]int32
	keys  []int32
	reads [][2]float64 // [ms since epoch, thread CPU ms]
}

func newSpeedometer() *speedometer {
	return &speedometer{m: make(map[int32]int32, speedKeys), keys: make([]int32, 0, speedKeys)}
}

// begin starts the phase the readings are timed against. A nil
// speedometer ignores it.
func (sp *speedometer) begin(epoch time.Time) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.epoch, sp.reads = epoch, nil
	sp.mu.Unlock()
}

// tick takes the readings that are due, one per speedEvery of the phase so
// far, but at most burst of them, and reports whether it took any. A nil
// speedometer takes none.
func (sp *speedometer) tick(burst int) bool {
	if sp == nil {
		return false
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	due := int(time.Since(sp.epoch)/speedEvery) + 1 - len(sp.reads)
	for i := 0; i < min(due, burst); i++ {
		sp.read()
	}
	return due > 0 && burst > 0
}

func (sp *speedometer) read() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	at := time.Since(sp.epoch)
	sp.compute()
	t0 := threadCPU()
	sp.compute()
	cpu := threadCPU() - t0
	sp.reads = append(sp.reads, [2]float64{ms(at), ms(cpu)})
}

// compute is the reference computation.
func (sp *speedometer) compute() {
	clear(sp.m)
	sp.keys = sp.keys[:0]
	for i := int32(0); i < speedKeys; i++ {
		sp.m[i*7919%40009] = i
		sp.keys = append(sp.keys, i*31%40009)
	}
	slices.Sort(sp.keys)
}

// background begins a phase at epoch and takes its readings on a goroutine
// of its own, one per speedEvery, until the returned stop is called; stop
// waits for the goroutine and returns the readings. It serves workloads
// whose own goroutines never pause between requests: an open loop's
// generator, which sent late when it took the readings itself, and
// set-up.
func (sp *speedometer) background(epoch time.Time) (stop func() [][2]float64) {
	sp.begin(epoch)
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(speedEvery)
		defer t.Stop()
		for {
			sp.tick(1)
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	return func() [][2]float64 {
		close(quit)
		<-done
		return sp.readings()
	}
}

// readings returns the phase's readings.
func (sp *speedometer) readings() [][2]float64 {
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.reads
}

// speedWindows is how many windows of equal length steadyQuantile cuts a
// timed phase into.
const speedWindows = 15

// steadyQuantile is a phase's q-quantile latency at the machine's nominal
// speed. It cuts the phase, el ms long, into speedWindows windows; in each
// window with both requests and speedometer readings it divides the
// q-quantile latency of the requests that ended there by the median
// reading taken there; and it returns the median of these ratios times
// speedNominalMS. When no window has both (a phase of a request or two),
// the whole phase is the one window. It returns NaN for no requests or no
// readings.
func steadyQuantile(reqs, reads [][2]float64, el, q float64) float64 {
	if len(reqs) == 0 || len(reads) == 0 {
		return math.NaN()
	}
	lat := make([][]float64, speedWindows)
	ref := make([][]float64, speedWindows)
	window := func(at float64) int { return min(max(int(at/el*speedWindows), 0), speedWindows-1) }
	for _, r := range reqs {
		lat[window(r[0])] = append(lat[window(r[0])], r[1])
	}
	for _, r := range reads {
		ref[window(r[0])] = append(ref[window(r[0])], r[1])
	}
	var ratios []float64
	for i := range lat {
		if len(lat[i]) > 0 && len(ref[i]) > 0 {
			ratios = append(ratios, percentile(lat[i], q)/median(ref[i]))
		}
	}
	if len(ratios) == 0 {
		ratios = append(ratios, percentile(column(reqs, 1), q)/median(column(reads, 1)))
	}
	return median(ratios) * speedNominalMS
}
