package main

import (
	"math/rand"
	"slices"
	"sync"
	"time"
)

// sample is one request as the client saw it. Times are offsets from the
// start of the phase that sent it.
type sample struct {
	in  *input
	req string // request id, shared by every span of the request
	// due is when the request should have been sent: its arrival time in an
	// open loop, the end of the client's previous request in a closed one.
	due, start, end time.Duration
	ok              bool
	cached          bool
	// elapsedMS is the solve time the server reported (cache hits report
	// the original solve's).
	elapsedMS float64
	shard     string // the shard that answered, when a router relayed it
	err       string
}

// latency is measured from the due time, so time a request spent waiting
// to be sent counts against it.
func (s *sample) latency() time.Duration { return s.end - s.due }

// late is how far behind schedule the generator sent the request.
func (s *sample) late() time.Duration { return s.start - s.due }

// closedLoop runs clients that each send their next request as soon as
// their previous one has ended, until d has passed; a request in flight at
// the deadline finishes and counts. next hands client c its next input and
// reports false when the inputs are exhausted. do sends the request and
// fills in the outcome fields of s. Between requests the clients take the
// speedometer's due readings (sp may be nil); a request sent after a
// reading is due when the reading ended.
func closedLoop(clients int, d time.Duration, sp *speedometer, next func(c int) (*input, bool), do func(s *sample)) ([]sample, time.Duration) {
	epoch := time.Now()
	sp.begin(epoch)
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []sample
			var due time.Duration
			for {
				if sp.tick(1) {
					due = time.Since(epoch)
				}
				now := time.Since(epoch)
				if now >= d {
					break
				}
				in, ok := next(c)
				if !ok {
					break
				}
				s := sample{in: in, due: due, start: now}
				do(&s)
				s.end = time.Since(epoch)
				due = s.end
				local = append(local, s)
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return out, time.Since(epoch)
}

// openLoop sends request i at offset due[i] whether or not earlier requests
// have completed, with at most maxInflight outstanding; a full window
// delays the send, and the latency measured from the due time counts the
// delay. It returns once every request has ended. The speedometer's
// readings are taken in the background (sp may be nil).
func openLoop(due []time.Duration, maxInflight int, sp *speedometer, do func(i int, s *sample)) ([]sample, time.Duration) {
	epoch := time.Now()
	if sp != nil {
		defer sp.background(epoch)()
	}
	out := make([]sample, len(due))
	window := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	for i, at := range due {
		if wait := at - time.Since(epoch); wait > 0 {
			time.Sleep(wait)
		}
		window <- struct{}{}
		wg.Add(1)
		go func(i int, at time.Duration) {
			defer wg.Done()
			defer func() { <-window }()
			s := &out[i]
			s.due, s.start = at, time.Since(epoch)
			do(i, s)
			s.end = time.Since(epoch)
		}(i, at)
	}
	wg.Wait()
	return out, time.Since(epoch)
}

// arrivals returns the arrival offsets of a Poisson process over d
// conditioned on n arrivals: n uniform draws from rng, sorted. Fixing the
// count keeps the offered load of every run the same.
func arrivals(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(d)))
	}
	slices.Sort(out)
	return out
}
