package congest

import (
	"testing"

	"twoecss/internal/graph"
)

// ringNet builds a directed-token ring of n nodes whose handler relays one
// token for laps full circuits: the minimal steady-state workload (one
// scheduled node per round) used by the observer tests.
func ringNet(n, laps int) (*Network, Handler, *int) {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.MustAddEdge(v, (v+1)%n, 1)
	}
	net := NewNetwork(g)
	hops := new(int)
	handler := func(v int, inbox []Msg) bool {
		if *hops < laps*n {
			*hops++
			net.Send(v, v, 7)
		}
		return false
	}
	return net, handler, hops
}

func TestRoundRecorderMatchesStats(t *testing.T) {
	net, handler, _ := ringNet(32, 4)
	rec := NewRoundRecorder(4096, 1)
	net.Observer = rec
	if err := net.Run(handler, []int{0}, 10000); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	samples := rec.Samples()
	if int64(len(samples)) != st.SimulatedRounds {
		t.Fatalf("recorded %d samples, engine ran %d rounds", len(samples), st.SimulatedRounds)
	}
	var msgs, words int64
	maxEdge := 0
	for i, s := range samples {
		if s.Round != int64(i+1) {
			t.Fatalf("sample %d has round %d, want %d", i, s.Round, i+1)
		}
		if s.Active < 1 {
			t.Fatalf("sample %d reports %d active nodes", i, s.Active)
		}
		if s.MaxNodeWords > s.Words {
			t.Fatalf("sample %d: per-node max %d exceeds round words %d", i, s.MaxNodeWords, s.Words)
		}
		msgs += s.Messages
		words += s.Words
		if s.MaxEdgeWords > maxEdge {
			maxEdge = s.MaxEdgeWords
		}
	}
	if msgs != st.Messages || words != st.Words {
		t.Fatalf("sample totals %d msgs / %d words, stats %d / %d", msgs, words, st.Messages, st.Words)
	}
	if maxEdge != st.MaxEdgeWords {
		t.Fatalf("sample max edge words %d, stats %d", maxEdge, st.MaxEdgeWords)
	}
}

func TestRoundRecorderStrideThinning(t *testing.T) {
	net, handler, hops := ringNet(64, 32) // 2048 rounds
	rec := NewRoundRecorder(64, 1)
	net.Observer = rec
	if err := net.Run(handler, []int{0}, 100000); err != nil {
		t.Fatal(err)
	}
	rounds := net.Stats().SimulatedRounds
	if rec.Observed() != rounds {
		t.Fatalf("observed %d rounds, engine ran %d", rec.Observed(), rounds)
	}
	samples := rec.Samples()
	if len(samples) == 0 || len(samples) > 64 {
		t.Fatalf("ring holds %d samples, want 1..64", len(samples))
	}
	if stride := rec.Stride(); stride < int64(rounds)/64 {
		t.Fatalf("stride %d cannot have thinned %d rounds into %d slots", stride, rounds, len(samples))
	}
	// Thinning must keep the timeline evenly spaced from round 1 onward.
	stride := rec.Stride()
	for i, s := range samples {
		if want := int64(i)*stride + 1; s.Round != want {
			t.Fatalf("sample %d at round %d, want %d (stride %d)", i, s.Round, want, stride)
		}
	}

	// Reset restores full resolution and clears the timeline.
	rec.Reset()
	if rec.Stride() != 1 || len(rec.Samples()) != 0 || rec.Observed() != 0 {
		t.Fatalf("Reset left stride=%d len=%d observed=%d", rec.Stride(), len(rec.Samples()), rec.Observed())
	}
	*hops = 0
	net.ResetAccounting()
	if err := net.Run(handler, []int{0}, 100000); err != nil {
		t.Fatal(err)
	}
	if rec.Observed() != net.Stats().SimulatedRounds {
		t.Fatalf("after reset observed %d, engine ran %d", rec.Observed(), net.Stats().SimulatedRounds)
	}
}

// TestDisarmedObserverZeroAllocs is the satellite regression gate: with
// Observer nil the engine steady state must not allocate at all — the
// telemetry hook may cost one branch per round, nothing more.
func TestDisarmedObserverZeroAllocs(t *testing.T) {
	net, handler, hops := ringNet(256, 4)
	run := func() {
		*hops = 0
		if err := net.Run(handler, []int{0}, 2000); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm scratch buffers
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("disarmed engine run allocated %.1f times (1024 rounds each), want 0", allocs)
	}
}

// The armed path must also be allocation-free in steady state: samples land
// in the recorder's preallocated ring, thinning compacts in place.
func TestArmedObserverZeroSteadyStateAllocs(t *testing.T) {
	net, handler, hops := ringNet(256, 4)
	rec := NewRoundRecorder(128, 1)
	net.Observer = rec
	run := func() {
		*hops = 0
		rec.Reset()
		net.ResetAccounting()
		if err := net.Run(handler, []int{0}, 2000); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("armed engine run allocated %.1f times, want 0", allocs)
	}
	if len(rec.Samples()) == 0 {
		t.Fatal("armed recorder retained no samples")
	}
}

func TestRoundRecorderTinyCapacityTerminates(t *testing.T) {
	rec := NewRoundRecorder(0, 0) // clamps to capacity 2, stride 1
	for i := 0; i < 10000; i++ {
		rec.ObserveRound(RoundSample{Round: int64(i + 1)})
	}
	if n := len(rec.Samples()); n < 1 || n > 2 {
		t.Fatalf("tiny ring holds %d samples, want 1..2", n)
	}
	if rec.Samples()[0].Round != 1 {
		t.Fatalf("first sample is round %d, want 1", rec.Samples()[0].Round)
	}
}

// BenchmarkRelayRingObserved is BenchmarkRelayRing with a RoundRecorder
// armed: comparing ns/round against the disarmed benchmark measures the
// observer overhead (expected: two clock reads plus a ring write per round).
func BenchmarkRelayRingObserved(b *testing.B) {
	const n = 256
	const laps = 16
	net, handler, hops := ringNet(n, laps)
	rec := NewRoundRecorder(1024, 1)
	net.Observer = rec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*hops = 0
		rec.Reset()
		if err := net.Run(handler, []int{0}, laps*n+10); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rounds := net.Stats().SimulatedRounds
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
}
