package congest

// This file adds engine-depth round observability: an optional per-round
// sample hook on Network and a bounded recorder for it. Rounds and messages
// are the paper's own cost measures, so they are promoted here to
// first-class observable quantities rather than being inferred from
// aggregate Stats deltas.
//
// The hook is designed to be provably free when disarmed: Run pays exactly
// one nil-interface check per round (no time.Now calls, no sample
// construction), and the armed path allocates nothing per round — the
// recorder writes into a preallocated ring and compacts it in place. The
// disarmed cost is gated by TestDisarmedObserverZeroAllocs and the
// BenchmarkRelayRing family.

// RoundSample is one observed engine round. Fields are cumulative-free:
// each sample describes exactly one round.
type RoundSample struct {
	// Round is the Network's SimulatedRounds counter value for this round
	// (1-based on a fresh Network; ResetAccounting restarts it).
	Round int64
	// Active is the number of nodes scheduled this round (the worklist
	// size: active nodes plus nodes holding undelivered messages).
	Active int
	// Messages and Words are the deliveries of this round.
	Messages int64
	Words    int64
	// MaxEdgeWords is the round's peak per-(edge,direction) bandwidth use
	// in words (CONGEST compliance: stays <= Network.WordsPerEdge).
	MaxEdgeWords int
	// MaxNodeWords is the round's peak per-node send volume in payload
	// words — the busiest sender's congestion.
	MaxNodeWords int64
	// HandlerNs and RouteNs split the round's wall time into the handler
	// phase (node logic + bandwidth accounting) and the delivery phase
	// (routing + next-worklist construction).
	HandlerNs int64
	RouteNs   int64
}

// RoundObserver receives one RoundSample per simulated round from
// Network.Run. Implementations must be cheap and must not call back into
// the Network: they run synchronously on the round barrier.
type RoundObserver interface {
	ObserveRound(s RoundSample)
}

// RoundRecorder is a bounded RoundObserver: it retains at most its
// configured capacity of samples, thinning by stride when a run outgrows
// the ring. When the ring fills, every other retained sample is dropped in
// place and the stride doubles, so an arbitrarily long run yields an
// evenly spaced timeline at full coverage with bounded memory and zero
// steady-state allocations.
type RoundRecorder struct {
	samples []RoundSample
	stride  int64 // keep every stride-th observed round
	base    int64 // configured initial stride
	seen    int64 // rounds observed since Reset
}

// NewRoundRecorder returns a recorder retaining at most capacity samples
// (minimum 2), keeping every stride-th round (stride <= 1 means every
// round). The stride doubles automatically whenever the ring fills.
func NewRoundRecorder(capacity int, stride int) *RoundRecorder {
	if capacity < 2 {
		capacity = 2
	}
	s := int64(stride)
	if s < 1 {
		s = 1
	}
	return &RoundRecorder{samples: make([]RoundSample, 0, capacity), stride: s, base: s}
}

// ObserveRound implements RoundObserver.
func (r *RoundRecorder) ObserveRound(s RoundSample) {
	idx := r.seen
	r.seen++
	if idx%r.stride != 0 {
		return
	}
	if len(r.samples) == cap(r.samples) {
		// Thin in place: keep even positions, double the stride. The kept
		// samples remain evenly spaced at the new stride because they were
		// evenly spaced at the old one.
		half := (len(r.samples) + 1) / 2
		for i := 1; i < half; i++ {
			r.samples[i] = r.samples[2*i]
		}
		r.samples = r.samples[:half]
		r.stride *= 2
		if idx%r.stride != 0 {
			return // this round fell off the coarser grid
		}
	}
	r.samples = append(r.samples, s)
}

// Samples returns the retained timeline in round order. The slice aliases
// the recorder's ring: copy it before the next Run or Reset if it must
// survive.
func (r *RoundRecorder) Samples() []RoundSample { return r.samples }

// Observed reports how many rounds the recorder has seen since Reset
// (retained or not).
func (r *RoundRecorder) Observed() int64 { return r.seen }

// Stride reports the current sampling stride: one retained sample per
// Stride observed rounds.
func (r *RoundRecorder) Stride() int64 { return r.stride }

// Reset clears the timeline and restores the configured stride, keeping
// the ring's backing array.
func (r *RoundRecorder) Reset() {
	r.samples = r.samples[:0]
	r.stride = r.base
	r.seen = 0
}
