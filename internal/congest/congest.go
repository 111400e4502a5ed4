// Package congest implements the synchronous CONGEST model of distributed
// computing (Peleg 2000) used by the paper: computation proceeds in
// synchronous rounds and per round every vertex may send O(log n) bits to
// each of its neighbors.
//
// The engine simulates algorithms at message level: a primitive supplies a
// per-node Handler; the engine delivers messages round by round, enforces
// the per-edge-per-round bandwidth budget (counted in O(log n)-bit words),
// and accumulates round and message statistics. Node handlers run
// concurrently on a goroutine worker pool with a barrier per round, which
// both exploits the per-node structure of CONGEST algorithms and enforces
// the discipline that a handler may only touch its own node state.
//
// Some sub-routines the paper cites from prior work (MST construction, LCA
// labels, segment decomposition construction) are not re-proved there; for
// those the engine provides Charge, an analytic round bill recorded
// separately from simulated rounds. DESIGN.md lists which component uses
// which channel.
//
// Lifecycle: a Network that executed parallel rounds owns a persistent
// worker pool reused across Run calls. Call Network.Close when done with a
// Network to release the pool goroutines deterministically; a GC cleanup
// reclaims the pool of a Network dropped without Close. Networks with
// Workers == 1 never spawn a pool and need no Close.
package congest

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"

	"twoecss/internal/graph"
)

// Word is one message word; the model allows O(log n) bits per edge per
// round per direction, i.e. a constant number of Words.
type Word = int64

// Msg is a message traveling over one edge in one round.
type Msg struct {
	// EdgeID identifies the graph edge the message traverses.
	EdgeID int
	// From is the sending vertex; the receiver is the other endpoint.
	From int
	// Data is the payload, counted against the bandwidth budget.
	Data []Word
}

// To returns the receiving vertex of m in g.
func (m Msg) To(g *graph.Graph) int { return g.Edges[m.EdgeID].Other(m.From) }

// Handler is the per-round logic of one node: it receives the messages
// delivered to node v this round and returns the messages v sends next
// round plus whether v still wants to be scheduled while silent.
// A handler must only access state belonging to node v.
type Handler func(v int, inbox []Msg) (outbox []Msg, active bool)

// Stats aggregates the cost accounting of a network.
type Stats struct {
	// SimulatedRounds counts rounds executed by the message engine.
	SimulatedRounds int64
	// ChargedRounds counts analytically billed rounds (cited subroutines).
	ChargedRounds int64
	// Messages is the total number of messages delivered.
	Messages int64
	// Words is the total number of payload words delivered.
	Words int64
	// MaxEdgeWords is the maximum number of words observed on a single
	// edge in a single direction in a single round (CONGEST compliance:
	// must stay <= WordsPerEdge of the network).
	MaxEdgeWords int
}

// TotalRounds is the complete round bill.
func (s Stats) TotalRounds() int64 { return s.SimulatedRounds + s.ChargedRounds }

// PhaseSpan records the cost of one named phase. Phases nest: Depth is the
// number of phases that were open around it (0 for an outermost phase).
type PhaseSpan struct {
	Name      string
	Depth     int
	Simulated int64
	Charged   int64
	Messages  int64
	Words     int64
}

// openPhase is a phase still on the stack: the index of its span and the
// stats snapshot taken when it began.
type openPhase struct {
	span int
	mark Stats
}

// Network wraps a graph with CONGEST cost accounting.
type Network struct {
	G *graph.Graph
	// WordsPerEdge is the per-edge per-direction per-round budget in
	// words (the model's O(log n) bits). A CONGEST message carries a
	// constant number of O(log n)-bit fields (ids, weights, counters);
	// the default budget is 8 words.
	WordsPerEdge int
	// Workers is the size of the goroutine pool used to run node handlers
	// (defaults to GOMAXPROCS). Set to 1 for fully sequential execution.
	Workers int
	// Observer, when non-nil, receives one RoundSample per simulated round
	// (see RoundRecorder for the bounded default). It must not be changed
	// while a Run is in flight, and ResetAccounting does not touch it. A
	// nil Observer costs one branch per round and nothing else.
	Observer RoundObserver

	stats   Stats
	phases  []PhaseSpan
	open    []openPhase // stack of phases begun but not yet ended
	sc      *scratch    // engine buffers, recycled across Run calls
	pool    *pool       // persistent worker pool; see Close
	running atomic.Bool // guards re-entrant/concurrent Run on shared scratch
}

// NewNetwork returns a network over g with the default eight-word budget.
// A Network whose Runs executed parallel rounds owns a worker pool that
// persists across Run calls; call Close when done with the Network to
// release it (a GC cleanup eventually reclaims the pool of a Network
// dropped without Close, but explicit Close is deterministic).
func NewNetwork(g *graph.Graph) *Network {
	return &Network{G: g, WordsPerEdge: 8, Workers: runtime.GOMAXPROCS(0)}
}

// Close releases the Network's persistent worker-pool goroutines. It is
// idempotent and a no-op for networks that never ran a parallel round; it
// must not be called concurrently with Run. The Network must not be used
// after Close (a later Run would spawn a fresh pool, which works but
// defeats the point).
func (n *Network) Close() {
	if n.pool != nil {
		n.pool.close()
		n.pool = nil
	}
}

// Stats returns a copy of the accumulated statistics.
func (n *Network) Stats() Stats { return n.stats }

// ResetAccounting zeroes the Network's cost accounting — stats, recorded
// phase spans, and any phases left open — while keeping the engine scratch
// and the persistent worker pool warm. It exists for callers that run
// repeated solves on one Network, such as the benchmark's armed/disarmed
// observer pairs: each solve then reports its own round and message bill
// as if the Network were fresh. It must not be called concurrently with Run.
func (n *Network) ResetAccounting() {
	n.stats = Stats{}
	n.phases = n.phases[:0]
	n.open = n.open[:0]
}

// Phases returns the spans recorded via BeginPhase/EndPhase in the order
// they began, so an enclosing phase precedes the phases nested in it. A
// phase still open reports zero cost until it ends.
func (n *Network) Phases() []PhaseSpan { return n.phases }

// BeginPhase starts attributing costs to a named phase, nested inside any
// phase already open.
func (n *Network) BeginPhase(name string) {
	n.open = append(n.open, openPhase{span: len(n.phases), mark: n.stats})
	n.phases = append(n.phases, PhaseSpan{Name: name, Depth: len(n.open) - 1})
}

// EndPhase closes the innermost open phase and records its cost, which
// includes the cost of every phase nested in it. With no phase open it is
// a no-op.
func (n *Network) EndPhase() {
	if len(n.open) == 0 {
		return
	}
	o := n.open[len(n.open)-1]
	n.open = n.open[:len(n.open)-1]
	sp := &n.phases[o.span]
	sp.Simulated = n.stats.SimulatedRounds - o.mark.SimulatedRounds
	sp.Charged = n.stats.ChargedRounds - o.mark.ChargedRounds
	sp.Messages = n.stats.Messages - o.mark.Messages
	sp.Words = n.stats.Words - o.mark.Words
}

// Charge bills k analytic rounds (k<0 is an error). Used only for
// subroutines the paper cites from prior work; see DESIGN.md.
func (n *Network) Charge(k int64, why string) error {
	if k < 0 {
		return fmt.Errorf("congest: negative charge %d (%s)", k, why)
	}
	n.stats.ChargedRounds += k
	return nil
}

// ErrBandwidth reports a CONGEST bandwidth violation: a primitive attempted
// to push more than WordsPerEdge words over one edge direction in one round.
type ErrBandwidth struct {
	EdgeID, From, Words, Budget int
}

func (e *ErrBandwidth) Error() string {
	return fmt.Sprintf("congest: %d words from vertex %d on edge %d exceeds budget %d",
		e.Words, e.From, e.EdgeID, e.Budget)
}

// KuttenPelegMSTRounds is the analytic round bill for the cited
// O(D + sqrt(n) log* n) MST algorithm (Kutten–Peleg), with log* folded into
// a small constant as is standard.
func KuttenPelegMSTRounds(n, diam int) int64 {
	return int64(diam) + 5*isqrt(n)
}

// LCALabelRounds is the analytic round bill for the cited Alstrup et al.
// labeling construction used in Section 4.1, O(D + sqrt(n) log* n).
func LCALabelRounds(n, diam int) int64 {
	return int64(diam) + 5*isqrt(n)
}

// SegmentDecompositionRounds is the analytic bill for the cited
// O(D + sqrt(n) log* n) construction of the segment decomposition [8,16].
func SegmentDecompositionRounds(n, diam int) int64 {
	return int64(diam) + 5*isqrt(n)
}

// LayeringRounds is the analytic bill for Claim 4.10: O((D + sqrt(n)) log n)
// rounds to compute the layer decomposition.
func LayeringRounds(n, diam int) int64 {
	return (int64(diam) + isqrt(n)) * ilog2(n)
}

// isqrt returns the smallest x with x*x >= n (the ceiling square root the
// analytic round bills use), via an integer Newton iteration seeded from
// the bit length — O(log log n) steps instead of the O(sqrt n) counting
// loop it replaces. Exact for the full int range (no float rounding).
func isqrt(n int) int64 {
	if n <= 0 {
		return 0
	}
	x := int64(n)
	// Seed with a power of two >= floor(sqrt(x)): 2^ceil(bits/2).
	r := int64(1) << ((bits.Len64(uint64(x)) + 1) / 2)
	for {
		nr := (r + x/r) / 2
		if nr >= r {
			break
		}
		r = nr
	}
	// r = floor(sqrt(x)); round up to the ceiling square root.
	if r*r < x {
		r++
	}
	return r
}

func ilog2(n int) int64 {
	l := int64(0)
	for 1<<l < n {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}
