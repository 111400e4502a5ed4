// Package congest implements the synchronous CONGEST model of distributed
// computing (Peleg 2000) used by the paper: computation proceeds in
// synchronous rounds and per round every vertex may send O(log n) bits to
// each of its neighbors.
//
// The engine simulates algorithms at message level: a primitive supplies a
// per-node Handler; the engine delivers messages round by round, enforces
// the per-edge-per-round bandwidth budget (counted in O(log n)-bit words),
// and accumulates round and message statistics. A round runs its handlers
// one after another on the calling goroutine. A handler may touch only its
// own node's state, so the order in which a round runs them must never
// change a result; the congestcheck build checks this by running every
// round in a seeded permutation of its schedule.
//
// Some sub-routines the paper cites from prior work (MST construction, LCA
// labels, segment decomposition construction) are not re-proved there; for
// those the engine provides Charge, an analytic round bill recorded
// separately from simulated rounds. A third channel, RunOnce, bills a
// schedule whose sends depend on no value it carries: the first run is
// simulated and measured into a Bill, and later runs on the same network
// add that measured cost to the ledger without simulating again. DESIGN.md
// lists which component uses which channel.
package congest

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"twoecss/internal/graph"
)

// Word is one message word; the model allows O(log n) bits per edge per
// round per direction, i.e. a constant number of Words.
type Word = int64

// Msg is a message traveling over one edge in one round. It holds no
// pointer, so copying it pays no GC write barrier: its payload words live
// in the engine's word arena for the round, and a handler reads them with
// Network.Words.
type Msg struct {
	// EdgeID identifies the graph edge the message traverses.
	EdgeID int32
	// From is the sending vertex; the receiver is the other endpoint.
	From int32
	// Off and N locate the payload in the round's word arena; its N words
	// are counted against the bandwidth budget.
	Off, N uint32
}

// Handler is the per-round logic of one node: it receives the messages
// delivered to node v this round, sends v's messages for the next round
// through Network.Send, and returns whether v still wants to be scheduled
// while silent. A payload read with Network.Words is valid only until the
// round ends.
// A handler must only access state belonging to node v. The engine runs a
// round's handlers in ascending node order; a build with the congestcheck
// tag runs them in a seeded permutation of that order and poisons every
// spent payload, and every test must then give the same bytes, so a
// handler that reads or writes another node's state within a round, or
// keeps a payload past its round, shows up as a failing test. An empty
// inbox is always nil, even though the engine keeps presized inbox
// buffers, so a handler may test inbox == nil for "no mail this round".
type Handler func(v int, inbox []Msg) (active bool)

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
	// Workers has no effect: every round runs on the calling goroutine.
	//
	// Deprecated: nothing reads it; it remains until the last caller drops it.
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
	running atomic.Bool // guards re-entrant/concurrent Run on shared scratch
}

// NewNetwork returns a network over g with the default eight-word budget.
func NewNetwork(g *graph.Graph) *Network {
	return &Network{G: g, WordsPerEdge: 8}
}

// Close does nothing: a Network holds only memory.
//
// Deprecated: there is nothing to release; it remains until the last
// caller drops it.
func (n *Network) Close() {}

// Stats returns a copy of the accumulated statistics.
func (n *Network) Stats() Stats { return n.stats }

// ResetAccounting zeroes the Network's cost accounting — stats, recorded
// phase spans, and any phases left open — while keeping the engine scratch
// warm. It exists for callers that run
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

// recheckBills, when set, makes RunOnce simulate every run, also when its
// bill is valid, and fail when the run's cost differs from the bill. Only
// the congestcheck build and this package's tests set it.
var recheckBills bool

// Bill is the measured cost of one schedule on one network, recorded by
// RunOnce. The zero Bill is empty.
type Bill struct {
	net  *Network
	wpe  int   // the network's WordsPerEdge when the bill was measured
	cost Stats // the run's ledger delta; MaxEdgeWords is its widest edge-round
}

// RunOnce bills the schedule run, which must send the same messages in the
// same rounds on every call: no send may depend on a value it carries or
// on state a previous call left behind. When b holds a cost measured on n
// at its current WordsPerEdge and no Observer is armed, RunOnce adds that
// cost to the ledger (rounds, messages, words and the MaxEdgeWords
// maximum) without calling run, so phase spans see it as if run had run.
// Otherwise it calls run and records in b what the run cost; an observed
// network thus always simulates, and its samples cover every billed round.
// A re-measured run whose cost differs from a valid bill is an error, and
// so is a run that begins or ends a phase. When run fails, b is left
// empty and its error is returned.
func (n *Network) RunOnce(b *Bill, run func() error) error {
	valid := b.net == n && b.wpe == n.WordsPerEdge
	if valid && n.Observer == nil && !recheckBills {
		n.stats.SimulatedRounds += b.cost.SimulatedRounds
		n.stats.ChargedRounds += b.cost.ChargedRounds
		n.stats.Messages += b.cost.Messages
		n.stats.Words += b.cost.Words
		n.stats.MaxEdgeWords = max(n.stats.MaxEdgeWords, b.cost.MaxEdgeWords)
		return nil
	}
	before, spans, open := n.stats, len(n.phases), len(n.open)
	n.stats.MaxEdgeWords = 0
	err := run()
	cost := Stats{
		SimulatedRounds: n.stats.SimulatedRounds - before.SimulatedRounds,
		ChargedRounds:   n.stats.ChargedRounds - before.ChargedRounds,
		Messages:        n.stats.Messages - before.Messages,
		Words:           n.stats.Words - before.Words,
		MaxEdgeWords:    n.stats.MaxEdgeWords,
	}
	n.stats.MaxEdgeWords = max(before.MaxEdgeWords, cost.MaxEdgeWords)
	if err == nil && (len(n.phases) != spans || len(n.open) != open) {
		err = fmt.Errorf("congest: a RunOnce schedule began or ended a phase")
	}
	if err != nil {
		*b = Bill{}
		return err
	}
	if valid && cost != b.cost {
		return fmt.Errorf("congest: rebilled schedule cost %+v, its bill says %+v", cost, b.cost)
	}
	*b = Bill{net: n, wpe: n.WordsPerEdge, cost: cost}
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
