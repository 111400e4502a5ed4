package congest

// This file is the engine hot path of Network.Run. The design goals (see
// DESIGN.md for the full write-up) are:
//
//   - Worklist scheduling: a round schedules exactly the nodes that are
//     active or hold undelivered messages, taken in ascending order from a
//     bitset that delivery and active handlers set: O(active + N/64), no sort.
//   - One pass per round on the calling goroutine: each message is
//     delivered right after it is validated and billed, into a second inbox
//     set that the next round reads; the two sets swap at the round's end.
//   - Flat bandwidth accounting: the per-(edge,direction) word counters live
//     in one []int32 indexed by 2*edgeID+dir and are lazily reset by an
//     epoch stamp, so a round allocates no map and pays no reset loop.
//   - Buffer recycling: inboxes, outboxes, and worklists persist across
//     rounds and across Run calls on the same Network; handlers can opt into
//     recycled outbox envelopes via Network.OutBuf. In steady state a round
//     performs zero engine-side allocations.
//   - Flat adjacency: incidence validation and delivery read the graph's CSR
//     endpoint arrays (graph.Endpoints), 8 bytes per message instead of a
//     24-byte Edge struct load.
//   - Order independence: nothing a round computes depends on the order in
//     which its handlers run, as long as each handler touches only its own
//     node's state. A build with the congestcheck tag runs every round in a
//     seeded permutation of the schedule to check that (see permuteSchedule).

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"time"

	"twoecss/internal/graph"
)

// permuteSchedule, when set, runs each round's handlers in a seeded
// permutation of the ascending schedule. Inboxes stay in (From, EdgeID)
// order and the round's stats and errors are order-free, so a program whose
// handlers keep to their own node's state gives the same bytes either way;
// one that reads or writes another node's state within a round does not.
// Run reads it once per round. Only the congestcheck build and this
// package's tests set it.
var permuteSchedule bool

// permute shuffles sched with a fixed seed mixed with the round number.
func permute(sched []int, round int64) {
	var r rand.PCG
	r.Seed(0x2ecc5, uint64(round))
	for i := len(sched) - 1; i > 0; i-- {
		j := int(r.Uint64() % uint64(i+1))
		sched[i], sched[j] = sched[j], sched[i]
	}
}

// scratch holds all engine state that survives rounds and Run calls. It is
// lazily sized to the network's graph on first use.
type scratch struct {
	inboxes [][]Msg  // this round's inboxes, read by the handlers
	inNext  [][]Msg  // next round's inboxes, unseen by this round's later receivers
	outBufs [][]Msg  // recycled envelopes handed out by OutBuf
	handed  []bool   // v's handler took its OutBuf envelope this round
	due     []uint64 // bitset of the next round's worklist
	sched   []int    // current round worklist
	// edgeWords[2*id+dir] counts words sent this round on edge id in
	// direction dir (0 = from Edges[id].U, 1 = from Edges[id].V). A slot is
	// valid only when edgeEpoch matches the current epoch; epochs increment
	// every round and are never reset, so no per-round clearing is needed.
	edgeWords []int32
	edgeEpoch []int64
	epoch     int64
}

func (s *scratch) ensure(g *graph.Graph) {
	n, m := g.N, g.M()
	if len(s.inboxes) < n {
		s.inboxes = make([][]Msg, n)
		s.inNext = make([][]Msg, n)
		s.outBufs = make([][]Msg, n)
		s.handed = make([]bool, n)
		s.due = make([]uint64, (n+63)/64)
		s.sched = make([]int, 0, n)
		s.presize(g)
	}
	if len(s.edgeWords) < 2*m {
		s.edgeWords = make([]int32, 2*m)
		s.edgeEpoch = make([]int64, 2*m)
	}
}

// presize carves every node's outbox envelope and inbox windows out of two
// slabs of 2m messages, laid out like the graph's CSR rows, so a fresh
// network does not grow them message by message. The primitives send at
// most one message per incident edge per round, so the envelope gets the
// node's degree. The two inbox sets alternate by round and most rounds
// deliver a node far fewer messages than its degree, so each set gets half
// of it. A buffer that outgrows its window reallocates as before; a BFS
// flood, which delivers a level's explores into one set, is the usual case.
func (s *scratch) presize(g *graph.Graph) {
	off, _ := g.CSRView()
	out := make([]Msg, 2*g.M())
	in := make([]Msg, 2*g.M())
	for v := range g.N {
		lo, hi := off[v], off[v+1]
		mid := (lo + hi + 1) / 2
		s.outBufs[v] = out[lo:lo:hi]
		s.inboxes[v] = in[lo:lo:mid]
		s.inNext[v] = in[mid:mid:hi]
	}
}

// setDue puts v on the next round's worklist.
func (s *scratch) setDue(v int) { s.due[v>>6] |= 1 << (v & 63) }

// OutBuf returns node v's recycled outbox envelope, truncated to length
// zero. A handler running for v may append its outgoing messages to it and
// return it, avoiding a per-round slice allocation; the engine consumes the
// returned slice before v's handler runs again. It must only be called from
// within v's own handler invocation, and a handler that calls OutBuf(v)
// must return either that buffer (possibly grown by append) or nil — never
// a buffer shared with other nodes: the returned slice is adopted as v's
// envelope for later rounds, so a shared one would let one node's later
// outbox overwrite another's.
func (n *Network) OutBuf(v int) []Msg {
	if n.sc == nil || v >= len(n.sc.outBufs) {
		return nil
	}
	n.sc.handed[v] = true
	return n.sc.outBufs[v][:0]
}

// msgCmp orders messages by (From, EdgeID): the deterministic inbox order
// contract.
func msgCmp(a, b Msg) int {
	if a.From != b.From {
		return a.From - b.From
	}
	return a.EdgeID - b.EdgeID
}

// deliver inserts m into an inbox after every entry that does not sort
// after it, so the inbox stays in (From, EdgeID) order and messages on one
// edge keep their outbox order. Senders run in ascending order, so usually
// no entry sorts after m and the insert is an append.
func deliver(box []Msg, m Msg) []Msg {
	i := len(box)
	for i > 0 && msgCmp(box[i-1], m) > 0 {
		i--
	}
	box = append(box, m)
	if i < len(box)-1 {
		copy(box[i+1:], box[i:])
		box[i] = m
	}
	return box
}

// posErr is an error with its (sender, outbox index) position.
type posErr struct {
	err  error
	v, i int
}

// keep records err if no error is recorded yet or err sits at a smaller
// (sender, outbox index): the error an ascending round meets first, in any
// handler order.
func (p *posErr) keep(err error, v, i int) {
	if p.err == nil || v < p.v || (v == p.v && i < p.i) {
		*p = posErr{err, v, i}
	}
}

// roundCost is what one round sent, and the errors it made.
type roundCost struct {
	messages, words int64
	maxEdge         int32
	maxNode         int64 // peak per-node payload words sent this round
	val, bw         posErr
}

// Run executes the given handler to quiescence: it stops when no messages
// are in flight and no node is active. maxRounds guards against
// non-terminating programs. The initial set of active nodes is start (nil
// means all nodes). Buffers are recycled across calls, so repeated Runs on
// one Network allocate only on the first call; the graph must not change
// between calls on the same Network.
func (n *Network) Run(handler Handler, start []int, maxRounds int64) error {
	g := n.G
	// The scratch buffers are shared across Run calls, so a re-entrant or
	// concurrent Run on the same Network would corrupt this run's state;
	// fail loudly instead (CAS also catches two goroutines racing in).
	if !n.running.CompareAndSwap(false, true) {
		return fmt.Errorf("congest: concurrent or re-entrant Run on the same Network")
	}
	defer n.running.Store(false)
	if n.sc == nil {
		n.sc = &scratch{}
	}
	sc := n.sc
	sc.ensure(g)
	us, vs := g.Endpoints()

	// Reset per-Run state. A previous errored Run may have left stale
	// inboxes or worklist bits behind.
	for v := 0; v < g.N; v++ {
		sc.inboxes[v] = sc.inboxes[v][:0]
		sc.inNext[v] = sc.inNext[v][:0]
		sc.handed[v] = false
	}
	clear(sc.due)
	if start == nil {
		for v := 0; v < g.N; v++ {
			sc.setDue(v)
		}
	} else {
		for _, v := range start {
			if v < 0 || v >= g.N {
				return fmt.Errorf("congest: start node %d out of range [0,%d)", v, g.N)
			}
			sc.setDue(v)
		}
	}

	// The observer is latched once per Run: arming costs phase timestamps
	// and one sample per round; disarmed, the hot loop pays a single nil
	// check and never touches the clock.
	observer := n.Observer
	var tRound, tEnd time.Time

	for round := int64(0); ; round++ {
		// Walk the due bits in ascending order, clearing each word.
		sched := sc.sched[:0]
		for i, word := range sc.due {
			sc.due[i] = 0
			for ; word != 0; word &= word - 1 {
				sched = append(sched, i<<6|bits.TrailingZeros64(word))
			}
		}
		sc.sched = sched
		if len(sched) == 0 {
			return nil
		}
		if round >= maxRounds {
			return fmt.Errorf("congest: exceeded %d rounds without quiescence", maxRounds)
		}
		n.stats.SimulatedRounds++
		sc.epoch++
		if permuteSchedule {
			permute(sched, n.stats.SimulatedRounds)
		}
		if observer != nil {
			tRound = time.Now()
		}

		rc := n.runRound(handler, us, vs)
		n.stats.Messages += rc.messages
		n.stats.Words += rc.words
		if int(rc.maxEdge) > n.stats.MaxEdgeWords {
			n.stats.MaxEdgeWords = int(rc.maxEdge)
		}
		if rc.val.err != nil {
			return rc.val.err
		}
		if rc.bw.err != nil {
			return rc.bw.err
		}
		var handlerNs int64
		if observer != nil {
			tEnd = time.Now()
			handlerNs = tEnd.Sub(tRound).Nanoseconds()
		}
		sc.inboxes, sc.inNext = sc.inNext, sc.inboxes
		if observer != nil {
			observer.ObserveRound(RoundSample{
				Round:        n.stats.SimulatedRounds,
				Active:       len(sched),
				Messages:     rc.messages,
				Words:        rc.words,
				MaxEdgeWords: int(rc.maxEdge),
				MaxNodeWords: rc.maxNode,
				HandlerNs:    handlerNs,
				RouteNs:      time.Since(tEnd).Nanoseconds(),
			})
		}
	}
}

// runRound runs the handler of every scheduled node, validates and bills
// each outbox message against the bandwidth budget, delivers it into the
// next round's inboxes, and schedules its receiver and every node that
// stays active.
func (n *Network) runRound(handler Handler, us, vs []int32) roundCost {
	sc := n.sc
	budget := int32(n.WordsPerEdge)
	epoch := sc.epoch
	nEdges := n.G.M()
	edgeWords, edgeEpoch, inNext := sc.edgeWords, sc.edgeEpoch, sc.inNext
	// The hot counters are locals, written to rc once per round.
	var rc roundCost
	var messages, words, maxNode int64
	var maxEdge int32
	for _, v := range sc.sched {
		nodeStart := words
		in := sc.inboxes[v]
		if len(in) == 0 {
			in = nil // no mail is a nil inbox (see Handler)
		}
		out, act := handler(v, in)
		sc.inboxes[v] = sc.inboxes[v][:0]
		if act {
			sc.setDue(v)
		}
		// Re-adopt the OutBuf envelope (possibly grown by append) only when
		// this handler invocation took it: adopting arbitrary returned
		// slices would let a buffer shared across nodes alias multiple
		// outBufs entries.
		if sc.handed[v] {
			sc.handed[v] = false
			if cap(out) > cap(sc.outBufs[v]) {
				sc.outBufs[v] = out
			}
		}
		v32 := int32(v)
		for i := range out {
			m := &out[i]
			if m.From != v {
				rc.val.keep(fmt.Errorf("congest: node %d forged sender %d", v, m.From), v, i)
				break
			}
			if m.EdgeID < 0 || m.EdgeID >= nEdges {
				rc.val.keep(fmt.Errorf("congest: node %d sent on bad edge %d", v, m.EdgeID), v, i)
				break
			}
			dir, to := 0, vs[m.EdgeID]
			if to == v32 {
				dir, to = 1, us[m.EdgeID]
			} else if us[m.EdgeID] != v32 {
				rc.val.keep(fmt.Errorf("congest: node %d sent on non-incident edge %d", v, m.EdgeID), v, i)
				break
			}
			slot := 2*m.EdgeID + dir
			if edgeEpoch[slot] != epoch {
				edgeEpoch[slot] = epoch
				edgeWords[slot] = 0
			}
			cost := int32(len(m.Data))
			if cost == 0 {
				cost = 1 // an empty message still occupies the slot
			}
			used := edgeWords[slot] + cost
			edgeWords[slot] = used
			if used > budget {
				rc.bw.keep(&ErrBandwidth{EdgeID: m.EdgeID, From: v,
					Words: int(used), Budget: n.WordsPerEdge}, v, i)
			}
			if used > maxEdge {
				maxEdge = used
			}
			messages++
			words += int64(len(m.Data))
			inNext[to] = deliver(inNext[to], *m)
			sc.setDue(int(to))
		}
		if nw := words - nodeStart; nw > maxNode {
			maxNode = nw
		}
	}
	rc.messages, rc.words, rc.maxEdge, rc.maxNode = messages, words, maxEdge, maxNode
	return rc
}
