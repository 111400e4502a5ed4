package congest

// This file is the engine hot path of Network.Run. The design goals (see
// DESIGN.md for the full write-up) are:
//
//   - Worklist scheduling: a round schedules exactly the nodes that are
//     active or hold undelivered messages, taken in ascending order from a
//     bitset that delivery and active handlers set: O(active + N/64), no sort.
//   - One pass per round on the calling goroutine: Network.Send validates,
//     bills and delivers each message when a handler calls it, into a
//     second inbox set that the next round reads; the two sets swap at the
//     round's end. There is no outbox.
//   - Pointer-free messages: a Msg is 16 bytes of offsets and ids, and its
//     payload words live in a per-round word arena that swaps with the
//     inbox sets, so copying a message pays no GC write barrier and the GC
//     does not scan the inboxes.
//   - Flat bandwidth accounting: the per-(edge,direction) word counters live
//     in one []int32 indexed by 2*edgeID+dir and are lazily reset by an
//     epoch stamp, so a round allocates no map and pays no reset loop.
//   - Buffer recycling: inboxes, word arenas and worklists persist across
//     rounds and across Run calls on the same Network, and grow only when
//     full. In steady state a round performs zero engine-side allocations.
//   - Flat adjacency: incidence validation and delivery read the graph's CSR
//     endpoint arrays (graph.Endpoints), 8 bytes per message instead of a
//     24-byte Edge struct load.
//   - Order independence: nothing a round computes depends on the order in
//     which its handlers run, as long as each handler touches only its own
//     node's state. A build with the congestcheck tag runs every round in a
//     seeded permutation of the schedule to check that (see permuteSchedule),
//     and poisons every spent word arena (see poisonArena).

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"slices"
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

// poisonArena, when set, overwrites every word arena with poisonWord when
// its round ends, so a handler that keeps a Words slice past its round
// reads poison instead of the payload. Only the congestcheck build and this
// package's tests set it.
var poisonArena bool

// poisonWord is what a spent arena holds under poisonArena.
const poisonWord = Word(-0x0badc0de0badc0de)

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
	inboxes [][]Msg // this round's inboxes, read by the handlers
	inNext  [][]Msg // next round's inboxes, unseen by this round's later receivers
	// wCur holds the payloads of inboxes and wNext those of inNext; they
	// swap with the inbox sets.
	wCur, wNext []Word
	due         []uint64 // bitset of the next round's worklist
	sched       []int    // current round worklist
	// edgeWords[2*id+dir] counts words sent this round on edge id in
	// direction dir (0 = from Edges[id].U, 1 = from Edges[id].V). A slot is
	// valid only when edgeEpoch matches the current epoch; epochs increment
	// every round and are never reset, so no per-round clearing is needed.
	edgeWords []int32
	edgeEpoch []int64
	epoch     int64

	// The round in progress: the graph's endpoint arrays, the node whose
	// handler runs (-1 outside a handler), how many sends it made, whether
	// a validation error dropped the rest, and what the round sent.
	us, vs []int32
	cur    int32
	sends  int
	halted bool
	rc     roundCost
}

func (s *scratch) ensure(g *graph.Graph) {
	n, m := g.N, g.M()
	if len(s.inboxes) < n {
		s.inboxes = make([][]Msg, n)
		s.inNext = make([][]Msg, n)
		s.due = make([]uint64, (n+63)/64)
		s.sched = make([]int, 0, n)
		s.presize(g)
	}
	if len(s.edgeWords) < 2*m {
		s.edgeWords = make([]int32, 2*m)
		s.edgeEpoch = make([]int64, 2*m)
	}
}

// presize carves every node's two inbox windows out of one slab of 2m
// messages, laid out like the graph's CSR rows, and the two word arenas
// out of one slab of 4m words, so a fresh network does not grow them
// message by message. The two inbox sets alternate by round and most
// rounds deliver a node far fewer messages than its degree, so each set
// gets half of it. A window that outgrows its share reallocates; a BFS
// flood, which delivers a level's explores into one set, is the usual
// case. An arena holds one word per half-edge, what a round in which
// every node sends one word on every edge needs.
func (s *scratch) presize(g *graph.Graph) {
	off, _ := g.CSRView()
	m := g.M()
	in := make([]Msg, 2*m)
	for v := range g.N {
		lo, hi := off[v], off[v+1]
		mid := (lo + hi + 1) / 2
		s.inboxes[v] = in[lo:lo:mid]
		s.inNext[v] = in[mid:mid:hi]
	}
	w := make([]Word, 4*m)
	s.wCur, s.wNext = w[:0:2*m], w[2*m:2*m]
}

// setDue puts v on the next round's worklist.
func (s *scratch) setDue(v int) { s.due[v>>6] |= 1 << (v & 63) }

// spent recycles a word arena whose round has ended, poisoning it first
// under poisonArena.
func spent(a []Word) []Word {
	if poisonArena {
		for i := range a {
			a[i] = poisonWord
		}
	}
	return a[:0]
}

// Send sends words from node v over edge to the edge's other endpoint,
// whose handler receives them next round. Only v's own handler may call
// it, and Send panics outside a handler. It validates, bills and delivers
// the message at the call and copies words, so the caller may reuse them.
// A message that breaks a rule is reported by Run: the error at the
// smallest (sender, send index), validation errors before bandwidth
// errors. A message with a validation error is dropped, and so is every
// later send of its node in that round.
func (n *Network) Send(v, edge int, words ...Word) {
	sc := n.sc
	if sc == nil || sc.cur < 0 {
		panic("congest: Send called outside a handler")
	}
	i := sc.sends
	sc.sends++
	if sc.halted {
		return
	}
	cur := sc.cur
	if v != int(cur) {
		sc.reject(fmt.Errorf("congest: node %d forged sender %d", cur, v), i)
		return
	}
	if edge < 0 || edge >= len(sc.us) {
		sc.reject(fmt.Errorf("congest: node %d sent on bad edge %d", cur, edge), i)
		return
	}
	dir, to := 0, sc.vs[edge]
	if to == cur {
		dir, to = 1, sc.us[edge]
	} else if sc.us[edge] != cur {
		sc.reject(fmt.Errorf("congest: node %d sent on non-incident edge %d", cur, edge), i)
		return
	}
	slot := 2*edge + dir
	if sc.edgeEpoch[slot] != sc.epoch {
		sc.edgeEpoch[slot] = sc.epoch
		sc.edgeWords[slot] = 0
	}
	nw := len(words)
	used := sc.edgeWords[slot] + int32(max(nw, 1)) // an empty message still occupies the slot
	sc.edgeWords[slot] = used
	rc := &sc.rc
	if used > int32(n.WordsPerEdge) {
		rc.bw.keep(&ErrBandwidth{EdgeID: edge, From: v, Words: int(used), Budget: n.WordsPerEdge}, v, i)
	}
	rc.maxEdge = max(rc.maxEdge, used)
	rc.messages++
	rc.words += int64(nw)
	// Reslicing the arena and the inbox window in place stores only their
	// lengths, so a message stores no pointer unless one of them is full.
	off := len(sc.wNext)
	if cap(sc.wNext)-off < nw {
		sc.wNext = slices.Grow(sc.wNext, nw)
	}
	sc.wNext = sc.wNext[:off+nw]
	copy(sc.wNext[off:], words)
	sc.deliver(to, Msg{EdgeID: int32(edge), From: cur, Off: uint32(off), N: uint32(nw)})
}

// Words returns the payload of m, a message in the running handler's
// inbox. The words are valid until the round ends; a handler that needs
// them later keeps a copy.
func (n *Network) Words(m Msg) []Word {
	end := m.Off + m.N
	return n.sc.wCur[m.Off:end:end]
}

// reject records a validation error at the running node's send i and drops
// the node's remaining sends this round.
func (sc *scratch) reject(err error, i int) {
	sc.rc.val.keep(err, int(sc.cur), i)
	sc.halted = true
}

// inboxKey orders messages by (From, EdgeID): the deterministic inbox
// order contract.
func inboxKey(m Msg) int64 { return int64(m.From)<<32 | int64(m.EdgeID) }

// deliver inserts m into to's next-round inbox after every entry that does
// not sort after it, so the inbox stays in (From, EdgeID) order and
// messages on one edge keep their send order, and schedules to. Senders
// run in ascending order, so usually no entry sorts after m and the insert
// is an append.
func (sc *scratch) deliver(to int32, m Msg) {
	if len(sc.inNext[to]) == cap(sc.inNext[to]) {
		sc.inNext[to] = slices.Grow(sc.inNext[to], 1)
	}
	i := len(sc.inNext[to])
	sc.inNext[to] = sc.inNext[to][:i+1]
	box, k := sc.inNext[to], inboxKey(m)
	for ; i > 0 && inboxKey(box[i-1]) > k; i-- {
		box[i] = box[i-1]
	}
	box[i] = m
	sc.setDue(int(to))
}

// posErr is an error with its (sender, send index) position.
type posErr struct {
	err  error
	v, i int
}

// keep records err if no error is recorded yet or err sits at a smaller
// (sender, send index): the error an ascending round meets first, in any
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
	if n.sc == nil {
		n.sc = &scratch{cur: -1}
	}
	sc := n.sc
	defer func() {
		sc.cur = -1 // Send panics again, also after a handler panicked
		n.running.Store(false)
	}()
	sc.ensure(g)
	sc.us, sc.vs = g.Endpoints()

	// Reset per-Run state. A previous errored Run may have left stale
	// inboxes, payloads or worklist bits behind.
	for v := 0; v < g.N; v++ {
		sc.inboxes[v] = sc.inboxes[v][:0]
		sc.inNext[v] = sc.inNext[v][:0]
	}
	sc.wCur, sc.wNext = spent(sc.wCur), spent(sc.wNext)
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

		sc.rc = roundCost{}
		n.runRound(handler)
		rc := &sc.rc
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
		sc.wCur, sc.wNext = sc.wNext, spent(sc.wCur)
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

// runRound runs the handler of every scheduled node, whose sends
// accumulate the round's cost in sc.rc, and schedules every node that
// stays active.
func (n *Network) runRound(handler Handler) {
	sc := n.sc
	for _, v := range sc.sched {
		in := sc.inboxes[v]
		if len(in) == 0 {
			in = nil // no mail is a nil inbox (see Handler)
		}
		sc.cur, sc.sends, sc.halted = int32(v), 0, false
		sent := sc.rc.words
		if handler(v, in) {
			sc.setDue(v)
		}
		sc.inboxes[v] = sc.inboxes[v][:0]
		sc.rc.maxNode = max(sc.rc.maxNode, sc.rc.words-sent)
	}
}
