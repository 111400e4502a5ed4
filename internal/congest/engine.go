package congest

// This file is the engine hot path of Network.Run. The design goals (see
// DESIGN.md for the full write-up) are:
//
//   - Worklist scheduling: a round schedules exactly the nodes that are
//     active or hold undelivered messages, taken in ascending order from a
//     bitset that delivery and active handlers set: O(active + N/64), no sort.
//   - One pass per round: a handler phase on one goroutine delivers each
//     message right after validating and billing it, into a second inbox
//     set that the next round reads; the two sets swap at the round's end.
//   - Flat bandwidth accounting: the per-(edge,direction) word counters live
//     in one []int32 indexed by 2*edgeID+dir and are lazily reset by an
//     epoch stamp, so a round allocates no map and pays no reset loop.
//   - Buffer recycling: inboxes, outboxes, and worklists persist across
//     rounds and across Run calls on the same Network; handlers can opt into
//     recycled outbox envelopes via Network.OutBuf. In steady state a round
//     performs zero engine-side allocations.
//   - Sharded delivery: a round with many scheduled nodes runs its handlers
//     on a worker pool owned by the Network (spawned lazily, reused across
//     Run calls; see Network.Close), then routes by receiver shards aligned
//     to 64 nodes, so every inbox and worklist word has one writer scanning
//     senders in ascending order — results are bit-identical for any
//     worker count.
//   - Flat adjacency: incidence validation and routing read the graph's CSR
//     endpoint arrays (graph.Endpoints), 8 bytes per message instead of a
//     24-byte Edge struct load.

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"twoecss/internal/graph"
)

// parallelSchedMin and parallelMsgsPerWorker gate the parallel paths: below
// these sizes the dispatch barrier costs more than the work. The routing
// threshold scales with the pool size because every routing worker scans all
// outbox messages and delivers only its own receiver shard, so the per-round
// message count must grow with W for sharding to win.
const (
	parallelSchedMin      = 64
	parallelMsgsPerWorker = 64
)

// wstate is the per-worker accumulator for one round. Hot counters are kept
// in locals inside the phase functions and written back once per phase, so
// false sharing between adjacent wstates is not a concern.
type wstate struct {
	messages int64
	words    int64
	maxEdge  int32
	maxNode  int64 // peak per-node payload words sent this round
	// First validation/bandwidth error observed by this worker, with its
	// (sender, outbox index) position for deterministic cross-worker merge.
	valErr     error
	valV, valI int
	bwErr      *ErrBandwidth
	bwV, bwI   int
}

// scratch holds all engine state that survives rounds and Run calls. It is
// lazily sized to the network's graph on first use.
type scratch struct {
	inboxes [][]Msg // this round's inboxes, read by the handlers
	inNext  [][]Msg // next round's inboxes, unseen by this round's later receivers
	// outboxes and active hold a pooled handler phase's results until the
	// main goroutine and route consume them; an inline round uses neither.
	outboxes [][]Msg
	active   []bool
	outBufs  [][]Msg  // recycled envelopes handed out by OutBuf
	handed   []bool   // v's handler took its OutBuf envelope this round
	due      []uint64 // bitset of the next round's worklist
	sched    []int    // current round worklist, ascending
	// edgeWords[2*id+dir] counts words sent this round on edge id in
	// direction dir (0 = from Edges[id].U, 1 = from Edges[id].V). A slot is
	// valid only when edgeEpoch matches the current epoch; epochs increment
	// every round and are never reset, so no per-round clearing is needed.
	edgeWords []int32
	edgeEpoch []int64
	epoch     int64
	workers   []wstate
	// eng is the per-Run execution state, kept here so a steady-state Run
	// performs zero allocations (the pool stores a *engine while
	// dispatching, which would otherwise force a heap engine per call).
	eng engine
}

func (s *scratch) ensure(g *graph.Graph, workers int) {
	n, m := g.N, g.M()
	if len(s.inboxes) < n {
		s.inboxes = make([][]Msg, n)
		s.inNext = make([][]Msg, n)
		s.outboxes = make([][]Msg, n)
		s.active = make([]bool, n)
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
	if len(s.workers) < workers {
		s.workers = make([]wstate, workers)
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
// envelope for later rounds, and concurrently running handlers would then
// race on the shared backing array.
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
// after it. Senders deliver in ascending order, so only entries of m's own
// sender can sort after it, and usually none does: the inbox stays in
// (From, EdgeID) order, and messages on one edge keep their outbox order.
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

// engine is the per-Run execution state: the handler, flat edge-endpoint
// views, and pointers to the Network's persistent scratch.
type engine struct {
	net     *Network
	sc      *scratch
	handler Handler
	W       int // pool size (including the main goroutine as worker 0)
	// us/vs are the graph's flat endpoint arrays (graph.Endpoints): the
	// validation and routing loops touch 8 bytes per message instead of a
	// 24-byte Edge struct.
	us, vs []int32
}

// pool is the persistent worker pool of one Network. It is spawned lazily
// on the first parallel round and survives across Run calls (reusing the
// parked goroutines instead of respawning W-1 goroutines per Run); it is
// torn down by Network.Close, or by a GC cleanup if the owning Network is
// dropped without Close. Worker w parks on start[w]; the main goroutine
// works as worker 0. Channel operations carry no payload, so a round's
// dispatch performs no allocation.
type pool struct {
	W     int
	start []chan int8 // per-worker phase trigger (1=handlers, 2=route)
	done  chan struct{}
	// cur is the engine of the Run being dispatched. It is set before the
	// trigger sends and cleared at the barrier, so a parked pool holds no
	// reference to any Network (letting the GC cleanup fire).
	cur  *engine
	stop sync.Once
}

func newPool(W int) *pool {
	p := &pool{W: W, start: make([]chan int8, W), done: make(chan struct{}, W)}
	for w := 1; w < W; w++ {
		p.start[w] = make(chan int8)
		go func(w int) {
			for ph := range p.start[w] {
				e := p.cur
				if ph == 1 {
					e.runHandlers(w, W)
				} else {
					e.route(w, W)
				}
				p.done <- struct{}{}
			}
		}(w)
	}
	return p
}

// dispatch fans one phase out over the pool and blocks until every worker
// has finished it.
func (p *pool) dispatch(e *engine, phase int8) {
	p.cur = e
	for w := 1; w < p.W; w++ {
		p.start[w] <- phase
	}
	if phase == 1 {
		e.runHandlers(0, p.W)
	} else {
		e.route(0, p.W)
	}
	for w := 1; w < p.W; w++ {
		<-p.done
	}
	p.cur = nil
}

// close releases the pool goroutines. Idempotent; must not race with a Run
// on the owning Network.
func (p *pool) close() {
	p.stop.Do(func() {
		for w := 1; w < p.W; w++ {
			close(p.start[w])
		}
	})
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
	workers := n.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n.sc == nil {
		n.sc = &scratch{}
	}
	sc := n.sc
	sc.ensure(g, workers)
	// A worker-count change (n.Workers edited between Runs) retires the old
	// pool; the next parallel round spawns one of the right size.
	if n.pool != nil && n.pool.W != workers {
		n.pool.close()
		n.pool = nil
	}
	us, vs := g.Endpoints() // also forces the CSR build pre-fan-out

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

	e := &sc.eng
	*e = engine{net: n, sc: sc, handler: handler, W: workers, us: us, vs: vs}

	// The observer is latched once per Run: arming costs phase timestamps
	// and one sample per round; disarmed, the hot loop pays a single nil
	// check and never touches the clock.
	observer := n.Observer
	var tRound, tRoute time.Time

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
		if observer != nil {
			tRound = time.Now()
		}

		// Run handlers, validate outboxes, account bandwidth; on one
		// goroutine also deliver. Each scheduled node is processed by
		// exactly one worker, and every (edge,direction) counter slot is
		// owned by its unique sender, so the phase needs no locks.
		var roundMsgs, roundWords, roundMaxNode int64
		var roundMaxEdge int32
		used := e.runPhase(1, len(sched) >= parallelSchedMin)
		for w := 0; w < used; w++ {
			ws := &sc.workers[w]
			n.stats.Messages += ws.messages
			n.stats.Words += ws.words
			if int(ws.maxEdge) > n.stats.MaxEdgeWords {
				n.stats.MaxEdgeWords = int(ws.maxEdge)
			}
			roundMsgs += ws.messages
			roundWords += ws.words
			if ws.maxEdge > roundMaxEdge {
				roundMaxEdge = ws.maxEdge
			}
			if ws.maxNode > roundMaxNode {
				roundMaxNode = ws.maxNode
			}
			ws.messages, ws.words, ws.maxEdge, ws.maxNode = 0, 0, 0, 0
		}
		if err := e.mergeErrors(used); err != nil {
			return err
		}
		var handlerNs int64
		if observer != nil {
			tRoute = time.Now()
			handlerNs = tRoute.Sub(tRound).Nanoseconds()
		}

		// A pooled handler phase left its results behind: schedule the
		// nodes that stay active, then route, sharded by receiver.
		if used > 1 {
			for _, v := range sched {
				if sc.active[v] {
					sc.setDue(v)
				}
			}
			if roundMsgs > 0 {
				e.runPhase(2, roundMsgs >= int64(parallelMsgsPerWorker*e.W))
			}
		}
		sc.inboxes, sc.inNext = sc.inNext, sc.inboxes
		if observer != nil {
			observer.ObserveRound(RoundSample{
				Round:        n.stats.SimulatedRounds,
				Active:       len(sched),
				Messages:     roundMsgs,
				Words:        roundWords,
				MaxEdgeWords: int(roundMaxEdge),
				MaxNodeWords: roundMaxNode,
				HandlerNs:    handlerNs,
				RouteNs:      time.Since(tRoute).Nanoseconds(),
			})
		}
	}
}

// runPhase executes one phase, parallel if the pool is big enough and the
// caller's size gate says the work amortizes the barrier. It returns the
// number of worker slots the phase wrote to, so the merge loop and the
// execution path can never disagree. The Network's persistent pool is
// spawned lazily on the first parallel round and reused by later Runs; see
// Network.Close for the teardown contract.
func (e *engine) runPhase(phase int8, parallel bool) int {
	if e.W > 1 && parallel {
		n := e.net
		if n.pool == nil {
			n.pool = newPool(e.W)
			// Backstop for Networks dropped without Close: once the Network
			// is unreachable no Run can be active, so closing the parked
			// pool is safe. The pool never points back at the Network while
			// parked (dispatch clears cur), so the cleanup can fire.
			runtime.AddCleanup(n, func(p *pool) { p.close() }, n.pool)
		}
		n.pool.dispatch(e, phase)
		return e.W
	}
	if phase == 1 {
		e.runHandlers(0, 1)
	} else {
		e.route(0, 1)
	}
	return 1
}

// runHandlers executes worker w's contiguous share of the schedule: the
// handler call, outbox validation, and bandwidth accounting. With W == 1 it
// is the round's only worker and also delivers every valid message and
// schedules the active nodes; on the pool it leaves both to the main
// goroutine and route.
func (e *engine) runHandlers(w, W int) {
	sc, g := e.sc, e.net.G
	inline := W == 1
	sched := sc.sched
	chunk := (len(sched) + W - 1) / W
	lo := w * chunk
	if lo > len(sched) {
		lo = len(sched)
	}
	hi := lo + chunk
	if hi > len(sched) {
		hi = len(sched)
	}
	ws := &sc.workers[w]
	budget := int32(e.net.WordsPerEdge)
	epoch := sc.epoch
	us, vs, nEdges := e.us, e.vs, g.M()
	edgeWords, edgeEpoch, inNext := sc.edgeWords, sc.edgeEpoch, sc.inNext
	var messages, words int64
	maxEdge := ws.maxEdge
	maxNode := ws.maxNode
	for _, v := range sched[lo:hi] {
		nodeStart := words
		in := sc.inboxes[v]
		if len(in) == 0 {
			in = nil // no mail is a nil inbox (see Handler)
		}
		out, act := e.handler(v, in)
		sc.inboxes[v] = sc.inboxes[v][:0]
		if inline {
			if act {
				sc.setDue(v)
			}
		} else {
			sc.active[v] = act
			sc.outboxes[v] = out
		}
		// Re-adopt the OutBuf envelope (possibly grown by append) only when
		// this handler invocation took it: adopting arbitrary returned
		// slices would let a buffer shared across nodes alias multiple
		// outBufs entries and race on a later parallel Run.
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
				ws.recordVal(fmt.Errorf("congest: node %d forged sender %d", v, m.From), v, i)
				break
			}
			if m.EdgeID < 0 || m.EdgeID >= nEdges {
				ws.recordVal(fmt.Errorf("congest: node %d sent on bad edge %d", v, m.EdgeID), v, i)
				break
			}
			dir, to := 0, vs[m.EdgeID]
			if to == v32 {
				dir, to = 1, us[m.EdgeID]
			} else if us[m.EdgeID] != v32 {
				ws.recordVal(fmt.Errorf("congest: node %d sent on non-incident edge %d", v, m.EdgeID), v, i)
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
			if used > budget && ws.bwErr == nil {
				ws.bwErr = &ErrBandwidth{EdgeID: m.EdgeID, From: v,
					Words: int(used), Budget: e.net.WordsPerEdge}
				ws.bwV, ws.bwI = v, i
			}
			if used > maxEdge {
				maxEdge = used
			}
			messages++
			words += int64(len(m.Data))
			if inline {
				inNext[to] = deliver(inNext[to], *m)
				sc.setDue(int(to))
			}
		}
		if nw := words - nodeStart; nw > maxNode {
			maxNode = nw
		}
	}
	ws.messages += messages
	ws.words += words
	ws.maxEdge = maxEdge
	ws.maxNode = maxNode
}

func (ws *wstate) recordVal(err error, v, i int) {
	if ws.valErr == nil {
		ws.valErr, ws.valV, ws.valI = err, v, i
	}
}

// mergeErrors picks the deterministic first error across workers: the one
// with the smallest (sender, outbox index), validation errors first. The
// result is therefore independent of the worker count.
func (e *engine) mergeErrors(used int) error {
	var val error
	var bw *ErrBandwidth
	valV, valI, bwV, bwI := -1, -1, -1, -1
	for w := 0; w < used; w++ {
		ws := &e.sc.workers[w]
		if ws.valErr != nil && (valV < 0 || ws.valV < valV || (ws.valV == valV && ws.valI < valI)) {
			val, valV, valI = ws.valErr, ws.valV, ws.valI
		}
		if ws.bwErr != nil && (bwV < 0 || ws.bwV < bwV || (ws.bwV == bwV && ws.bwI < bwI)) {
			bw, bwV, bwI = ws.bwErr, ws.bwV, ws.bwI
		}
		ws.valErr, ws.bwErr = nil, nil
	}
	if val != nil {
		return val
	}
	if bw != nil {
		return bw
	}
	return nil
}

// route delivers the outbox messages of a pooled handler phase whose
// receiver falls in worker w's receiver range, scanning senders in
// ascending schedule order. The ranges are aligned to 64 nodes, so each
// inbox and each word of the due bitset is written by exactly one worker.
func (e *engine) route(w, W int) {
	sc := e.sc
	nw := (e.net.G.N + 63) / 64
	lo, hi := w*nw/W*64, (w+1)*nw/W*64
	us, vs := e.us, e.vs
	for _, v := range sc.sched {
		v32 := int32(v)
		for _, m := range sc.outboxes[v] {
			// The far endpoint of an incident edge, branch-free: v is one
			// of {us[id], vs[id]}, so XOR cancels it out.
			to := int(us[m.EdgeID] ^ vs[m.EdgeID] ^ v32)
			if to < lo || to >= hi {
				continue
			}
			sc.inNext[to] = deliver(sc.inNext[to], m)
			sc.setDue(to)
		}
	}
}
