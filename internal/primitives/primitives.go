// Package primitives implements the standard CONGEST building blocks the
// paper composes its algorithms from, as real message-level simulations on a
// congest.Network: distributed BFS-tree construction, pipelined broadcast
// and convergecast of k values over a rooted tree, keyed and subtree
// aggregation, and global aggregate/termination queries.
//
// Round complexities (all measured by the engine, stated here for
// reference): BFS is O(D); a pipelined k-item broadcast or gather costs
// O(height + k); subtree aggregation costs O(height); a global aggregate
// costs O(height).
package primitives

import (
	"fmt"
	"slices"

	"twoecss/internal/congest"
	"twoecss/internal/graph"
	"twoecss/internal/tree"
)

// maxRoundsFor bounds primitive executions: generous linear budget.
func maxRoundsFor(g *graph.Graph, extra int) int64 {
	return int64(4*g.N + 4*g.M() + extra + 64)
}

// BuildBFS constructs a BFS spanning tree rooted at root by distributed
// flooding: each vertex joins the tree when it first hears an explore
// message, adopting the minimum-id sender among same-round arrivals as its
// parent. Rounds: O(ecc(root)).
func BuildBFS(net *congest.Network, root int) (*tree.Rooted, error) {
	g := net.G
	if root < 0 || root >= g.N {
		return nil, fmt.Errorf("primitives: bad root %d", root)
	}
	parentEdge := make([]int, g.N)
	discovered := make([]bool, g.N)
	justJoined := make([]bool, g.N)
	for i := range parentEdge {
		parentEdge[i] = -1
	}
	discovered[root] = true
	justJoined[root] = true

	handler := func(v int, inbox []congest.Msg) bool {
		if !discovered[v] {
			// First explore wins; inbox is sorted by sender id.
			if len(inbox) == 0 {
				return false
			}
			discovered[v] = true
			parentEdge[v] = int(inbox[0].EdgeID)
			justJoined[v] = true
			return true
		}
		if justJoined[v] {
			justJoined[v] = false
			for _, h := range g.Row(v) {
				if id := int(h.ID); id != parentEdge[v] {
					net.Send(v, id, 1) // explore
				}
			}
		}
		return false
	}
	if err := net.Run(handler, []int{root}, maxRoundsFor(g, 0)); err != nil {
		return nil, err
	}
	return tree.NewFromParentEdges(g, root, parentEdge)
}

// Item is a fixed-arity tuple of words moved by the pipelined primitives.
// One Item fits one CONGEST message (a constant number of O(log n)-bit
// fields).
type Item []congest.Word

// The primitives read their node-local tree view (parent edge, child
// edges) straight from the *tree.Rooted, which models the same node-local
// knowledge (each vertex knows its incident tree edges after tree
// construction) without a per-call adjacency copy.

// Scratch is the node state of Gather, Broadcast, KeyedSumOrdered,
// SubtreeAggregate and the primitives built on them, kept across calls:
// a caller that runs many aggregations over one (network, tree) pair owns
// one Scratch for that pair's lifetime and allocates the O(n) state once.
// The zero value is ready to use and grows to the largest network it has
// served. A Scratch is not safe for concurrent use, like the Network it
// runs on. Results the primitives return never alias it, except the table
// KeyedSumOrdered returns, which is valid until its next call.
//
// The handlers are methods bound once per Scratch and read the running
// call's inputs from it, so a call allocates no closure. Each run starts
// only at the nodes that can act without mail, and a handler stays active
// only while it can act again without mail: a node waiting for its
// children is woken by their messages.
type Scratch struct {
	// The running call's inputs.
	net   *congest.Network
	t     *tree.Rooted
	op    Combine
	kv    []KeyedValues
	items []Item
	start []int

	// KeyedSumOrdered: progress[u] is the last key child u streamed to its
	// parent (unreported before u's first message, doneTag when u
	// finished).
	progress []congest.Word
	sentDone []bool
	table    KeyedValues
	// Broadcast: items received and forwarded per vertex.
	rcvd, fwd []int32
	// Gather: per-vertex item queues (head[v] is the next to send), the
	// items collected at the root, and the words of every item received
	// this call: a payload lives only until its round ends, so a received
	// item is queued as a copy here. Appends write past every live item,
	// and growth leaves the old array intact.
	queue     [][]Item
	head      []int32
	collected []Item
	words     []congest.Word
	// SubtreeAggregate: running aggregate and children still to report.
	acc    []congest.Word
	needed []int32
	// GlobalAggregate: the one item the root broadcasts.
	total [1]Item

	keyed, gather, broadcast, subtree congest.Handler
}

// bind records the running call's network and tree and binds the handlers
// on first use.
func (sc *Scratch) bind(net *congest.Network, t *tree.Rooted) {
	sc.net, sc.t = net, t
	if sc.keyed == nil {
		sc.keyed, sc.gather = sc.keyedStep, sc.gatherStep
		sc.broadcast, sc.subtree = sc.broadcastStep, sc.subtreeStep
	}
}

// sized returns s with length n, reusing its backing array when it is
// large enough. Callers reset the entries they read.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// leaves sets the start set to the leaves of t.
func (sc *Scratch) leaves(t *tree.Rooted) []int {
	sc.start = sc.start[:0]
	for v, kids := range t.Children {
		if len(kids) == 0 {
			sc.start = append(sc.start, v)
		}
	}
	return sc.start
}

// Gather moves every node's items to the root via a pipelined convergecast
// without combining: one item per edge per round flows upward. It returns
// the items received at the root (root's own items included), in arrival
// order, as copies that alias neither sc nor perNode.
// Rounds: O(height + total items).
func Gather(net *congest.Network, t *tree.Rooted, sc *Scratch, perNode [][]Item) ([]Item, error) {
	collected, err := gather(net, t, sc, perNode)
	if err != nil {
		return nil, err
	}
	out := make([]Item, len(collected))
	for i, it := range collected {
		out[i] = slices.Clone(it)
	}
	return out, nil
}

// gather runs Gather and returns the root's items in sc.collected, valid
// until sc's next gather.
func gather(net *congest.Network, t *tree.Rooted, sc *Scratch, perNode [][]Item) ([]Item, error) {
	g := net.G
	if len(perNode) != g.N {
		return nil, fmt.Errorf("primitives: perNode length %d != n", len(perNode))
	}
	sc.bind(net, t)
	if len(sc.queue) < g.N {
		sc.queue = make([][]Item, g.N)
	}
	sc.head = sized(sc.head, g.N)
	sc.collected = sc.collected[:0]
	sc.words = sc.words[:0]
	// Only item holders can act before any mail arrives. With no items at
	// all the root still runs, so the call costs its one round.
	sc.start = sc.start[:0]
	total := 0
	for v, its := range perNode {
		sc.queue[v] = append(sc.queue[v][:0], its...)
		sc.head[v] = 0
		if len(its) > 0 {
			sc.start = append(sc.start, v)
			total += len(its)
		}
	}
	if len(sc.start) == 0 {
		sc.start = append(sc.start, t.Root)
	}
	if err := net.Run(sc.gather, sc.start, maxRoundsFor(g, total)); err != nil {
		return nil, err
	}
	return sc.collected, nil
}

func (sc *Scratch) gatherStep(v int, inbox []congest.Msg) bool {
	q, h := sc.queue[v], sc.head[v]
	for _, m := range inbox {
		k := len(sc.words)
		sc.words = append(sc.words, sc.net.Words(m)...)
		q = append(q, Item(sc.words[k:len(sc.words):len(sc.words)]))
	}
	if v == sc.t.Root {
		sc.collected = append(sc.collected, q[h:]...)
		sc.queue[v], sc.head[v] = q[:0], 0
		return false
	}
	// A non-root vertex runs only with items queued: it holds some at
	// the start, was just sent one, or stayed active for the rest.
	it := q[h]
	if h++; int(h) == len(q) {
		q, h = q[:0], 0 // drained: refill from the front
	}
	sc.queue[v], sc.head[v] = q, h
	sc.net.Send(v, sc.t.ParentEdge[v], it...)
	return int(h) < len(q)
}

// Broadcast delivers the given items from the root to every vertex via a
// pipelined downcast. Every vertex ends up with all items in the same
// order. Rounds: O(height + len(items)).
//
// The pipelined downcast preserves order, so every vertex receives exactly
// items[0], items[1], ... — node state is therefore two counters per
// vertex (received, forwarded) rather than per-vertex item queues, and the
// returned per-vertex slices alias the caller's items (do not mutate).
func Broadcast(net *congest.Network, t *tree.Rooted, sc *Scratch, items []Item) ([][]Item, error) {
	if err := BroadcastAll(net, t, sc, items); err != nil {
		return nil, err
	}
	received := make([][]Item, net.G.N)
	for v := range received {
		r := sc.rcvd[v]
		received[v] = items[:r:r]
	}
	return received, nil
}

// BroadcastAll is Broadcast for callers that need only the communication
// (and its round bill), not the per-vertex received lists.
func BroadcastAll(net *congest.Network, t *tree.Rooted, sc *Scratch, items []Item) error {
	g := net.G
	sc.bind(net, t)
	sc.items = items
	sc.rcvd = sized(sc.rcvd, g.N)
	sc.fwd = sized(sc.fwd, g.N)
	clear(sc.rcvd)
	clear(sc.fwd)
	sc.rcvd[t.Root] = int32(len(items))
	sc.start = append(sc.start[:0], t.Root)
	err := net.Run(sc.broadcast, sc.start, maxRoundsFor(g, len(items)*2))
	sc.items = nil
	return err
}

func (sc *Scratch) broadcastStep(v int, inbox []congest.Msg) bool {
	rcvd := sc.rcvd[v] + int32(len(inbox))
	sc.rcvd[v] = rcvd
	if sc.fwd[v] == rcvd || len(sc.t.ChildEdges[v]) == 0 {
		sc.fwd[v] = rcvd
		return false
	}
	it := sc.items[sc.fwd[v]]
	sc.fwd[v]++
	for _, id := range sc.t.ChildEdges[v] {
		sc.net.Send(v, id, it...)
	}
	return sc.fwd[v] < rcvd
}

// GatherBroadcast gathers all items to the root and then broadcasts them so
// that every vertex knows every item (the "all vertices learn X" pattern
// used throughout Section 4). Rounds: O(height + total items).
func GatherBroadcast(net *congest.Network, t *tree.Rooted, sc *Scratch, perNode [][]Item) ([][]Item, error) {
	collected, err := Gather(net, t, sc, perNode)
	if err != nil {
		return nil, err
	}
	return Broadcast(net, t, sc, collected)
}

// GatherBroadcastAll is GatherBroadcast for callers that need only the
// communication (and its round bill), not the per-vertex received lists.
func GatherBroadcastAll(net *congest.Network, t *tree.Rooted, sc *Scratch, perNode [][]Item) error {
	collected, err := gather(net, t, sc, perNode)
	if err != nil {
		return err
	}
	return BroadcastAll(net, t, sc, collected)
}

// Combine is a binary aggregate operator on words (sum, min, max, xor, ...).
type Combine func(a, b congest.Word) congest.Word

// SubtreeAggregate computes, for every vertex v, the aggregate of x over the
// subtree of v (descendants' aggregate on the given tree). Internal nodes
// wait for all children before reporting upward. Rounds: O(height).
func SubtreeAggregate(net *congest.Network, t *tree.Rooted, sc *Scratch, x []congest.Word, op Combine) ([]congest.Word, error) {
	acc, err := subtreeAggregate(net, t, sc, x, op)
	if err != nil {
		return nil, err
	}
	return slices.Clone(acc), nil
}

// subtreeAggregate runs SubtreeAggregate and returns the aggregates in
// sc.acc.
func subtreeAggregate(net *congest.Network, t *tree.Rooted, sc *Scratch, x []congest.Word, op Combine) ([]congest.Word, error) {
	g := net.G
	if len(x) != g.N {
		return nil, fmt.Errorf("primitives: input length %d != n", len(x))
	}
	sc.bind(net, t)
	sc.op = op
	sc.acc = append(sc.acc[:0], x...)
	sc.needed = sized(sc.needed, g.N)
	for v, kids := range t.Children {
		sc.needed[v] = int32(len(kids))
	}
	err := net.Run(sc.subtree, sc.leaves(t), maxRoundsFor(g, 0))
	sc.op = nil
	if err != nil {
		return nil, err
	}
	return sc.acc, nil
}

// subtreeStep reports v's aggregate once its last child has.
func (sc *Scratch) subtreeStep(v int, inbox []congest.Msg) bool {
	for _, m := range inbox {
		sc.acc[v] = sc.op(sc.acc[v], sc.net.Words(m)[0])
		sc.needed[v]--
	}
	if pe := sc.t.ParentEdge[v]; sc.needed[v] == 0 && pe >= 0 {
		sc.net.Send(v, pe, sc.acc[v])
	}
	return false
}

// GlobalAggregate combines one word per vertex into a single value known to
// all vertices (convergecast to the root followed by a broadcast). Used for
// global termination tests such as "is any tree edge of layer k still
// uncovered". Rounds: O(height).
func GlobalAggregate(net *congest.Network, t *tree.Rooted, sc *Scratch, x []congest.Word, op Combine) (congest.Word, error) {
	up, err := subtreeAggregate(net, t, sc, x, op)
	if err != nil {
		return 0, err
	}
	// The root broadcasts the total as one one-word item read from acc.
	sc.total[0] = up[t.Root : t.Root+1 : t.Root+1]
	if err := BroadcastAll(net, t, sc, sc.total[:]); err != nil {
		return 0, err
	}
	return up[t.Root], nil
}
