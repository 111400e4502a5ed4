package shortcuts

import (
	"fmt"
	"slices"

	"twoecss/internal/congest"
	"twoecss/internal/graph"
)

// AggPlan is the reusable execution plan of PartwiseAggregate for one
// (graph, partition, shortcut) triple: the per-part BFS trees flattened to
// role tables, plus all run-state scratch. A role is one (part, vertex)
// participation in the aggregation: the vertex's position in that part's
// BFS tree (members aggregate, steiner relays forward). Building the plan
// walks every part subgraph once; Aggregate can then run any number of
// times (the tool hierarchy re-aggregates over the same partitions every
// level call) without rebuilding trees or allocating per-part state. A
// plan is not safe for concurrent use.
//
// The tables are laid out so that a vertex's handler pays per message it
// receives or sends and per role it holds, never per incident edge: a
// received message finds its role by a search over the vertex's own part
// ids, a role's child edges are listed, and a vertex emits only from the
// queues it has filled.
type AggPlan struct {
	g    *graph.Graph
	part *Partition

	// Roles are numbered vertex by vertex: v's roles are the indices
	// [roleStart[v], roleStart[v+1]), in ascending part order, and
	// rolePart holds their parts, so roleOf searches one short sorted run.
	roleStart []int32
	rolePart  []int32
	// parentSlot[ri] is the half-edge slot (2*edgeID+dir, dir 1 when the
	// sender is the edge's V endpoint) role ri sends up on; -1 at the
	// leader.
	parentSlot []int32
	// Role ri's child slots, ordered as its vertex's row, are
	// childSlot[childStart[ri]:childStart[ri+1]].
	childStart []int32
	childSlot  []int32
	// rowPos[slot] is the position of the slot's edge in its sender's
	// row, the order a vertex emits in.
	rowPos []int32

	// Run-state, reused across Aggregate calls.
	acc        []Word
	pend       []int32
	result     []Word
	haveResult []bool
	started    []bool
	// queues[slot] is the FIFO of payloads (tag, part, value) the slot's
	// sender still has to push over that edge, one per round; heads index
	// into the queue slices to avoid re-slicing writes. A slot is written
	// only by its sending vertex's handler. The queues are kept across
	// runs, amortizing their allocation to zero.
	queues [][][3]Word
	heads  []int32
	// A slot's queue and head are this run's only when stamp[slot] == run;
	// a stale slot is reset on its first push, so a run pays for the
	// slots it uses and nothing else.
	stamp []uint64
	run   uint64
	// v's non-empty queues are the slots live[off[v]:off[v]+liveN[v]]
	// (off the graph's CSR row offsets), ordered by rowPos: a vertex has
	// at most one per incident edge, so its region of the flat array is
	// its row's. Only v's handler touches them.
	off   []int32
	live  []int32
	liveN []int32
}

// NewAggPlan builds the plan: per-part BFS trees over G[V_p]+H_p rooted at
// the part leader, in the exact construction order of the legacy per-call
// builds (ascending member order, incident order within a vertex).
func NewAggPlan(g *graph.Graph, part *Partition, sc *Shortcut) *AggPlan {
	pl := &AggPlan{g: g, part: part}
	us, vs := g.Endpoints()
	off, ent := g.CSRView()
	// slotOf is the half-edge slot of edge id sent from v.
	slotOf := func(id, v int32) int32 {
		if vs[id] == v {
			return 2*id + 1
		}
		return 2 * id
	}
	pl.rowPos = make([]int32, 2*g.M())
	for v := 0; v < g.N; v++ {
		for i, h := range ent[off[v]:off[v+1]] {
			pl.rowPos[slotOf(h.ID, int32(v))] = int32(i)
		}
	}

	// Grow every part's tree, recording its roles in part order.
	type proto struct{ v, part, parentEdge int32 }
	var protos []proto
	var pa partAdj
	parentEdge := make(map[int32]int32)
	for p := 0; p < part.Parts; p++ {
		members := part.Members[p]
		if len(members) == 0 {
			continue
		}
		pa.build(g, part, sc.EdgesOf[p], p)
		leader := int32(members[0])
		clear(parentEdge)
		parentEdge[leader] = -1
		order := append(pa.queue[:0], leader)
		for qi := 0; qi < len(order); qi++ {
			v := order[qi]
			for _, id := range pa.row(v) {
				u := us[id] ^ vs[id] ^ v
				if _, ok := parentEdge[u]; !ok {
					parentEdge[u] = id
					order = append(order, u)
				}
			}
		}
		for _, v := range order {
			protos = append(protos, proto{v: v, part: int32(p), parentEdge: parentEdge[v]})
		}
		pa.queue = order[:0]
	}

	// Number the roles vertex by vertex; parts ascend within a vertex
	// because protos come in part order.
	nr := len(protos)
	pl.roleStart = make([]int32, g.N+1)
	for _, r := range protos {
		pl.roleStart[r.v+1]++
	}
	for v := 0; v < g.N; v++ {
		pl.roleStart[v+1] += pl.roleStart[v]
	}
	next := append([]int32(nil), pl.roleStart[:g.N]...)
	pl.rolePart = make([]int32, nr)
	pl.parentSlot = make([]int32, nr)
	for _, r := range protos {
		ri := next[r.v]
		next[r.v]++
		pl.rolePart[ri] = r.part
		pl.parentSlot[ri] = -1
		if r.parentEdge >= 0 {
			pl.parentSlot[ri] = slotOf(r.parentEdge, r.v)
		}
	}
	// A child's parent slot, reversed, is its parent's child slot.
	parentRole := make([]int32, nr)
	pl.childStart = make([]int32, nr+1)
	for v := int32(0); v < int32(g.N); v++ {
		for ri := pl.roleStart[v]; ri < pl.roleStart[v+1]; ri++ {
			if ps := pl.parentSlot[ri]; ps >= 0 {
				parentRole[ri] = pl.roleOf(us[ps>>1]^vs[ps>>1]^v, pl.rolePart[ri])
				pl.childStart[parentRole[ri]+1]++
			}
		}
	}
	for ri := 0; ri < nr; ri++ {
		pl.childStart[ri+1] += pl.childStart[ri]
	}
	pl.childSlot = make([]int32, pl.childStart[nr])
	fill := append([]int32(nil), pl.childStart[:nr]...)
	for ri, ps := range pl.parentSlot {
		if ps >= 0 {
			pl.childSlot[fill[parentRole[ri]]] = ps ^ 1
			fill[parentRole[ri]]++
		}
	}
	for ri := 0; ri < nr; ri++ {
		slices.SortFunc(pl.childSlot[pl.childStart[ri]:pl.childStart[ri+1]], func(a, b int32) int {
			return int(pl.rowPos[a] - pl.rowPos[b])
		})
	}

	pl.acc = make([]Word, nr)
	pl.pend = make([]int32, nr)
	pl.result = make([]Word, nr)
	pl.haveResult = make([]bool, nr)
	pl.started = make([]bool, nr)
	pl.queues = make([][][3]Word, 2*g.M())
	pl.heads = make([]int32, 2*g.M())
	pl.stamp = make([]uint64, 2*g.M())
	pl.off = off
	pl.live = make([]int32, 2*g.M())
	pl.liveN = make([]int32, g.N)
	return pl
}

// roleOf returns v's role index in part p, or -1.
func (pl *AggPlan) roleOf(v, p int32) int32 {
	lo, hi := pl.roleStart[v], pl.roleStart[v+1]
	if i, ok := slices.BinarySearch(pl.rolePart[lo:hi], p); ok {
		return lo + int32(i)
	}
	return -1
}

// push queues payload (tag, p, val) on slot, sent by v.
func (pl *AggPlan) push(v, slot int32, tag, p, val Word) {
	if pl.stamp[slot] != pl.run { // first use this run
		pl.stamp[slot] = pl.run
		pl.queues[slot] = pl.queues[slot][:0]
		pl.heads[slot] = 0
	}
	q := pl.queues[slot]
	if int(pl.heads[slot]) == len(q) {
		// The queue was empty: insert the slot into v's live list, in
		// row order.
		live := pl.live[pl.off[v] : pl.off[v]+pl.liveN[v]+1]
		i := len(live) - 1
		for ; i > 0 && pl.rowPos[live[i-1]] > pl.rowPos[slot]; i-- {
			live[i] = live[i-1]
		}
		live[i] = slot
		pl.liveN[v]++
	}
	pl.queues[slot] = append(q, [3]Word{tag, p, val})
}

const (
	tagUp   = 0
	tagDown = 1
)

// Aggregate combines one value per member vertex within every part (over
// G[V_p]+H_p) and delivers the result to all members, simultaneously for
// all parts; see PartwiseAggregate for the contract.
func (pl *AggPlan) Aggregate(net *congest.Network, x []Word, op Combine) ([]Word, error) {
	if err := pl.simulate(net, x, op); err != nil {
		return nil, err
	}
	out := make([]Word, pl.g.N)
	for v, p := range pl.part.Of {
		if p >= 0 {
			out[v] = pl.result[pl.roleOf(int32(v), int32(p))]
		}
	}
	return out, nil
}

// simulate runs one aggregation and checks that every member vertex
// learned its part's result, which is left in pl.result by role.
func (pl *AggPlan) simulate(net *congest.Network, x []Word, op Combine) error {
	g := pl.g
	if net.G != g {
		return fmt.Errorf("shortcuts: aggregate plan built for a different graph")
	}
	if len(x) != g.N {
		return fmt.Errorf("shortcuts: input length %d != n", len(x))
	}
	part := pl.part

	// Reset run-state. An errored run may leave queues behind.
	for v := 0; v < g.N; v++ {
		for ri := pl.roleStart[v]; ri < pl.roleStart[v+1]; ri++ {
			pl.pend[ri] = pl.childStart[ri+1] - pl.childStart[ri]
			pl.haveResult[ri] = false
			pl.started[ri] = false
			if int32(part.Of[v]) == pl.rolePart[ri] {
				pl.acc[ri] = x[v]
			} else {
				pl.acc[ri] = identityHint // steiner relay: contributes nothing
			}
		}
		pl.liveN[v] = 0
	}
	pl.run++

	handler := func(v int, inbox []congest.Msg) bool {
		v32 := int32(v)
		for _, m := range inbox {
			w := net.Words(m)
			tag, p, val := w[0], int32(w[1]), w[2]
			ri := pl.roleOf(v32, p)
			if ri < 0 {
				continue
			}
			switch tag {
			case tagUp:
				switch {
				case val == identityHint:
					// A pure relay subtree contributed nothing.
				case pl.acc[ri] == identityHint:
					pl.acc[ri] = val
				default:
					pl.acc[ri] = op(pl.acc[ri], val)
				}
				pl.pend[ri]--
			case tagDown:
				pl.result[ri] = val
				pl.haveResult[ri] = true
				// Forward downward on all child edges (enqueued once).
			}
		}
		lo, hi := pl.roleStart[v], pl.roleStart[v+1]
		// Role transitions.
		for ri := lo; ri < hi; ri++ {
			if pl.pend[ri] == 0 && !pl.started[ri] {
				pl.started[ri] = true
				if ps := pl.parentSlot[ri]; ps >= 0 {
					pl.push(v32, ps, tagUp, Word(pl.rolePart[ri]), pl.acc[ri])
				} else {
					pl.result[ri] = pl.acc[ri]
					pl.haveResult[ri] = true
				}
			}
		}
		// Downward forwarding: a role with a fresh result sends it to all
		// children exactly once (children tracked via pend==-1 sentinel).
		for ri := lo; ri < hi; ri++ {
			if pl.haveResult[ri] && pl.pend[ri] != -1 {
				pl.pend[ri] = -1
				for _, cs := range pl.childSlot[pl.childStart[ri]:pl.childStart[ri+1]] {
					pl.push(v32, cs, tagDown, Word(pl.rolePart[ri]), pl.result[ri])
				}
			}
		}
		// Send one queued message per non-empty queue, in row order.
		live := pl.live[pl.off[v] : pl.off[v]+pl.liveN[v]]
		kept := live[:0]
		for _, slot := range live {
			q, head := pl.queues[slot], pl.heads[slot]
			net.Send(v, int(slot>>1), q[head][:]...)
			pl.heads[slot] = head + 1
			if int(head)+1 < len(q) {
				kept = append(kept, slot)
			}
		}
		pl.liveN[v] = int32(len(kept))
		// Transitions happen only on mail, so without mail v has work next
		// round only if a queue still holds payloads.
		return len(kept) > 0
	}
	maxRounds := int64(8*(g.N+g.M()) + 16*len(pl.rolePart) + 64)
	if err := net.Run(handler, nil, maxRounds); err != nil {
		return err
	}
	missing := 0
	for v, p := range part.Of {
		if p < 0 {
			continue
		}
		if ri := pl.roleOf(int32(v), int32(p)); ri < 0 || !pl.haveResult[ri] {
			missing++
		}
	}
	if missing > 0 {
		return fmt.Errorf("shortcuts: %d vertices missed their part aggregate", missing)
	}
	return nil
}

// PartwiseAggregate combines one value per member vertex within every part
// (over G[V_p]+H_p) and delivers the result to all members, simultaneously
// for all parts. The simulation is contention-faithful: every graph edge
// carries at most one message per direction per round regardless of how
// many parts route through it, so the measured rounds reflect the realized
// alpha-congestion beta-dilation of the shortcut. Repeated aggregations
// over one (partition, shortcut) pair should build an AggPlan once and
// call Aggregate on it.
func PartwiseAggregate(net *congest.Network, part *Partition, sc *Shortcut, x []Word, op Combine) ([]Word, error) {
	return NewAggPlan(net.G, part, sc).Aggregate(net, x, op)
}

// identityHint marks a relay role that holds no contribution of its own;
// chosen to be an improbable sentinel rather than a true identity because
// op is opaque. Relays with children replace it on first arrival.
const identityHint = Word(-0x7edcba9876543210)
