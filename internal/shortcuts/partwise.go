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
// level call) without rebuilding trees or allocating. A plan is not safe
// for concurrent use.
//
// The tables are laid out so that a vertex's handler pays per message it
// receives or sends and per role it holds, never per incident edge or per
// search: a message names the role it is for, a role's tree neighbours
// are listed with their roles, and a vertex emits only from the queues it
// has filled.
type AggPlan struct {
	g    *graph.Graph
	part *Partition

	// Roles are numbered vertex by vertex: v's roles are the indices
	// [roleStart[v], roleStart[v+1]), in ascending part order.
	roleStart []int32
	// memberRole[v] is v's role in its own part, -1 when v is in none.
	memberRole []int32
	// up[ri] is the hop role ri sends on toward its part's leader; its
	// slot is -1 at the leader.
	up []hop
	// Role ri's children are down[downStart[ri]:downStart[ri+1]], ordered
	// as its vertex's row.
	downStart []int32
	down      []hop
	// rowPos[slot] is the position of the slot's edge in its sender's
	// row, the order a vertex emits in.
	rowPos []int32

	// Run-state, reused across Aggregate calls.
	acc        []Word
	pend       []int32
	result     []Word
	haveResult []bool
	started    []bool
	// Every payload (tag, role, value) queued this run lives in arena,
	// linked through next. fifo[slot] is the queue of payloads the slot's
	// sender still has to push over that edge, one per round. A slot is
	// written only by its sending vertex's handler.
	arena [][3]Word
	next  []int32
	fifo  []fifo
	run   uint64
	// v's non-empty queues are the slots live[off[v]:off[v]+liveN[v]]
	// (off the graph's CSR row offsets), ordered by rowPos: a vertex has
	// at most one per incident edge, so its region of the flat array is
	// its row's. Only v's handler touches them.
	off   []int32
	live  []int32
	liveN []int32
}

// A hop is one step along a part's BFS tree: the half-edge slot
// (2*edgeID+dir, dir 1 when the sender is the edge's V endpoint) a role
// sends on, and the role at the slot's far end that the message is for.
type hop struct{ slot, role int32 }

// A fifo runs from arena index head to tail through the links next; head
// is -1 when it is empty. Its head and tail are this run's only when
// stamp == run: a stale fifo is reset on its first push, so a run pays for
// the slots it uses and nothing else.
type fifo struct {
	stamp      uint64
	head, tail int32
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
	// In part p's tree, v is reached when reached[v] == p+1, and
	// parentEdge[v] is then its parent edge (-1 at the leader).
	parentEdge := make([]int32, g.N)
	reached := make([]int32, g.N)
	for p := 0; p < part.Parts; p++ {
		members := part.Members[p]
		if len(members) == 0 {
			continue
		}
		pa.build(g, part, sc.EdgesOf[p], p)
		leader, mark := int32(members[0]), int32(p+1)
		reached[leader], parentEdge[leader] = mark, -1
		order := append(pa.queue[:0], leader)
		for qi := 0; qi < len(order); qi++ {
			v := order[qi]
			for _, id := range pa.row(v) {
				u := us[id] ^ vs[id] ^ v
				if reached[u] != mark {
					reached[u], parentEdge[u] = mark, id
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
	rolePart := make([]int32, nr)
	pl.up = make([]hop, nr)
	pl.memberRole = make([]int32, g.N)
	for v := range pl.memberRole {
		pl.memberRole[v] = -1
	}
	for _, r := range protos {
		ri := next[r.v]
		next[r.v]++
		rolePart[ri] = r.part
		pl.up[ri] = hop{slot: -1, role: -1}
		if r.parentEdge >= 0 {
			pl.up[ri].slot = slotOf(r.parentEdge, r.v)
		}
		if int32(part.Of[r.v]) == r.part {
			pl.memberRole[r.v] = ri
		}
	}
	// roleOf returns v's role in part p: parts ascend within v's roles.
	roleOf := func(v, p int32) int32 {
		lo, hi := pl.roleStart[v], pl.roleStart[v+1]
		i, _ := slices.BinarySearch(rolePart[lo:hi], p)
		return lo + int32(i)
	}
	// A child's up hop, reversed, is one of its parent's down hops.
	pl.downStart = make([]int32, nr+1)
	for v := int32(0); v < int32(g.N); v++ {
		for ri := pl.roleStart[v]; ri < pl.roleStart[v+1]; ri++ {
			if ps := pl.up[ri].slot; ps >= 0 {
				pl.up[ri].role = roleOf(us[ps>>1]^vs[ps>>1]^v, rolePart[ri])
				pl.downStart[pl.up[ri].role+1]++
			}
		}
	}
	for ri := 0; ri < nr; ri++ {
		pl.downStart[ri+1] += pl.downStart[ri]
	}
	pl.down = make([]hop, pl.downStart[nr])
	fill := append([]int32(nil), pl.downStart[:nr]...)
	for ri, u := range pl.up {
		if u.slot >= 0 {
			pl.down[fill[u.role]] = hop{slot: u.slot ^ 1, role: int32(ri)}
			fill[u.role]++
		}
	}
	for ri := 0; ri < nr; ri++ {
		slices.SortFunc(pl.down[pl.downStart[ri]:pl.downStart[ri+1]], func(a, b hop) int {
			return int(pl.rowPos[a.slot] - pl.rowPos[b.slot])
		})
	}

	pl.acc = make([]Word, nr)
	pl.pend = make([]int32, nr)
	pl.result = make([]Word, nr)
	pl.haveResult = make([]bool, nr)
	pl.started = make([]bool, nr)
	pl.fifo = make([]fifo, 2*g.M())
	pl.off = off
	pl.live = make([]int32, 2*g.M())
	pl.liveN = make([]int32, g.N)
	return pl
}

// push queues payload (tag, role, val) on slot, sent by v.
func (pl *AggPlan) push(v, slot int32, tag Word, role int32, val Word) {
	f := &pl.fifo[slot]
	if f.stamp != pl.run { // first use this run
		f.stamp = pl.run
		f.head = -1
	}
	i := int32(len(pl.arena))
	pl.arena = append(pl.arena, [3]Word{tag, Word(role), val})
	pl.next = append(pl.next, -1)
	if f.head < 0 {
		f.head = i
		// The queue was empty: insert the slot into v's live list, in
		// row order.
		live := pl.live[pl.off[v] : pl.off[v]+pl.liveN[v]+1]
		j := len(live) - 1
		for ; j > 0 && pl.rowPos[live[j-1]] > pl.rowPos[slot]; j-- {
			live[j] = live[j-1]
		}
		live[j] = slot
		pl.liveN[v]++
	} else {
		pl.next[f.tail] = i
	}
	f.tail = i
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
	for v, ri := range pl.memberRole {
		if ri >= 0 {
			out[v] = pl.result[ri]
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

	// Reset run-state. An errored run may leave queues behind.
	for v := 0; v < g.N; v++ {
		for ri := pl.roleStart[v]; ri < pl.roleStart[v+1]; ri++ {
			pl.pend[ri] = pl.downStart[ri+1] - pl.downStart[ri]
			pl.haveResult[ri] = false
			pl.started[ri] = false
			if ri == pl.memberRole[v] {
				pl.acc[ri] = x[v]
			} else {
				pl.acc[ri] = identityHint // steiner relay: contributes nothing
			}
		}
		pl.liveN[v] = 0
	}
	pl.arena, pl.next = pl.arena[:0], pl.next[:0]
	pl.run++

	handler := func(v int, inbox []congest.Msg) bool {
		v32 := int32(v)
		lo, hi := pl.roleStart[v], pl.roleStart[v+1]
		for _, m := range inbox {
			w := net.Words(m)
			tag, val := w[0], w[2]
			if w[1] < Word(lo) || w[1] >= Word(hi) {
				continue // not one of v's roles
			}
			ri := int32(w[1])
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
		// Role transitions.
		for ri := lo; ri < hi; ri++ {
			if pl.pend[ri] == 0 && !pl.started[ri] {
				pl.started[ri] = true
				if u := pl.up[ri]; u.slot >= 0 {
					pl.push(v32, u.slot, tagUp, u.role, pl.acc[ri])
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
				for _, d := range pl.down[pl.downStart[ri]:pl.downStart[ri+1]] {
					pl.push(v32, d.slot, tagDown, d.role, pl.result[ri])
				}
			}
		}
		// Send one queued message per non-empty queue, in row order.
		live := pl.live[pl.off[v] : pl.off[v]+pl.liveN[v]]
		kept := live[:0]
		for _, slot := range live {
			f := &pl.fifo[slot]
			i := f.head
			net.Send(v, int(slot>>1), pl.arena[i][:]...)
			if f.head = pl.next[i]; f.head >= 0 {
				kept = append(kept, slot)
			}
		}
		pl.liveN[v] = int32(len(kept))
		// Transitions happen only on mail, so without mail v has work next
		// round only if a queue still holds payloads.
		return len(kept) > 0
	}
	maxRounds := int64(8*(g.N+g.M()) + 16*len(pl.up) + 64)
	if err := net.Run(handler, nil, maxRounds); err != nil {
		return err
	}
	missing := 0
	for v, p := range pl.part.Of {
		if p < 0 {
			continue
		}
		if ri := pl.memberRole[v]; ri < 0 || !pl.haveResult[ri] {
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
