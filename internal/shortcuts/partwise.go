package shortcuts

import (
	"fmt"

	"twoecss/internal/congest"
	"twoecss/internal/graph"
)

// role is one (part, vertex) participation in the part-wise aggregation:
// the per-part BFS-tree position of a vertex (members aggregate, steiner
// relays forward).
type role struct {
	part       int32
	parentEdge int32 // -1 at the leader
	children   int32
}

// AggPlan is the reusable execution plan of PartwiseAggregate for one
// (graph, partition, shortcut) triple: the per-part BFS trees flattened to
// role tables, plus all run-state scratch. Building the plan walks every
// part subgraph once; Aggregate can then run any number of times (the tool
// hierarchy re-aggregates over the same partitions every level call)
// without rebuilding trees or allocating per-part state. A plan is not
// safe for concurrent use.
type AggPlan struct {
	g       *graph.Graph
	part    *Partition
	sc      *Shortcut
	roles   []role
	rolesAt [][]int32 // vertex -> indices into roles

	// Run-state, reused across Aggregate calls.
	acc        []Word
	pend       []int32
	result     []Word
	haveResult []bool
	started    []bool
	// queues[2*edgeID+dir] is the FIFO of payloads (tag, part, value)
	// vertex us/vs[edgeID] (dir 0/1) still has to push over that edge, one
	// per round; heads index into the queue slices to avoid re-slicing
	// writes. A slot is written only by its sending vertex's handler. A
	// sent message's Data aliases its queue entry: appends write past
	// every live entry, and growth leaves the old array intact. The
	// queues are kept across runs, amortizing payload allocation to zero.
	queues [][][3]Word
	heads  []int32
	// A slot's queue and head are this run's only when stamp[slot] == run;
	// a stale slot is reset on its first push, so a run pays for the
	// slots it uses and nothing else.
	stamp []uint64
	run   uint64
}

// NewAggPlan builds the plan: per-part BFS trees over G[V_p]+H_p rooted at
// the part leader, in the exact construction order of the legacy per-call
// builds (ascending member order, incident order within a vertex).
func NewAggPlan(g *graph.Graph, part *Partition, sc *Shortcut) *AggPlan {
	pl := &AggPlan{g: g, part: part, sc: sc}
	pl.rolesAt = make([][]int32, g.N)
	us, vs := g.Endpoints()
	var pa partAdj
	childCount := make(map[int32]int32) // vertex -> children in current part tree
	parentEdge := make(map[int32]int32)
	for p := 0; p < part.Parts; p++ {
		members := part.Members[p]
		if len(members) == 0 {
			continue
		}
		pa.build(g, part, sc.EdgesOf[p], p)
		leader := int32(members[0])
		clear(parentEdge)
		clear(childCount)
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
		for v, pe := range parentEdge {
			if pe >= 0 {
				childCount[us[pe]^vs[pe]^v]++
			}
		}
		for _, v := range order {
			ri := int32(len(pl.roles))
			pl.roles = append(pl.roles, role{part: int32(p), parentEdge: parentEdge[v], children: childCount[v]})
			pl.rolesAt[v] = append(pl.rolesAt[v], ri)
		}
		pa.queue = order[:0]
	}
	nr := len(pl.roles)
	pl.acc = make([]Word, nr)
	pl.pend = make([]int32, nr)
	pl.result = make([]Word, nr)
	pl.haveResult = make([]bool, nr)
	pl.started = make([]bool, nr)
	pl.queues = make([][][3]Word, 2*g.M())
	pl.heads = make([]int32, 2*g.M())
	pl.stamp = make([]uint64, 2*g.M())
	return pl
}

// roleOf returns v's role index in part p, or -1.
func (pl *AggPlan) roleOf(p int32, v int32) int32 {
	for _, ri := range pl.rolesAt[v] {
		if pl.roles[ri].part == p {
			return ri
		}
	}
	return -1
}

const (
	tagUp   = 0
	tagDown = 1
)

// Aggregate combines one value per member vertex within every part (over
// G[V_p]+H_p) and delivers the result to all members, simultaneously for
// all parts; see PartwiseAggregate for the contract.
func (pl *AggPlan) Aggregate(net *congest.Network, x []Word, op Combine) ([]Word, error) {
	g := pl.g
	if net.G != g {
		return nil, fmt.Errorf("shortcuts: aggregate plan built for a different graph")
	}
	if len(x) != g.N {
		return nil, fmt.Errorf("shortcuts: input length %d != n", len(x))
	}
	part := pl.part
	_, vs := g.Endpoints()

	// Reset run-state.
	for ri, r := range pl.roles {
		pl.pend[ri] = r.children
		pl.haveResult[ri] = false
		pl.started[ri] = false
	}
	for v := 0; v < g.N; v++ {
		for _, ri := range pl.rolesAt[v] {
			if int32(part.Of[v]) == pl.roles[ri].part {
				pl.acc[ri] = x[v]
			} else {
				pl.acc[ri] = identityHint // steiner relay: contributes nothing
			}
		}
	}
	pl.run++
	run := pl.run

	push := func(v int32, edge int32, tag, p, val Word) {
		dir := int32(0)
		if vs[edge] == v {
			dir = 1
		}
		slot := 2*edge + dir
		if pl.stamp[slot] != run { // first use this run
			pl.stamp[slot] = run
			pl.queues[slot] = pl.queues[slot][:0]
			pl.heads[slot] = 0
		}
		pl.queues[slot] = append(pl.queues[slot], [3]Word{tag, p, val})
	}

	handler := func(v int, inbox []congest.Msg) ([]congest.Msg, bool) {
		v32 := int32(v)
		for _, m := range inbox {
			tag, p, val := m.Data[0], int32(m.Data[1]), m.Data[2]
			ri := pl.roleOf(p, v32)
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
		// Role transitions.
		for _, ri := range pl.rolesAt[v] {
			r := pl.roles[ri]
			if pl.pend[ri] == 0 && !pl.started[ri] {
				pl.started[ri] = true
				if r.parentEdge >= 0 {
					push(v32, r.parentEdge, tagUp, Word(r.part), pl.acc[ri])
				} else {
					pl.result[ri] = pl.acc[ri]
					pl.haveResult[ri] = true
				}
			}
		}
		// Downward forwarding: a role with a fresh result sends it to all
		// children exactly once (children tracked via pend==-1 sentinel).
		for _, ri := range pl.rolesAt[v] {
			if pl.haveResult[ri] && pl.pend[ri] != -1 {
				pl.pend[ri] = -1
				p := pl.roles[ri].part
				// Enqueue to every child edge of this role's tree.
				for _, h := range g.Row(v) {
					if cri := pl.roleOf(p, h.To); cri >= 0 && pl.roles[cri].parentEdge == h.ID {
						push(v32, h.ID, tagDown, Word(p), pl.result[ri])
					}
				}
			}
		}
		// Emit one queued message per incident edge.
		out := net.OutBuf(v)
		active := false
		for _, h := range g.Row(v) {
			dir := int32(0)
			if vs[h.ID] == v32 {
				dir = 1
			}
			slot := 2*h.ID + dir
			if pl.stamp[slot] != run {
				continue
			}
			q, head := pl.queues[slot], pl.heads[slot]
			if int(head) >= len(q) {
				continue
			}
			out = append(out, congest.Msg{EdgeID: int(h.ID), From: v, Data: q[head][:]})
			pl.heads[slot] = head + 1
			if int(head)+1 < len(q) {
				active = true
			}
		}
		return out, active || len(out) > 0
	}
	maxRounds := int64(8*(g.N+g.M()) + 16*len(pl.roles) + 64)
	if err := net.Run(handler, nil, maxRounds); err != nil {
		return nil, err
	}
	out := make([]Word, g.N)
	missing := 0
	for v := 0; v < g.N; v++ {
		if part.Of[v] < 0 {
			continue
		}
		ri := pl.roleOf(int32(part.Of[v]), int32(v))
		if ri < 0 || !pl.haveResult[ri] {
			missing++
			continue
		}
		out[v] = pl.result[ri]
	}
	if missing > 0 {
		return nil, fmt.Errorf("shortcuts: %d vertices missed their part aggregate", missing)
	}
	return out, nil
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

// LeaderBroadcast delivers one value per part from the part leader to all
// members, with the same contention-faithful scheduling; implemented as an
// aggregate whose operator keeps the leader's value.
func LeaderBroadcast(net *congest.Network, part *Partition, sc *Shortcut, perPart map[int]Word) ([]Word, error) {
	g := net.G
	x := make([]Word, g.N)
	leaderOf := map[int]int{}
	for v := 0; v < g.N; v++ {
		p := part.Of[v]
		if p < 0 {
			continue
		}
		if lv, ok := leaderOf[p]; !ok || v < lv {
			leaderOf[p] = v
		}
	}
	// The part tree uses the first member as leader; mirror that choice.
	for p, lv := range leaderOf {
		x[lv] = perPart[p]
	}
	keepLeader := func(a, b Word) Word {
		if a != 0 {
			return a
		}
		return b
	}
	return PartwiseAggregate(net, part, sc, x, keepLeader)
}
