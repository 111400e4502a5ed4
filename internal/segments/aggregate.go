package segments

import (
	"fmt"
	"slices"

	"twoecss/internal/congest"
	"twoecss/internal/primitives"
	"twoecss/internal/tree"
	"twoecss/internal/vgraph"
)

// Aggregator implements the two aggregate-function building blocks of
// Section 4.2 on top of a segment decomposition:
//
//   - PerVEdge (Claim 4.5): every virtual non-tree edge simultaneously
//     learns an aggregate of values held by the tree edges it covers.
//   - PerTreeEdge (Claim 4.6): every tree edge simultaneously learns an
//     aggregate of values held by the virtual edges that cover it
//     (combining short-, mid- and long-range contributions).
//
// Both run in O(D + sqrt n) rounds. The global movements (per-segment
// summaries and per-highway long-range combination, Claim 4.4) are simulated
// at message level on the BFS tree; the intra-segment scans are billed
// analytically as 3*MaxDiameter+3 rounds per call, and their values are
// folded centrally: PerVEdge walks each vertex's root path once for all the
// virtual edges it simulates, PerTreeEdge walks each virtual edge's cover
// path.
//
// The folds never read what the global steps deliver. PerTreeEdge's keyed
// convergecast is simulated on every call: its schedule depends on which
// segment keys each simulating vertex holds. The two broadcast-type steps
// send by item count and tree alone, so they go through
// congest.Network.RunOnce: PerVEdge's gather-broadcast of one item per
// segment, at the segment's Desc, is simulated on the first call and
// rebilled afterwards, and PerTreeEdge's table broadcast once per table
// size. A rebilled call builds no items. A network with an Observer armed
// simulates every call. Net and BFS must not change after NewAggregator:
// the bills are measured on them.
type Aggregator struct {
	Net *congest.Network
	// BFS is the communication tree over the network graph (height O(D)).
	BFS *tree.Rooted
	// D is the decomposition of the spanning tree being augmented.
	D *Decomposition
	// VG is the virtual graph whose edges participate in aggregation.
	VG *vgraph.VGraph

	// vedgeSegs lists the distinct segments each virtual edge's tree path
	// touches, bottom-up, as CSR: virtual edge ve owns
	// segOf[segOff[ve]:segOff[ve+1]].
	segOff []int32
	segOf  []int32
	// decVE lists the virtual edges each vertex simulates as CSR, nearest
	// Anc first: vertex v's are decVE[decOff[v]:decOff[v+1]], and decAnc
	// holds their Ancs.
	decOff []int32
	decVE  []int32
	decAnc []int32

	// Scratch reused across aggregate calls (an Aggregator is not safe for
	// concurrent use, matching the one-Network-one-run engine contract):
	// the primitives' node state, per-tree-edge values for Claim 4.5,
	// per-virtual-edge contributions for Claim 4.6, per-vertex keyed
	// inputs for the Claim 4.6 convergecast, per-vertex item lists for the
	// Claim 4.5 gather-broadcast, and the flat payload backing for
	// per-segment items.
	prim     primitives.Scratch
	treeVals []congest.Word
	veVals   []congest.Word
	veOK     []bool
	kv       []primitives.KeyedValues
	perNode  [][]primitives.Item
	pnTouch  []int // vertices with non-empty perNode this call
	itemBuf  []congest.Word
	itemList []primitives.Item

	// gatherBill is the measured cost of PerVEdge's gather-broadcast, and
	// tableBills[k] that of PerTreeEdge's broadcast of a k-item table,
	// k = 0..len(D.Segs).
	gatherBill congest.Bill
	tableBills []congest.Bill
}

// NewAggregator precomputes, per virtual edge, the segments its tree path
// touches. The precomputation mirrors the node-local knowledge established
// by Claims 4.3/4.4 (each vertex knows its segment paths and the skeleton);
// its round bill is part of the decomposition construction charge.
//
// Cover paths themselves are never stored: the folds walk T.Parent up
// from a virtual edge's Dec, so the structure is O(m) rather than
// O(m x depth). The path leaves a segment only at the segment's root, so
// the segment list is built by hopping from root to root. The virtual
// edges are also grouped by Dec, nearest Anc first, for PerVEdge's one
// walk per vertex.
func NewAggregator(net *congest.Network, bfs *tree.Rooted, d *Decomposition, vg *vgraph.VGraph) *Aggregator {
	a := &Aggregator{Net: net, BFS: bfs, D: d, VG: vg, tableBills: make([]congest.Bill, len(d.Segs)+1)}
	nv := len(vg.VEdges)
	depth := vg.T.Depth
	a.groupByDec()
	a.segOff = make([]int32, nv+1)
	a.segOf = make([]int32, 0, nv)
	for ve := range vg.VEdges {
		e := &vg.VEdges[ve]
		for x := e.Dec; ; {
			sid := d.SegOfEdge[x]
			a.segOf = append(a.segOf, int32(sid))
			x = d.Segs[sid].Root
			if depth[x] <= depth[e.Anc] {
				break
			}
		}
		a.segOff[ve+1] = int32(len(a.segOf))
	}
	return a
}

// groupByDec builds decOff, decVE and decAnc with two counting sorts: the
// virtual edges ordered by Anc depth, deepest first, are placed into their
// Dec's bucket in that order.
func (a *Aggregator) groupByDec() {
	t, ves := a.VG.T, a.VG.VEdges
	maxDepth := 0
	for _, d := range t.Depth {
		maxDepth = max(maxDepth, d)
	}
	// Counted one slot up and summed, byDepth[maxDepth-d] is the next free
	// position in order of the virtual edges whose Anc has depth d.
	byDepth := make([]int32, maxDepth+2)
	a.decOff = make([]int32, t.G.N+1)
	for i := range ves {
		byDepth[maxDepth-t.Depth[ves[i].Anc]+1]++
		a.decOff[ves[i].Dec+1]++
	}
	for i := 1; i < len(byDepth); i++ {
		byDepth[i] += byDepth[i-1]
	}
	for v := 0; v < t.G.N; v++ {
		a.decOff[v+1] += a.decOff[v]
	}
	order := make([]int32, len(ves))
	for i := range ves {
		k := maxDepth - t.Depth[ves[i].Anc]
		order[byDepth[k]] = int32(i)
		byDepth[k]++
	}
	next := slices.Clone(a.decOff[:t.G.N])
	a.decVE = make([]int32, len(ves))
	a.decAnc = make([]int32, len(ves))
	for _, ve := range order {
		dec := ves[ve].Dec
		a.decVE[next[dec]] = ve
		a.decAnc[next[dec]] = int32(ves[ve].Anc)
		next[dec]++
	}
}

// chargeIntraSegment bills the local scans of one aggregate call.
func (a *Aggregator) chargeIntraSegment(what string) error {
	return a.Net.Charge(int64(3*a.D.MaxDiameter+3), what)
}

// itemsInto empties the per-segment item list, to be filled via
// appendItem with at most one item per segment.
func (a *Aggregator) itemsInto() {
	if cap(a.itemBuf) < 2*len(a.D.Segs) {
		a.itemBuf = make([]congest.Word, 0, 2*len(a.D.Segs))
	}
	a.itemBuf = a.itemBuf[:0]
	a.itemList = a.itemList[:0]
}

// appendItem appends a two-word item backed by the reused flat buffer.
// itemsInto pre-grows the buffer, so appends never relocate live item
// payloads.
func (a *Aggregator) appendItem(k, v congest.Word) {
	a.itemBuf = append(a.itemBuf, k, v)
	n := len(a.itemBuf)
	a.itemList = append(a.itemList, primitives.Item(a.itemBuf[n-2:n:n]))
}

// highwayItems returns, per vertex, the items of the segments it is the
// descendant of: (segment id, m_S), m_S the fold of vals over the
// segment's highway edges.
func (a *Aggregator) highwayItems(vals []congest.Word, op primitives.Combine, id congest.Word) [][]primitives.Item {
	if a.perNode == nil {
		a.perNode = make([][]primitives.Item, a.BFS.G.N)
	}
	for _, v := range a.pnTouch {
		a.perNode[v] = a.perNode[v][:0]
	}
	a.pnTouch = a.pnTouch[:0]
	a.itemsInto()
	for _, seg := range a.D.Segs {
		m := id
		for i := 1; i < len(seg.Highway); i++ {
			m = op(m, vals[seg.Highway[i]])
		}
		if len(a.perNode[seg.Desc]) == 0 {
			a.pnTouch = append(a.pnTouch, seg.Desc)
		}
		a.appendItem(congest.Word(seg.ID), m)
		a.perNode[seg.Desc] = append(a.perNode[seg.Desc], a.itemList[len(a.itemList)-1])
	}
	return a.perNode
}

// PerVEdge implements Claim 4.5: result[ve] = fold(op, id, value(c) for all
// covered tree-edge children c). op must be commutative and associative.
func (a *Aggregator) PerVEdge(value func(c int) congest.Word, op primitives.Combine, id congest.Word) ([]congest.Word, error) {
	if err := a.chargeIntraSegment("Claim 4.5 intra-segment scans"); err != nil {
		return nil, err
	}
	// Each tree-edge child evaluates its value once; the highway summaries
	// and every virtual edge's fold read it from here.
	t := a.VG.T
	if a.treeVals == nil {
		a.treeVals = make([]congest.Word, t.G.N)
	}
	vals := a.treeVals
	for c := range vals {
		if c != t.Root {
			vals[c] = value(c)
		}
	}
	// Claim 4.4 global step: every vertex learns the per-segment highway
	// aggregate m_S, a gather-broadcast of one item per segment,
	// originated at the segment descendant. Its sends depend on the
	// decomposition alone, so only the first call simulates it.
	if err := a.Net.RunOnce(&a.gatherBill, func() error {
		return primitives.GatherBroadcastAll(a.Net, a.BFS, &a.prim, a.highwayItems(vals, op, id))
	}); err != nil {
		return nil, fmt.Errorf("segments: claim 4.5 global step: %w", err)
	}
	// Each vertex folds its root path bottom-up once. A virtual edge's
	// result is the fold's prefix below its Anc, so the edges it simulates
	// take their results as the walk reaches their Ancs, nearest first.
	out := make([]congest.Word, len(a.VG.VEdges))
	parent := t.Parent
	for v := range t.G.N {
		acc, x := id, v
		for i := a.decOff[v]; i < a.decOff[v+1]; i++ {
			for anc := int(a.decAnc[i]); x != anc; x = parent[x] {
				acc = op(acc, vals[x])
			}
			out[a.decVE[i]] = acc
		}
	}
	return out, nil
}

// PerTreeEdge implements Claim 4.6: result[c] = fold(op, id, w(ve) for all
// virtual edges ve covering tree edge c with contribute(ve) = (w(ve), true)).
// Virtual edges with contribute(...) = (_, false) do not participate.
func (a *Aggregator) PerTreeEdge(contribute func(ve int) (congest.Word, bool), op primitives.Combine, id congest.Word) ([]congest.Word, error) {
	if err := a.chargeIntraSegment("Claim 4.6 intra-segment scans"); err != nil {
		return nil, err
	}
	// Global step: mid/long-range contributions are combined per segment
	// over the BFS tree (Section 4.2.3); simulated as an ordered keyed
	// convergecast followed by a broadcast of the per-segment table.
	// Per-vertex inputs are flat (key, value) lists reused across calls
	// (KeyedSumOrdered hands them back empty); segment-key lists per
	// simulating vertex are short, so the insert scan is cheaper than
	// per-vertex maps. Each virtual edge evaluates contribute once; the
	// final per-tree-edge folds read it back from ws/oks.
	if a.kv == nil {
		a.kv = make([]primitives.KeyedValues, a.BFS.G.N)
	}
	nv := len(a.VG.VEdges)
	if a.veVals == nil {
		a.veVals = make([]congest.Word, nv)
		a.veOK = make([]bool, nv)
	}
	ws, oks := a.veVals, a.veOK
	for ve := range ws {
		ws[ve], oks[ve] = contribute(ve)
		if !oks[ve] {
			continue
		}
		w := ws[ve]
		kv := &a.kv[a.VG.VEdges[ve].Dec] // simulating vertex
		for _, sid := range a.segOf[a.segOff[ve]:a.segOff[ve+1]] {
			k := congest.Word(sid)
			found := false
			for i, have := range kv.Keys {
				if have == k {
					kv.Vals[i] = op(kv.Vals[i], w)
					found = true
					break
				}
			}
			if !found {
				kv.Keys = append(kv.Keys, k)
				kv.Vals = append(kv.Vals, w)
			}
		}
	}
	table, err := primitives.KeyedSumOrdered(a.Net, a.BFS, &a.prim, a.kv, op)
	if err != nil {
		return nil, fmt.Errorf("segments: claim 4.6 convergecast: %w", err)
	}
	// The table's keys are segment ids in ascending order, the order of
	// D.Segs. The broadcast's sends depend only on how many items it
	// carries, so each table size is simulated once.
	if err := a.Net.RunOnce(&a.tableBills[len(table.Keys)], func() error {
		a.itemsInto()
		for i, k := range table.Keys {
			a.appendItem(k, table.Vals[i])
		}
		return primitives.BroadcastAll(a.Net, a.BFS, &a.prim, a.itemList)
	}); err != nil {
		return nil, fmt.Errorf("segments: claim 4.6 broadcast: %w", err)
	}

	// Every covered tree edge folds its covering virtual edges in
	// ascending ve order, the order a per-edge covering list would give.
	out := make([]congest.Word, a.VG.T.G.N)
	for c := range out {
		out[c] = id
	}
	parent := a.VG.T.Parent
	for ve, ok := range oks {
		if !ok {
			continue
		}
		e := &a.VG.VEdges[ve]
		for x := e.Dec; x != e.Anc; x = parent[x] {
			out[x] = op(out[x], ws[ve])
		}
	}
	return out, nil
}
