package primitives

import (
	"fmt"
	"math"
	"slices"

	"twoecss/internal/congest"
	"twoecss/internal/tree"
)

// KeyedValues is one vertex's input to KeyedSumOrdered: parallel key/value
// slices (not necessarily sorted). Keys must be unique per vertex and
// below math.MaxInt64, which is reserved as the done marker.
//
// KeyedSumOrdered CONSUMES the slices and hands them back: it sorts and
// drains them in place, grows them with the keys the vertex receives, and
// on return leaves every perNode entry at length zero over the (possibly
// grown) backing arrays. A caller that reuses perNode across calls can
// append the next call's input straight away and keeps the capacity the
// previous call grew.
type KeyedValues struct {
	Keys, Vals []congest.Word
}

// sortDesc co-sorts kv.Vals with kv.Keys by descending key, so the smallest
// key sits at the tail. The lists are short (a handful of segment keys per
// vertex), so a binary-insertion pass beats building a permutation.
func (kv *KeyedValues) sortDesc() {
	for i := 1; i < len(kv.Keys); i++ {
		k, v := kv.Keys[i], kv.Vals[i]
		j, _ := searchDesc(kv.Keys[:i], k)
		copy(kv.Keys[j+1:i+1], kv.Keys[j:i])
		copy(kv.Vals[j+1:i+1], kv.Vals[j:i])
		kv.Keys[j], kv.Vals[j] = k, v
	}
}

// searchDesc finds k in the descending list keys: the index of k if found,
// else the index at which inserting k keeps the list descending.
func searchDesc(keys []congest.Word, k congest.Word) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] > k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && keys[lo] == k
}

const (
	doneTag    = math.MaxInt64 // a child's last message: it has finished
	unreported = math.MinInt64 // progress of a child that has not reported
)

// KeyedSumOrdered convergecasts per-key values to the root with exact-once
// combining, supporting non-idempotent operators (sum, xor, float-sum).
// Every participant streams its keys in increasing order; a vertex emits key
// k upward only once each child has either finished or progressed past k,
// so each subtree contributes to each key exactly once. This is the
// pipelined aggregate convergecast the paper invokes for per-highway
// aggregation (Section 4.2.3). It returns the combined table in ascending
// key order, valid until the next KeyedSumOrdered call with sc.
// Rounds: O(height + #keys).
//
// Node state is flat: each vertex's perNode lists, sorted by descending
// key, so the next key to stream is popped from the tail and the freed
// capacity takes later inserts; and one progress array indexed by child
// vertex. A round allocates only when a key list outgrows every earlier
// call's capacity.
func KeyedSumOrdered(net *congest.Network, t *tree.Rooted, sc *Scratch, perNode []KeyedValues, op Combine) (KeyedValues, error) {
	g := net.G
	if len(perNode) != g.N {
		return KeyedValues{}, fmt.Errorf("primitives: perNode length %d != n", len(perNode))
	}
	total := 0
	for v := range perNode {
		kv := &perNode[v]
		if len(kv.Keys) != len(kv.Vals) {
			return KeyedValues{}, fmt.Errorf("primitives: vertex %d has %d keys but %d values", v, len(kv.Keys), len(kv.Vals))
		}
		kv.sortDesc()
		total += len(kv.Keys)
	}
	sc.bind(net, t)
	sc.kv, sc.op = perNode, op
	sc.progress = sized(sc.progress, g.N)
	for v := range sc.progress {
		sc.progress[v] = unreported
	}
	sc.sentDone = sized(sc.sentDone, g.N)
	clear(sc.sentDone)

	// A vertex with children waits for their first reports, so only the
	// leaves can act in the first round.
	err := net.Run(sc.keyed, sc.leaves(t), maxRoundsFor(g, 4*total))
	sc.kv, sc.op = nil, nil
	// The root never streams; its remaining lists, read from the tail,
	// are the combined table in ascending key order.
	tab := &sc.table
	tab.Keys, tab.Vals = tab.Keys[:0], tab.Vals[:0]
	if err == nil {
		root := &perNode[t.Root]
		for i := len(root.Keys) - 1; i >= 0; i-- {
			tab.Keys = append(tab.Keys, root.Keys[i])
			tab.Vals = append(tab.Vals, root.Vals[i])
		}
	}
	for v := range perNode {
		kv := &perNode[v]
		kv.Keys, kv.Vals = kv.Keys[:0], kv.Vals[:0]
	}
	if err != nil {
		return KeyedValues{}, err
	}
	return *tab, nil
}

// childFloor returns the smallest progress over v's children (doneTag if
// v has no children or all are done; unreported if any child has not
// reported at all).
func (sc *Scratch) childFloor(v int) congest.Word {
	floor := congest.Word(doneTag)
	for _, c := range sc.t.Children[v] {
		if p := sc.progress[c]; p < floor {
			floor = p
		}
	}
	return floor
}

// keyedStep merges v's mail into its sorted lists, then streams the
// smallest key once no child can still send a smaller one, or the done
// marker once v and all its children are drained. Only mail raises the
// children's floor, so v stays active only if its next step can run
// without mail; otherwise its children's next message wakes it.
func (sc *Scratch) keyedStep(v int, inbox []congest.Msg) bool {
	kv := &sc.kv[v]
	for _, m := range inbox {
		w := sc.net.Words(m)
		k := w[0]
		if k == doneTag {
			sc.progress[m.From] = doneTag
			continue
		}
		val := w[1]
		// Insert in sorted position (arrivals are ordered per child,
		// but interleave across children), combining equal keys.
		i, found := searchDesc(kv.Keys, k)
		if found {
			kv.Vals[i] = sc.op(kv.Vals[i], val)
		} else {
			kv.Keys = slices.Insert(kv.Keys, i, k)
			kv.Vals = slices.Insert(kv.Vals, i, val)
		}
		sc.progress[m.From] = k
	}
	pe := sc.t.ParentEdge[v]
	if pe < 0 || sc.sentDone[v] {
		return false
	}
	floor := sc.childFloor(v)
	last := len(kv.Keys) - 1
	switch {
	case last >= 0 && kv.Keys[last] <= floor:
		sc.net.Send(v, pe, kv.Keys[last], kv.Vals[last])
		kv.Keys, kv.Vals = kv.Keys[:last], kv.Vals[:last]
	case last < 0 && floor == doneTag:
		sc.sentDone[v] = true
		sc.net.Send(v, pe, doneTag)
		return false
	default:
		return false // wait for the children to progress past the key
	}
	if last--; last >= 0 {
		return kv.Keys[last] <= floor
	}
	return floor == doneTag
}
