package primitives

import (
	"fmt"
	"math"

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

// KeyedSumOrdered convergecasts per-key values to the root with exact-once
// combining, supporting non-idempotent operators (sum, xor, float-sum).
// Every participant streams its keys in increasing order; a vertex emits key
// k upward only once each child has either finished or progressed past k,
// so each subtree contributes to each key exactly once. This is the
// pipelined aggregate convergecast the paper invokes for per-highway
// aggregation (Section 4.2.3).
// Rounds: O(height + #keys).
//
// Node state is flat: per-vertex (key, value) parallel slices sorted by
// descending key, so the next key to stream is popped from the tail and
// the freed capacity takes later inserts; one global progress array
// indexed by child vertex; and double-buffered two-word payloads. A round
// allocates only when a key list outgrows every earlier call's capacity.
func KeyedSumOrdered(net *congest.Network, t *tree.Rooted, perNode []KeyedValues, op Combine) (map[congest.Word]congest.Word, error) {
	g := net.G
	if len(perNode) != g.N {
		return nil, fmt.Errorf("primitives: perNode length %d != n", len(perNode))
	}
	const doneTag = math.MaxInt64
	const unreported = math.MinInt64

	keys := make([][]congest.Word, g.N) // pending keys, sorted descending
	vals := make([][]congest.Word, g.N) // vals[v][i] pairs with keys[v][i]
	// progress[u] is the last key child u streamed to its parent
	// (unreported before u's first message, doneTag when u finished).
	progress := make([]congest.Word, g.N)
	sentDone := make([]bool, g.N)
	// payload[4v:4v+4] holds v's double-buffered two-word payload: a
	// receiver reads a payload in the round after it was filled, in which
	// round v may fill the other half (see DESIGN.md on payload recycling).
	payload := make([]congest.Word, 4*g.N)
	parity := make([]bool, g.N)

	total := 0
	for v := range perNode {
		kv := &perNode[v]
		if len(kv.Keys) != len(kv.Vals) {
			return nil, fmt.Errorf("primitives: vertex %d has %d keys but %d values", v, len(kv.Keys), len(kv.Vals))
		}
		kv.sortDesc()
		keys[v] = kv.Keys
		vals[v] = kv.Vals
		progress[v] = unreported
		total += len(kv.Keys)
	}

	// childFloor returns the smallest progress over v's children
	// (doneTag if v has no children or all are done; unreported if any
	// child has not reported at all).
	childFloor := func(v int) congest.Word {
		floor := congest.Word(doneTag)
		for _, c := range t.Children[v] {
			if progress[c] < floor {
				floor = progress[c]
			}
		}
		return floor
	}

	handler := func(v int, inbox []congest.Msg) ([]congest.Msg, bool) {
		for _, m := range inbox {
			from := m.From
			k := m.Data[0]
			if k == doneTag {
				progress[from] = doneTag
				continue
			}
			val := m.Data[1]
			// Insert in sorted position (arrivals are ordered per child,
			// but interleave across children), combining equal keys.
			i, found := searchDesc(keys[v], k)
			if found {
				vals[v][i] = op(vals[v][i], val)
			} else {
				keys[v] = append(keys[v], 0)
				vals[v] = append(vals[v], 0)
				copy(keys[v][i+1:], keys[v][i:])
				copy(vals[v][i+1:], vals[v][i:])
				keys[v][i], vals[v][i] = k, val
			}
			progress[from] = k
		}
		if t.ParentEdge[v] < 0 || sentDone[v] {
			return nil, false
		}
		floor := childFloor(v)
		if last := len(keys[v]) - 1; last >= 0 {
			k := keys[v][last]
			if k <= floor {
				val := vals[v][last]
				keys[v] = keys[v][:last]
				vals[v] = vals[v][:last]
				buf := payload[4*v : 4*v+2 : 4*v+2]
				if parity[v] {
					buf = payload[4*v+2 : 4*v+4 : 4*v+4]
				}
				parity[v] = !parity[v]
				buf[0], buf[1] = k, val
				out := append(net.OutBuf(v), congest.Msg{EdgeID: t.ParentEdge[v], From: v, Data: buf})
				return out, true
			}
			return nil, true // wait for children to progress past k
		}
		if floor == doneTag {
			sentDone[v] = true
			buf := payload[4*v : 4*v+1 : 4*v+1]
			if parity[v] {
				buf = payload[4*v+2 : 4*v+3 : 4*v+3]
			}
			parity[v] = !parity[v]
			buf[0] = doneTag
			out := append(net.OutBuf(v), congest.Msg{EdgeID: t.ParentEdge[v], From: v, Data: buf})
			return out, false
		}
		return nil, true
	}
	err := net.Run(handler, nil, maxRoundsFor(g, 4*total))
	var table map[congest.Word]congest.Word
	if err == nil {
		// The root never streams; its remaining (key, value) lists are
		// the full combined table.
		table = make(map[congest.Word]congest.Word, len(keys[t.Root]))
		for i, k := range keys[t.Root] {
			table[k] = vals[t.Root][i]
		}
	}
	for v := range perNode {
		perNode[v] = KeyedValues{Keys: keys[v][:0], Vals: vals[v][:0]}
	}
	return table, err
}
