package shortcuts

import (
	"fmt"
	"math/rand"

	"twoecss/internal/congest"
	"twoecss/internal/lca"
	"twoecss/internal/tree"
)

// Hierarchy is the O(log n)-level hierarchical fragment partitioning used by
// Theorems 5.1/5.2: level-0 fragments are single vertices; a level-i
// fragment merges one level-(i-1) fragment with its children fragments; the
// top level is the whole tree.
type Hierarchy struct {
	T *tree.Rooted
	// Levels[i] assigns every vertex its level-i fragment id; Levels[0] is
	// the identity, the last level is all-zeros.
	Levels [][]int
}

// BuildHierarchy constructs the hierarchy by repeated odd-depth-to-parent
// contraction of the fragment quotient tree, which halves the quotient
// depth per level and therefore terminates in O(log n) levels.
func BuildHierarchy(t *tree.Rooted) (*Hierarchy, error) {
	n := t.G.N
	h := &Hierarchy{T: t}
	cur := make([]int, n)
	for v := range cur {
		cur[v] = v
	}
	h.Levels = append(h.Levels, append([]int(nil), cur...))
	for len(h.Levels) < 4*64 { // hard upper bound, reached never
		// Quotient tree: fragment parent = fragment of the tree-parent of
		// the fragment's root-most vertex.
		fragParent := map[int]int{}
		fragDepth := map[int]int{}
		// Root-most vertex per fragment = the one whose tree parent is in
		// a different fragment (or the tree root).
		rootOf := map[int]int{}
		for _, v := range t.Order { // preorder: parents first
			f := cur[v]
			if _, ok := rootOf[f]; !ok {
				rootOf[f] = v
				if t.Parent[v] < 0 {
					fragParent[f] = -1
				} else {
					fragParent[f] = cur[t.Parent[v]]
				}
			}
		}
		if len(rootOf) == 1 {
			break
		}
		// Fragment depths via preorder walk.
		for _, v := range t.Order {
			f := cur[v]
			if _, ok := fragDepth[f]; ok {
				continue
			}
			if fragParent[f] < 0 {
				fragDepth[f] = 0
			} else {
				fragDepth[f] = fragDepth[fragParent[f]] + 1
			}
		}
		// Odd-depth fragments merge into their (even-depth) parents.
		next := make([]int, n)
		for v := 0; v < n; v++ {
			f := cur[v]
			if fragDepth[f]%2 == 1 {
				next[v] = fragParent[f]
			} else {
				next[v] = f
			}
		}
		cur = next
		h.Levels = append(h.Levels, append([]int(nil), cur...))
	}
	if len(h.Levels) >= 4*64 {
		return nil, fmt.Errorf("shortcuts: hierarchy did not converge")
	}
	return h, nil
}

// Depth returns the number of hierarchy levels.
func (h *Hierarchy) Depth() int { return len(h.Levels) }

// Tools bundles the tree-tool context: the tree, its hierarchy, and the
// shortcut machinery used to bill every level's communication.
type Tools struct {
	Net     *congest.Network
	T       *tree.Rooted
	H       *Hierarchy
	Builder Builder
	// MaxQuality records the largest realized alpha+beta over all
	// shortcut constructions performed by the tools.
	MaxQuality int

	// levels caches, per hierarchy level, the partition, its shortcut, the
	// part-wise aggregation plan and the bill of its aggregation. The
	// hierarchy and builder are fixed for the lifetime of the Tools, so
	// construction runs once. Every billLevels call bills the construction
	// charge gamma and each level's aggregation, whose sends depend on no
	// value: the first call on a network simulates it message by message,
	// and later calls add its measured cost (congest.Network.RunOnce).
	levels []levelState
	// lcaOf[id] is the LCA of non-tree edge id's endpoints and -1 for a
	// tree edge, computed on CoverCount's first call: T is fixed, so every
	// call reads the same values. ccIn and ccOut are CoverCount's input
	// and its table by edge id, reused across calls.
	lcaOf []int32
	ccIn  []Word
	ccOut []int
}

type levelState struct {
	part *Partition
	sc   *Shortcut
	plan *AggPlan
	bill congest.Bill
}

// ensureLevels builds the per-level cache on first use.
func (tl *Tools) ensureLevels() error {
	if tl.levels != nil {
		return nil
	}
	tl.levels = make([]levelState, 0, len(tl.H.Levels)-1)
	for _, lv := range tl.H.Levels[1:] {
		part, err := NewPartition(tl.Net.G, lv)
		if err != nil {
			return err
		}
		sc, err := tl.Builder.Build(part)
		if err != nil {
			return err
		}
		tl.levels = append(tl.levels, levelState{part: part, sc: sc, plan: NewAggPlan(tl.Net.G, part, sc)})
	}
	return nil
}

// NewTools prepares the tool context (building the hierarchy).
func NewTools(net *congest.Network, t *tree.Rooted, b Builder) (*Tools, error) {
	h, err := BuildHierarchy(t)
	if err != nil {
		return nil, err
	}
	return &Tools{Net: net, T: t, H: h, Builder: b}, nil
}

// billLevels bills one contention-faithful partwise aggregation per
// hierarchy level, carrying the given per-vertex payload; this realizes the
// O~(SC(G)) round bill of Theorems 5.1/5.2 with the realized shortcut
// quality, and returns the maximum realized alpha+beta over levels. Only
// the first call on a network simulates a level; later calls add the cost
// that run measured, which no payload can change.
func (tl *Tools) billLevels(payload []Word) (int, error) {
	if err := tl.ensureLevels(); err != nil {
		return 0, err
	}
	maxQ := 0
	or := func(a, b Word) Word { return a | b }
	for i := range tl.levels {
		ls := &tl.levels[i]
		if err := tl.Net.Charge(ls.sc.BuildRounds, "shortcut construction (gamma)"); err != nil {
			return 0, err
		}
		// The bill needs the messages, not the per-vertex results.
		if err := tl.Net.RunOnce(&ls.bill, func() error {
			return ls.plan.simulate(tl.Net, payload, or)
		}); err != nil {
			return 0, err
		}
		if q := ls.sc.Quality(); q > maxQ {
			maxQ = q
		}
	}
	if maxQ > tl.MaxQuality {
		tl.MaxQuality = maxQ
	}
	return maxQ, nil
}

// DescendantsSum (Theorem 5.1): every vertex learns op over x in its
// subtree. Values are exact (computed over the tree); the communication is
// simulated level by level over the hierarchy with real contention.
func (tl *Tools) DescendantsSum(x []Word, op Combine) ([]Word, error) {
	t := tl.T
	if len(x) != t.G.N {
		return nil, fmt.Errorf("shortcuts: input length %d != n", len(x))
	}
	out := append([]Word(nil), x...)
	for i := len(t.Order) - 1; i >= 1; i-- {
		v := t.Order[i]
		out[t.Parent[v]] = op(out[t.Parent[v]], out[v])
	}
	if _, err := tl.billLevels(x); err != nil {
		return nil, err
	}
	return out, nil
}

// AncestorsSum (Theorem 5.2): every vertex learns op over x on its root
// path (inclusive).
func (tl *Tools) AncestorsSum(x []Word, op Combine) ([]Word, error) {
	t := tl.T
	if len(x) != t.G.N {
		return nil, fmt.Errorf("shortcuts: input length %d != n", len(x))
	}
	out := append([]Word(nil), x...)
	for _, v := range t.Order[1:] {
		out[v] = op(out[t.Parent[v]], out[v])
	}
	if _, err := tl.billLevels(x); err != nil {
		return nil, err
	}
	return out, nil
}

// HeavyLightLabels (Theorem 5.3): computes the heavy-light decomposition and
// LCA labels via one DescendantsSum (subtree sizes) and two AncestorsSums
// (path lengths and light-edge lists), then returns the labeling that lets
// adjacent vertices compute their LCA locally.
func (tl *Tools) HeavyLightLabels() (*lca.Labeling, error) {
	n := tl.T.G.N
	ones := make([]Word, n)
	for i := range ones {
		ones[i] = 1
	}
	sum := func(a, b Word) Word { return a + b }
	if _, err := tl.DescendantsSum(ones, sum); err != nil { // |T_v|
		return nil, err
	}
	if _, err := tl.AncestorsSum(ones, sum); err != nil { // |P_v|
		return nil, err
	}
	// The light-edge list union-cast is one more ancestors aggregation
	// with O(log n)-tuple payloads: bill log n word-sized passes.
	lg := 1
	for 1<<lg < n {
		lg++
	}
	for i := 0; i < lg; i++ {
		if _, err := tl.AncestorsSum(ones, sum); err != nil {
			return nil, err
		}
	}
	return lca.Build(tl.T), nil
}

// CoveredDetection (Lemma 5.4): given a set S of distinct non-tree edges
// (by graph edge id), determines for every tree edge whether S covers it,
// using XOR fingerprints of random edge identifiers aggregated over
// subtrees. The fingerprints are drawn from rng in the order of s, so one
// rng stream always gives the same answer. The result is exact iff no
// fingerprint collision occurs (probability O(n^-8)); the returned slice
// is indexed by tree-edge child.
func (tl *Tools) CoveredDetection(s []int, rng *rand.Rand) ([]bool, error) {
	t := tl.T
	g := t.G
	x := make([]Word, g.N)
	for _, id := range s {
		rid := Word(rng.Int63())
		e := g.Edges[id]
		x[e.U] ^= rid
		x[e.V] ^= rid
	}
	xor := func(a, b Word) Word { return a ^ b }
	sub, err := tl.DescendantsSum(x, xor)
	if err != nil {
		return nil, err
	}
	out := make([]bool, g.N)
	for v := 0; v < g.N; v++ {
		if v != t.Root {
			out[v] = sub[v] != 0
		}
	}
	return out, nil
}

// CoverCount (Lemma 5.5): given marked tree edges (by child vertex), every
// non-tree edge {u,v} learns how many marked tree edges it covers, via
// marked-ancestor counts M_v + M_u - 2*M_w with w = LCA(u,v). The result
// is indexed by graph edge id; tree edges read 0. It is valid until the
// next CoverCount call, which reuses it.
func (tl *Tools) CoverCount(marked []bool) ([]int, error) {
	t := tl.T
	g := t.G
	if tl.lcaOf == nil {
		tl.lcaOf = make([]int32, g.M())
		for id, e := range g.Edges {
			tl.lcaOf[id] = -1
			if !t.IsTreeEdge(id) {
				tl.lcaOf[id] = int32(t.LCA(e.U, e.V))
			}
		}
		tl.ccIn = make([]Word, g.N)
		tl.ccOut = make([]int, g.M())
	}
	x := tl.ccIn
	for v := 0; v < g.N; v++ {
		x[v] = 0
		if v != t.Root && marked[v] {
			x[v] = 1
		}
	}
	sum := func(a, b Word) Word { return a + b }
	m, err := tl.AncestorsSum(x, sum)
	if err != nil {
		return nil, err
	}
	out := tl.ccOut
	for id, e := range g.Edges {
		if w := tl.lcaOf[id]; w >= 0 {
			out[id] = int(m[e.U] + m[e.V] - 2*m[w])
		}
	}
	return out, nil
}
