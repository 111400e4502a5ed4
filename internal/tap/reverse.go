package tap

import (
	"fmt"
	"slices"

	"twoecss/internal/congest"
	"twoecss/internal/layering"
	"twoecss/internal/primitives"
)

// anchor records one MIS element of the reverse-delete phase and its petals.
type anchor struct {
	c      int // tree-edge child
	hi, lo int // petal virtual-edge ids (lo is unused by Cover2 additions)
	global bool
	layer  int
}

// runReverse executes the reverse-delete phase (Sections 3.5 / 4.5 for
// Cover4, Section 4.6 for Cover2 with the cleaning pass) and returns the
// membership vector of the final augmentation B.
func (s *Solver) runReverse(fs *forwardState, variant Variant) ([]bool, int, error) {
	n := s.T.G.N
	nv := len(s.VG.VEdges)
	L := s.Lay.NumLayers
	inB := make([]bool, nv)
	iterations := 0

	for k := L; k >= 1; k-- {
		s.Net.BeginPhase(fmt.Sprintf("reverse epoch %d", k))
		// X = B ∪ A_k; F = edges first covered in epochs >= k.
		inX := make([]bool, nv)
		for ve := 0; ve < nv; ve++ {
			inX[ve] = inB[ve] || fs.addedEpoch[ve] == k
		}
		inF := make([]bool, n)
		for c := 0; c < n; c++ {
			inF[c] = c != s.T.Root && fs.coveredEpoch[c] >= k
		}
		inY := make([]bool, nv)
		coveredByY := make([]bool, n)
		var anchors []anchor

		for i := k; i <= L; i++ {
			iterations++
			htilde := make([]bool, n)
			any := false
			for _, c := range s.Lay.EdgesInLayer(i) {
				if inF[c] && !coveredByY[c] {
					htilde[c] = true
					any = true
				}
			}
			// Global emptiness test over the BFS tree.
			if empty, err := s.globalEmpty(htilde); err != nil {
				return nil, 0, err
			} else if empty || !any {
				continue
			}
			pet, err := layering.ComputePetals(s.Agg, s.Lay, i, func(ve int) bool { return inX[ve] })
			if err != nil {
				return nil, 0, err
			}

			// --- Global part: per segment, the highest and lowest
			// uncovered highway edges of the layer-i path, broadcast with
			// their petals; everyone computes the same greedy MIS.
			tprime, err := s.globalCandidates(i, htilde, pet)
			if err != nil {
				return nil, 0, err
			}
			mis := s.greedyMIS(tprime, pet)
			for _, c := range mis {
				p := pet[c]
				anchors = append(anchors, anchor{c: c, hi: p.Higher, lo: p.Lower, global: true, layer: i})
				inY[p.Higher] = true
				if variant == Cover4 {
					inY[p.Lower] = true
				}
			}
			if err := s.refreshCoverage(inY, coveredByY); err != nil {
				return nil, 0, err
			}

			// --- Local part: scan each layer-i path piece inside each
			// segment bottom-up, adding uncovered edges as local anchors.
			if err := s.Net.Charge(int64(3*s.Dec.MaxDiameter+3), "local MIS scan (Section 4.5.1)"); err != nil {
				return nil, 0, err
			}
			locals := s.localScan(i, inF, coveredByY, pet, variant, inY)
			anchors = append(anchors, locals...)
			if err := s.refreshCoverage(inY, coveredByY); err != nil {
				return nil, 0, err
			}
		}

		if variant == Cover2 {
			if err := s.cleaning(k, fs, anchors, inY); err != nil {
				return nil, 0, err
			}
		}
		// Defensive post-condition: Y must cover F (Lemma 3.2 / Claim 4.17).
		if err := s.refreshCoverage(inY, coveredByY); err != nil {
			return nil, 0, err
		}
		for c := 0; c < n; c++ {
			if inF[c] && !coveredByY[c] {
				return nil, 0, fmt.Errorf("tap: reverse epoch %d left edge %d of F uncovered", k, c)
			}
		}
		inB = inY
		s.Net.EndPhase()
	}
	return inB, iterations, nil
}

// globalEmpty runs the distributed emptiness test of one iteration.
func (s *Solver) globalEmpty(set []bool) (bool, error) {
	x := make([]congest.Word, s.BFS.G.N)
	for c, in := range set {
		if in {
			x[c] = 1
		}
	}
	or := func(a, b congest.Word) congest.Word {
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	}
	got, err := primitives.GlobalAggregate(s.Net, s.BFS, &s.prim, x, or)
	if err != nil {
		return false, err
	}
	return got == 0, nil
}

// globalCandidates collects, for every segment, the highest and lowest
// still-uncovered layer-i highway edges (the set T' of Section 4.5.1) and
// broadcasts them with their petals over the BFS tree.
func (s *Solver) globalCandidates(layer int, htilde []bool, pet map[int]layering.Petals) ([]int, error) {
	t := s.T
	best := make(map[int][2]int, len(s.Dec.Segs)) // seg -> (highest, lowest) child
	for c := 0; c < t.G.N; c++ {
		if c == t.Root || !htilde[c] || !s.Dec.IsHighwayEdge[c] || s.Lay.LayerOf[c] != layer {
			continue
		}
		sid := s.Dec.SegOfEdge[c]
		cur, ok := best[sid]
		if !ok {
			best[sid] = [2]int{c, c}
			continue
		}
		if t.Depth[c] < t.Depth[cur[0]] {
			cur[0] = c
		}
		if t.Depth[c] > t.Depth[cur[1]] {
			cur[1] = c
		}
		best[sid] = cur
	}
	seen := map[int]bool{}
	var tprime []int
	perNode := make([][]primitives.Item, s.BFS.G.N)
	for _, pair := range best {
		for _, c := range []int{pair[0], pair[1]} {
			if seen[c] {
				continue
			}
			seen[c] = true
			tprime = append(tprime, c)
			p := pet[c]
			perNode[c] = append(perNode[c], primitives.Item{
				congest.Word(c), congest.Word(p.Higher), congest.Word(p.Lower),
			})
		}
	}
	if err := primitives.GatherBroadcastAll(s.Net, s.BFS, &s.prim, perNode); err != nil {
		return nil, err
	}
	slices.Sort(tprime)
	return tprime, nil
}

// greedyMIS computes the deterministic greedy MIS over the candidate tree
// edges; adjacency is witnessed by petals (two layer-i edges are neighbours
// iff a petal of one covers the other, by Claim 4.9).
func (s *Solver) greedyMIS(cands []int, pet map[int]layering.Petals) []int {
	var mis []int
	adjacent := func(a, b int) bool {
		pa, pb := pet[a], pet[b]
		return (pa.Higher >= 0 && s.VG.Covers(pa.Higher, b)) ||
			(pa.Lower >= 0 && s.VG.Covers(pa.Lower, b)) ||
			(pb.Higher >= 0 && s.VG.Covers(pb.Higher, a)) ||
			(pb.Lower >= 0 && s.VG.Covers(pb.Lower, a))
	}
	for _, c := range cands {
		if pet[c].Higher < 0 {
			continue // not coverable by X here; defensive
		}
		ok := true
		for _, m := range mis {
			if adjacent(c, m) {
				ok = false
				break
			}
		}
		if ok {
			mis = append(mis, c)
		}
	}
	return mis
}

// localScan performs the per-segment bottom-up scans of Section 4.5.1: for
// every layer-i path, each of its per-segment pieces is scanned from its
// lowest vertex; an uncovered H̃_i edge becomes a local anchor and its
// higher petal's ancestor endpoint propagates as local coverage.
func (s *Solver) localScan(layer int, inF, coveredByY []bool, pet map[int]layering.Petals, variant Variant, inY []bool) []anchor {
	t := s.T
	var out []anchor
	for _, p := range s.Lay.Paths {
		if p.Layer != layer {
			continue
		}
		// Split the path (bottom-up edge list) into per-segment pieces.
		start := 0
		for start < len(p.Edges) {
			sid := s.Dec.SegOfEdge[p.Edges[start]]
			end := start
			for end+1 < len(p.Edges) && s.Dec.SegOfEdge[p.Edges[end+1]] == sid {
				end++
			}
			// Scan the piece bottom-up with fresh local state.
			ancStar := -1 // highest ancestor covered by local additions
			for idx := start; idx <= end; idx++ {
				c := p.Edges[idx]
				if !inF[c] || coveredByY[c] {
					continue
				}
				if ancStar >= 0 && t.Depth[ancStar] < t.Depth[c] {
					continue // covered by a petal added below in this piece
				}
				pp, ok := pet[c]
				if !ok || pp.Higher < 0 {
					continue // defensive: X does not cover c
				}
				out = append(out, anchor{c: c, hi: pp.Higher, lo: pp.Lower, global: false, layer: layer})
				inY[pp.Higher] = true
				if variant == Cover4 {
					inY[pp.Lower] = true
				}
				a := s.VG.VEdges[pp.Higher].Anc
				if ancStar < 0 || t.Depth[a] < t.Depth[ancStar] {
					ancStar = a
				}
			}
			start = end + 1
		}
	}
	return out
}

// refreshCoverage updates coveredByY via the Claim 4.6 OR-aggregate.
func (s *Solver) refreshCoverage(inY []bool, coveredByY []bool) error {
	cov, err := s.Agg.PerTreeEdge(func(ve int) (congest.Word, bool) {
		if inY[ve] {
			return 1, true
		}
		return 0, false
	}, isum, 0)
	if err != nil {
		return err
	}
	for c := range coveredByY {
		coveredByY[c] = cov[c] > 0
	}
	return nil
}

// cleaning implements the Section 4.6 cleaning pass of epoch k: every R_k
// edge covered exactly 3 times removes the higher petal of the (unique)
// global anchor strictly below it that covers it.
func (s *Solver) cleaning(k int, fs *forwardState, anchors []anchor, inY []bool) error {
	counts, err := s.Agg.PerTreeEdge(func(ve int) (congest.Word, bool) {
		if inY[ve] {
			return 1, true
		}
		return 0, false
	}, isum, 0)
	if err != nil {
		return err
	}
	// The pass is simultaneous: all edges detect their count against the
	// same snapshot and removals apply together.
	snap := append([]bool(nil), inY...)
	var removed []int
	for c := 0; c < s.T.G.N; c++ {
		if c == s.T.Root || fs.rkOf[c] != k || counts[c] != 3 {
			continue
		}
		// Find the global anchor strictly below c whose higher petal is in
		// Y and covers c.
		bestDepth, bestVe := -1, -1
		for _, a := range anchors {
			if !a.global || a.c == c {
				continue
			}
			if !s.T.IsAncestor(c, a.c) { // a.c strictly below c
				continue
			}
			if snap[a.hi] && s.VG.Covers(a.hi, c) {
				if s.T.Depth[a.c] > bestDepth {
					bestDepth = s.T.Depth[a.c]
					bestVe = a.hi
				}
			}
		}
		if bestVe >= 0 {
			inY[bestVe] = false
			removed = append(removed, bestVe)
		}
	}
	// All vertices learn the removed petals (O(sqrt n) global anchors).
	perNode := make([][]primitives.Item, s.BFS.G.N)
	for _, ve := range removed {
		dec := s.VG.VEdges[ve].Dec
		perNode[dec] = append(perNode[dec], primitives.Item{congest.Word(ve)})
	}
	if err := primitives.GatherBroadcastAll(s.Net, s.BFS, &s.prim, perNode); err != nil {
		return err
	}
	return nil
}
