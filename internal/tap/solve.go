package tap

import (
	"fmt"
	"slices"
)

// SolveWeighted runs the full weighted TAP algorithm (forward + reverse-
// delete) with dual-growth parameter eps and the given reverse-delete
// variant, returning the augmentation and its certificate.
func (s *Solver) SolveWeighted(eps float64, variant Variant) (*Result, error) {
	if eps <= 0 || eps >= 1 {
		return nil, fmt.Errorf("tap: eps %v out of (0,1)", eps)
	}
	if variant != Cover2 && variant != Cover4 {
		return nil, fmt.Errorf("tap: unknown variant %v", variant)
	}
	fs, err := s.runForward(eps)
	if err != nil {
		return nil, err
	}
	inB, revIters, err := s.runReverse(fs, variant)
	if err != nil {
		return nil, err
	}
	return s.assemble(fs, inB, eps, revIters)
}

// assemble validates the cover, projects to the input graph and packages
// the certificate.
func (s *Solver) assemble(fs *forwardState, inB []bool, eps float64, revIters int) (*Result, error) {
	if !s.VG.FullyCovers(func(ve int) bool { return inB[ve] }) {
		return nil, fmt.Errorf("tap: final augmentation does not cover the tree")
	}
	res := &Result{
		Duals:             append([]float64(nil), fs.y...),
		Epochs:            s.Lay.NumLayers,
		Iterations:        fs.iterations,
		ReverseIterations: revIters,
	}
	for ve, in := range inB {
		if in {
			res.VEdges = append(res.VEdges, ve)
			res.VirtWeight += int64(s.VG.VEdges[ve].W)
		}
	}
	slices.Sort(res.VEdges)
	res.OrigEdges = s.VG.Project(res.VEdges)
	for _, id := range res.OrigEdges {
		res.Weight += int64(s.T.G.Edges[id].W)
	}
	var sum float64
	for _, yv := range fs.y {
		sum += yv
	}
	res.DualLB = sum / (1 + eps)
	// Coverage multiplicity over R_k edges (Lemma 3.2 / Lemma 4.18).
	cnt := make([]int, s.T.G.N)
	for _, ve := range res.VEdges {
		e := &s.VG.VEdges[ve]
		for x := e.Dec; x != e.Anc; x = s.T.Parent[x] {
			cnt[x]++
		}
	}
	for c, k := range cnt {
		if fs.rkOf[c] != 0 && k > res.MaxCoverRk {
			res.MaxCoverRk = k
		}
	}
	return res, nil
}

// DualFeasibilityViolations counts virtual edges whose dual constraint
// exceeds (1+eps) * w(e) beyond floating-point tolerance; the forward phase
// guarantees zero (Section 3.4, Correctness).
func (s *Solver) DualFeasibilityViolations(res *Result, eps float64) int {
	bad := 0
	for ve := range s.VG.VEdges {
		var sum float64
		e := &s.VG.VEdges[ve]
		for x := e.Dec; x != e.Anc; x = s.T.Parent[x] {
			sum += res.Duals[x]
		}
		limit := (1 + eps) * float64(s.VG.VEdges[ve].W)
		if sum > limit*(1+1e-6)+1e-9 {
			bad++
		}
	}
	return bad
}
