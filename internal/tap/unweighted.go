package tap

import (
	"fmt"
	"slices"

	"twoecss/internal/layering"
)

// UnweightedResult is the outcome of the Section 3.6.1 algorithm.
type UnweightedResult struct {
	// VEdges is the augmentation (virtual edge ids): both petals of every
	// MIS edge.
	VEdges []int
	// OrigEdges is the projection to the input graph.
	OrigEdges []int
	// MISSize is the number of independent tree edges found; it certifies
	// OPT >= MISSize on G', hence |VEdges| <= 2*OPT (2-approximation).
	MISSize int
}

// SolveUnweighted runs the simple unweighted TAP algorithm of Section 3.6.1:
// an MIS of the tree edges with respect to all non-tree edges is computed
// layer by layer, and both petals of every MIS edge enter the augmentation.
// Since no virtual edge covers two MIS edges, any cover needs at least one
// edge per MIS element, so the result is a 2-approximation for unweighted
// TAP on G' and a 4-approximation on G.
func (s *Solver) SolveUnweighted() (*UnweightedResult, error) {
	nv := len(s.VG.VEdges)
	inX := func(ve int) bool { return true }
	inY := make([]bool, nv)
	coveredByY := make([]bool, s.T.G.N)
	inF := make([]bool, s.T.G.N)
	for c := range inF {
		inF[c] = c != s.T.Root
	}
	var mis []int

	for i := 1; i <= s.Lay.NumLayers; i++ {
		s.Net.BeginPhase(fmt.Sprintf("unweighted layer %d", i))
		htilde := make([]bool, s.T.G.N)
		any := false
		for _, c := range s.Lay.EdgesInLayer(i) {
			if !coveredByY[c] {
				htilde[c] = true
				any = true
			}
		}
		if empty, err := s.globalEmpty(htilde); err != nil {
			return nil, err
		} else if empty || !any {
			s.Net.EndPhase()
			continue
		}
		pet, err := layering.ComputePetals(s.Agg, s.Lay, i, inX)
		if err != nil {
			return nil, err
		}
		tprime, err := s.globalCandidates(i, htilde, pet)
		if err != nil {
			return nil, err
		}
		for _, c := range s.greedyMIS(tprime, pet) {
			mis = append(mis, c)
			p := pet[c]
			if p.Higher < 0 || p.Lower < 0 {
				return nil, fmt.Errorf("%w: tree edge %d", ErrInfeasible, c)
			}
			inY[p.Higher] = true
			inY[p.Lower] = true
		}
		if err := s.refreshCoverage(inY, coveredByY); err != nil {
			return nil, err
		}
		if err := s.Net.Charge(int64(3*s.Dec.MaxDiameter+3), "local MIS scan (Section 3.6.1)"); err != nil {
			return nil, err
		}
		for _, a := range s.localScan(i, inF, coveredByY, pet, Cover4, inY) {
			if a.hi < 0 || a.lo < 0 {
				return nil, fmt.Errorf("%w: tree edge %d", ErrInfeasible, a.c)
			}
			mis = append(mis, a.c)
		}
		if err := s.refreshCoverage(inY, coveredByY); err != nil {
			return nil, err
		}
		s.Net.EndPhase()
	}
	if !s.VG.FullyCovers(func(ve int) bool { return inY[ve] }) {
		return nil, fmt.Errorf("tap: unweighted augmentation does not cover the tree")
	}
	res := &UnweightedResult{MISSize: len(mis)}
	for ve, in := range inY {
		if in {
			res.VEdges = append(res.VEdges, ve)
		}
	}
	slices.Sort(res.VEdges)
	res.OrigEdges = s.VG.Project(res.VEdges)
	return res, nil
}
