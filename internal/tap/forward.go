package tap

import (
	"fmt"
	"math"

	"twoecss/internal/congest"
	"twoecss/internal/primitives"
)

// forwardState is the outcome of the forward phase, consumed by
// reverse-delete.
type forwardState struct {
	y            []float64 // dual per tree-edge child
	inA          []bool    // per virtual edge
	addedEpoch   []int     // per virtual edge, epoch it joined A (-1 if not)
	coveredEpoch []int     // per tree-edge child, epoch first covered (0 = never)
	rkOf         []int     // per tree-edge child, k if the edge is in R_k (0 if none)
	iterations   int
}

// runForward executes the forward phase of Section 4.4: epochs k = 1..L;
// in epoch k the uncovered layer-k edges (R_k) raise their duals
// multiplicatively until every one of them is covered by the growing set A.
func (s *Solver) runForward(eps float64) (*forwardState, error) {
	n := s.T.G.N
	nv := len(s.VG.VEdges)
	st := &forwardState{
		y:            make([]float64, n),
		inA:          make([]bool, nv),
		addedEpoch:   make([]int, nv),
		coveredEpoch: make([]int, n),
		rkOf:         make([]int, n),
	}
	for i := range st.addedEpoch {
		st.addedEpoch[i] = -1
	}
	covered := make([]bool, n)
	// Iteration bound per epoch: y grows from y0 by (1+eps) per iteration
	// and tightens its witness constraint after it gained a factor
	// |S_e^k| <= n (see Lemma 4.12).
	maxIter := int(math.Ceil(math.Log(float64(2*n+4))/math.Log1p(eps))) + 4

	for k := 1; k <= s.Lay.NumLayers; k++ {
		s.Net.BeginPhase(fmt.Sprintf("forward epoch %d", k))
		// R_k: layer-k edges still uncovered.
		rk := make([]int, 0)
		for _, c := range s.Lay.EdgesInLayer(k) {
			if !covered[c] {
				rk = append(rk, c)
				st.rkOf[c] = k
			}
		}
		if len(rk) == 0 {
			s.Net.EndPhase()
			continue
		}
		for iter := 0; ; iter++ {
			if iter > maxIter {
				s.Net.EndPhase()
				return nil, fmt.Errorf("tap: epoch %d exceeded %d forward iterations", k, maxIter)
			}
			st.iterations++
			// s(e) = sum of duals over covered tree edges (Claim 4.5).
			sVals, err := s.Agg.PerVEdge(func(c int) congest.Word {
				return fbits(st.y[c])
			}, fsum, fbits(0))
			if err != nil {
				return nil, err
			}
			if iter == 0 {
				// |S_e^k|: covered tree edges in R_k still uncovered.
				cnt, err := s.Agg.PerVEdge(func(c int) congest.Word {
					if st.rkOf[c] == k && !covered[c] {
						return 1
					}
					return 0
				}, isum, 0)
				if err != nil {
					return nil, err
				}
				// y(t) = min over covering e of (w(e)-s(e))/|S_e^k|
				// (Claim 4.6, min-aggregate).
				init, err := s.Agg.PerTreeEdge(func(ve int) (congest.Word, bool) {
					if cnt[ve] == 0 {
						return 0, false
					}
					slack := float64(s.VG.VEdges[ve].W) - ffrom(sVals[ve])
					return fbits(slack / float64(cnt[ve])), true
				}, fmin, fbits(math.Inf(1)))
				if err != nil {
					return nil, err
				}
				for _, c := range rk {
					if covered[c] {
						continue
					}
					v := ffrom(init[c])
					if math.IsInf(v, 1) {
						return nil, fmt.Errorf("%w: tree edge %d", ErrInfeasible, c)
					}
					if v < 0 {
						v = 0
					}
					st.y[c] = v
				}
				// Re-aggregate s(e) after the dual jump.
				sVals, err = s.Agg.PerVEdge(func(c int) congest.Word {
					return fbits(st.y[c])
				}, fsum, fbits(0))
				if err != nil {
					return nil, err
				}
			} else {
				// Multiplicative growth for still-uncovered R_k edges
				// (purely node-local).
				for _, c := range rk {
					if !covered[c] {
						st.y[c] *= 1 + eps
					}
				}
				sVals, err = s.Agg.PerVEdge(func(c int) congest.Word {
					return fbits(st.y[c])
				}, fsum, fbits(0))
				if err != nil {
					return nil, err
				}
			}
			// Tight constraints join A (node-local per virtual edge).
			for ve := range s.VG.VEdges {
				if st.inA[ve] {
					continue
				}
				w := float64(s.VG.VEdges[ve].W)
				if ffrom(sVals[ve]) >= w*(1-weightTol) {
					st.inA[ve] = true
					st.addedEpoch[ve] = k
				}
			}
			// Tree edges learn whether A covers them (Claim 4.6, OR).
			cov, err := s.Agg.PerTreeEdge(func(ve int) (congest.Word, bool) {
				if st.inA[ve] {
					return 1, true
				}
				return 0, false
			}, isum, 0)
			if err != nil {
				return nil, err
			}
			for c := 0; c < n; c++ {
				if c == s.T.Root || covered[c] {
					continue
				}
				if cov[c] > 0 {
					covered[c] = true
					st.coveredEpoch[c] = k
				}
			}
			// Global termination test for epoch k over the BFS tree.
			pending := make([]congest.Word, s.BFS.G.N)
			for _, c := range rk {
				if !covered[c] {
					pending[c] = 1
				}
			}
			or := func(a, b congest.Word) congest.Word {
				if a != 0 || b != 0 {
					return 1
				}
				return 0
			}
			left, err := primitives.GlobalAggregate(s.Net, s.BFS, &s.prim, pending, or)
			if err != nil {
				return nil, err
			}
			if left == 0 {
				break
			}
		}
		s.Net.EndPhase()
	}
	return st, nil
}
