// Package setcover implements the paper's second algorithm (Theorem 1.2,
// Section 5): a randomized O(log n)-approximation for weighted TAP — and
// hence an O(log n)+1 approximation for 2-ECSS — whose round complexity is
// proportional to the low-congestion shortcut quality of the network,
// O~(SC(G) + D).
//
// The outer loop parallelizes the greedy set-cover algorithm: phases sweep
// cost-effectiveness thresholds Delta = (1+eps)^i downward; within a phase,
// sub-phases sweep the maximum coverage degree d downward; each sub-phase
// samples the candidate set with probability 1/(2d) for O(log n)
// repetitions, committing a sample iff it is "good" (it covers at least
// Delta/100 marked tree edges per unit weight). Coverage state is
// maintained with the Lemma 5.4 XOR detector and cost-effectiveness with
// the Lemma 5.5 marked-ancestor counts, both running over the shortcut
// tools of Section 5.2.
//
// If a phase's sampling fails to clear every eligible edge (a low
// probability event the paper absorbs into "with high probability"), the
// implementation falls back to committing the single most cost-effective
// edge, which is exactly one step of sequential greedy and preserves the
// O(log n) guarantee while ensuring termination.
package setcover

import (
	"errors"
	"fmt"

	"math/rand"

	"twoecss/internal/congest"
	"twoecss/internal/primitives"
	"twoecss/internal/shortcuts"
	"twoecss/internal/tree"
)

// ErrInfeasible reports an uncoverable tree edge.
var ErrInfeasible = errors.New("setcover: tree edge not coverable (input not 2-edge-connected)")

// Options tunes the algorithm.
type Options struct {
	// Eps is the threshold-granularity parameter (paper's ε).
	Eps float64
	// Reps is the number of sampling repetitions per sub-phase (O(log n)).
	Reps int
	// GoodFraction is the goodness threshold divisor (paper uses 100).
	GoodFraction float64
	// Rng drives the sampling; required.
	Rng *rand.Rand
}

// DefaultOptions returns the paper's parameters for an n-vertex network.
func DefaultOptions(n int, rng *rand.Rand) Options {
	reps := 1
	for 1<<reps < n {
		reps++
	}
	return Options{Eps: 0.2, Reps: 2 * reps, GoodFraction: 100, Rng: rng}
}

// Result is the outcome of a run.
type Result struct {
	// Edges is the augmentation (original non-tree edge ids).
	Edges []int
	// Weight is its total weight.
	Weight int64
	// Phases, SubPhases, Samples count outer-loop work; Fallbacks counts
	// greedy fallback commits.
	Phases, SubPhases, Samples, Fallbacks int
	// MaxShortcutQuality is the largest realized alpha+beta observed.
	MaxShortcutQuality int
}

// Solver runs the shortcut-based TAP approximation.
type Solver struct {
	Net   *congest.Network
	BFS   *tree.Rooted
	T     *tree.Rooted
	Tools *shortcuts.Tools

	coverSets [][]int // per non-tree edge position: covered tree children
	nonTree   []int
	weights   []int64
	prim      primitives.Scratch // node state of the goodness test's global sums
	// tally[c] counts tree edge c in maxDegree and evaluate; the entries
	// they touch are listed in touched and reset before they return.
	tally   []int32
	touched []int
}

// NewSolver prepares a solver over the network graph and spanning tree t,
// using the given shortcut builder for all tree tools.
func NewSolver(net *congest.Network, bfs, t *tree.Rooted, b shortcuts.Builder) (*Solver, error) {
	tl, err := shortcuts.NewTools(net, t, b)
	if err != nil {
		return nil, err
	}
	s := &Solver{Net: net, BFS: bfs, T: t, Tools: tl, nonTree: t.NonTreeEdgeIDs()}
	s.coverSets = make([][]int, len(s.nonTree))
	s.weights = make([]int64, len(s.nonTree))
	s.tally = make([]int32, t.G.N)
	for j, id := range s.nonTree {
		e := t.G.Edges[id]
		w := t.LCA(e.U, e.V)
		for x := e.U; x != w; x = t.Parent[x] {
			s.coverSets[j] = append(s.coverSets[j], x)
		}
		for x := e.V; x != w; x = t.Parent[x] {
			s.coverSets[j] = append(s.coverSets[j], x)
		}
		s.weights[j] = int64(e.W)
	}
	return s, nil
}

// Solve runs the full algorithm.
func (s *Solver) Solve(opt Options) (*Result, error) {
	if opt.Rng == nil {
		return nil, fmt.Errorf("setcover: Options.Rng is required")
	}
	if opt.Eps <= 0 || opt.Eps >= 1 {
		return nil, fmt.Errorf("setcover: eps %v out of (0,1)", opt.Eps)
	}
	n := s.T.G.N
	marked := make([]bool, n) // marked = still uncovered
	needed := 0
	for v := 0; v < n; v++ {
		if v != s.T.Root {
			marked[v] = true
			needed++
		}
	}
	chosen := make([]bool, len(s.nonTree))
	res := &Result{}

	// Threshold sweep: from the best possible cost-effectiveness (n/1)
	// down to the worst (1/Wmax).
	maxW := float64(s.T.G.MaxWeight())
	if maxW < 1 {
		maxW = 1
	}
	delta := float64(n)
	minDelta := 1 / maxW

	for needed > 0 && delta >= minDelta/(1+opt.Eps) {
		res.Phases++
		// Cost-effectiveness of every edge w.r.t. marked edges
		// (Lemma 5.5 tool call bills the rounds).
		counts, err := s.Tools.CoverCount(marked)
		if err != nil {
			return nil, err
		}
		candidates := s.eligible(counts, chosen, delta, opt.Eps)
		if len(candidates) == 0 {
			delta /= 1 + opt.Eps
			continue
		}
		// Sub-phases over coverage degree d.
		for needed > 0 {
			res.SubPhases++
			d := s.maxDegree(candidates, marked)
			if d == 0 {
				break
			}
			p := 1 / (2 * float64(d))
			progressed := false
			for rep := 0; rep < opt.Reps && needed > 0; rep++ {
				res.Samples++
				var sample []int
				for _, j := range candidates {
					if opt.Rng.Float64() < p {
						sample = append(sample, j)
					}
				}
				if len(sample) == 0 {
					continue
				}
				newCov, wsum := s.evaluate(sample, marked)
				// Goodness check: one global aggregate over the BFS
				// tree (O(D) rounds).
				if err := s.billGoodness(); err != nil {
					return nil, err
				}
				if float64(newCov) < delta/opt.GoodFraction*float64(wsum) {
					continue
				}
				progressed = true
				needed -= s.commit(sample, marked, chosen, res)
				// Bill the coverage refresh (Lemma 5.4 tool call).
				if err := s.billCoverage(opt.Rng); err != nil {
					return nil, err
				}
				candidates = s.eligible(counts, chosen, delta, opt.Eps)
			}
			if !progressed {
				break
			}
		}
		// Fallback: if eligible edges remain after the sampling budget,
		// commit the single most cost-effective one (a sequential greedy
		// step) to guarantee progress, then recompute.
		counts, err = s.Tools.CoverCount(marked)
		if err != nil {
			return nil, err
		}
		if best := s.bestEdge(counts, chosen); best >= 0 &&
			s.effectiveness(best, counts) >= delta*(1-opt.Eps) {
			res.Fallbacks++
			needed -= s.commit([]int{best}, marked, chosen, res)
			if err := s.billCoverage(opt.Rng); err != nil {
				return nil, err
			}
			continue // stay at this delta
		}
		delta /= 1 + opt.Eps
	}
	if needed > 0 {
		return nil, ErrInfeasible
	}
	for j, c := range chosen {
		if c {
			res.Edges = append(res.Edges, s.nonTree[j])
			res.Weight += s.weights[j]
		}
	}
	res.MaxShortcutQuality = s.Tools.MaxQuality
	return res, nil
}

// effectiveness is non-tree edge j's cost-effectiveness. counts is the
// cover table of Tools.CoverCount, indexed by graph edge id.
func (s *Solver) effectiveness(j int, counts []int) float64 {
	return float64(counts[s.nonTree[j]]) / float64(s.weights[j])
}

func (s *Solver) eligible(counts []int, chosen []bool, delta, eps float64) []int {
	var out []int
	for j := range s.nonTree {
		if chosen[j] || counts[s.nonTree[j]] == 0 {
			continue
		}
		if s.effectiveness(j, counts) >= delta*(1-eps) {
			out = append(out, j)
		}
	}
	return out
}

func (s *Solver) bestEdge(counts []int, chosen []bool) int {
	best, bestEff := -1, 0.0
	for j := range s.nonTree {
		if chosen[j] || counts[s.nonTree[j]] == 0 {
			continue
		}
		if eff := s.effectiveness(j, counts); eff > bestEff {
			bestEff = eff
			best = j
		}
	}
	return best
}

// maxDegree is the largest number of candidates covering one marked tree
// edge.
func (s *Solver) maxDegree(candidates []int, marked []bool) int {
	d := int32(0)
	for _, j := range candidates {
		for _, c := range s.coverSets[j] {
			if marked[c] {
				if s.tally[c] == 0 {
					s.touched = append(s.touched, c)
				}
				s.tally[c]++
				d = max(d, s.tally[c])
			}
		}
	}
	s.resetTally()
	return int(d)
}

// evaluate returns the number of marked tree edges the sample covers and
// the sample's total weight.
func (s *Solver) evaluate(sample []int, marked []bool) (int, int64) {
	var w int64
	for _, j := range sample {
		w += s.weights[j]
		for _, c := range s.coverSets[j] {
			if marked[c] && s.tally[c] == 0 {
				s.tally[c] = 1
				s.touched = append(s.touched, c)
			}
		}
	}
	covered := len(s.touched)
	s.resetTally()
	return covered, w
}

func (s *Solver) resetTally() {
	for _, c := range s.touched {
		s.tally[c] = 0
	}
	s.touched = s.touched[:0]
}

func (s *Solver) commit(sample []int, marked, chosen []bool, res *Result) int {
	newly := 0
	for _, j := range sample {
		chosen[j] = true
		for _, c := range s.coverSets[j] {
			if marked[c] {
				marked[c] = false
				newly++
			}
		}
	}
	return newly
}

// billGoodness runs the O(D)-round global sum used by the goodness test.
func (s *Solver) billGoodness() error {
	x := make([]congest.Word, s.BFS.G.N)
	sum := func(a, b congest.Word) congest.Word { return a + b }
	_, err := primitives.GlobalAggregate(s.Net, s.BFS, &s.prim, x, sum)
	return err
}

// billCoverage bills the Lemma 5.4 detector's coverage refresh (one
// DescendantsSum over the shortcut hierarchy). It draws len(nonTree)
// fingerprints from rng for a detection the solver does not consult: the
// coverage state comes from commit.
func (s *Solver) billCoverage(rng *rand.Rand) error {
	_, err := s.Tools.CoveredDetection(s.nonTree, rng)
	return err
}
