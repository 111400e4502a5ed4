// Package ecss assembles the paper's end-to-end algorithms for the
// minimum-weight 2-edge-connected spanning subgraph problem (2-ECSS): an MST
// is computed first, then a tree augmentation is added (Claim 2.1), yielding
// an (α+1)-approximation from any α-approximate TAP. With the improved
// primal-dual TAP (Theorem 4.19) this gives the deterministic
// (5+eps)-approximation of Theorem 1.1.
package ecss

import (
	"errors"
	"fmt"
	"slices"

	"twoecss/internal/congest"
	"twoecss/internal/graph"
	"twoecss/internal/mst"
	"twoecss/internal/primitives"
	"twoecss/internal/tap"
	"twoecss/internal/tree"
)

// MSTMode selects how the spanning tree is obtained.
type MSTMode int

const (
	// MSTChargeKuttenPeleg computes the MST centrally (Kruskal) and bills
	// the cited O(D + sqrt(n) log* n) Kutten–Peleg round cost.
	MSTChargeKuttenPeleg MSTMode = iota + 1
	// MSTSimulateBoruvka runs the real message-level pipelined Borůvka
	// simulation (O(n + D log n) measured rounds).
	MSTSimulateBoruvka
)

// Options configures a 2-ECSS run.
type Options struct {
	// Eps is the approximation slack (the paper's constant ε > 0).
	Eps float64
	// Variant selects the reverse-delete flavour (Cover2 gives Theorem 1.1).
	Variant tap.Variant
	// MST selects the spanning tree construction mode.
	MST MSTMode
	// Root is the vertex the BFS and spanning trees are rooted at.
	Root int
	// Workers has no effect: the engine runs every round on the solving
	// goroutine.
	//
	// Deprecated: nothing reads it; it remains until the last caller drops it.
	Workers int
	// Progress, if non-nil, is invoked at the start of each pipeline stage
	// ("bfs", "mst", "tap", "assemble") from the solving goroutine. It only
	// notifies: each stage's cost is its depth-0 span in net.Phases(), and
	// the previous stage's span is closed by the time Progress runs. The
	// service layer uses it to surface per-job progress. It is an
	// execution knob, not part of result identity, so content-addressed
	// caches key on the remaining fields only.
	Progress func(stage string)
}

// DefaultOptions returns Theorem 1.1's configuration.
func DefaultOptions() Options {
	return Options{Eps: 0.25, Variant: tap.Cover2, MST: MSTChargeKuttenPeleg, Root: 0}
}

// Result is a 2-ECSS solution with its certificate.
type Result struct {
	// Edges are the chosen edge ids (tree plus augmentation), sorted.
	Edges []int
	// Weight is the total solution weight.
	Weight int64
	// TreeWeight and AugWeight decompose it.
	TreeWeight, AugWeight int64
	// LowerBound is a certified lower bound on the optimal 2-ECSS weight:
	// max(w(MST), DualLB/2) — any 2-ECSS contains a spanning tree and is a
	// feasible augmentation of the MST (proof of Claim 2.1).
	LowerBound float64
	// CertifiedRatio is Weight / LowerBound.
	CertifiedRatio float64
	// TAP is the inner tree-augmentation result.
	TAP *tap.Result
	// Stats is the network's final cost accounting.
	Stats congest.Stats
}

// ErrNot2EC reports that the input graph is not 2-edge-connected, so no
// spanning 2-ECSS exists.
var ErrNot2EC = errors.New("ecss: input graph is not 2-edge-connected")

// Solve runs the full pipeline of Theorem 1.1 on g and returns the solution
// together with the network used (for round accounting inspection).
// Callers that need the network while it solves — to arm a round
// observer, or to read phase spans from Progress — use SolveOn directly.
func Solve(g *graph.Graph, opt Options) (*Result, *congest.Network, error) {
	net := congest.NewNetwork(g)
	res, err := SolveOn(net, opt)
	if err != nil {
		return nil, nil, err
	}
	return res, net, nil
}

// SolveOn runs the full pipeline on a caller-provided network over the
// instance net.G — the service builds one per solve attempt, arms its
// round observer, and reads its phase spans. The caller retains ownership
// of net. Result.Stats is the cost delta of this call, so a network that
// already ran reports a per-solve bill too; Result.Stats.MaxEdgeWords is
// the network-lifetime maximum unless the caller calls
// net.ResetAccounting between solves.
//
// Each stage runs inside a network phase named after it, so the stage
// spans, nested in whatever phase was open at the call, sum to
// Result.Stats. A stage that fails leaves its phase open.
func SolveOn(net *congest.Network, opt Options) (*Result, error) {
	g := net.G
	if opt.Eps <= 0 {
		return nil, fmt.Errorf("ecss: eps must be positive")
	}
	if g.N < 3 {
		return nil, fmt.Errorf("ecss: need at least 3 vertices")
	}
	// enter ends the running stage's phase, announces the next stage, and
	// opens its phase.
	running := false
	enter := func(stage string) {
		if running {
			net.EndPhase()
		}
		if opt.Progress != nil {
			opt.Progress(stage)
		}
		net.BeginPhase(stage)
		running = true
	}
	start := net.Stats()
	enter("bfs")
	bfs, err := primitives.BuildBFS(net, opt.Root)
	if err != nil {
		if errors.Is(err, tree.ErrNotTree) {
			return nil, graph.ErrDisconnected
		}
		return nil, err
	}

	enter("mst")
	var t *tree.Rooted
	switch opt.MST {
	case MSTSimulateBoruvka:
		ids, err := mst.Boruvka(net, opt.Root)
		if err != nil {
			return nil, err
		}
		t, err = tree.NewFromEdgeSet(g, opt.Root, ids)
		if err != nil {
			return nil, err
		}
	default:
		t, err = mst.KruskalTree(g, opt.Root, net)
		if err != nil {
			return nil, err
		}
	}

	enter("tap")
	solver, err := tap.NewSolver(net, bfs, t)
	if err != nil {
		return nil, err
	}
	tr, err := solver.SolveWeighted(opt.Eps, opt.Variant)
	if err != nil {
		if errors.Is(err, tap.ErrInfeasible) {
			return nil, ErrNot2EC
		}
		return nil, err
	}

	enter("assemble")
	res := assemble(g, t, tr)
	net.EndPhase()
	res.Stats = statsDelta(start, net.Stats())
	return res, nil
}

// statsDelta subtracts the counter fields of start from end. MaxEdgeWords
// is a running maximum, not a counter, so the end value is kept.
func statsDelta(start, end congest.Stats) congest.Stats {
	return congest.Stats{
		SimulatedRounds: end.SimulatedRounds - start.SimulatedRounds,
		ChargedRounds:   end.ChargedRounds - start.ChargedRounds,
		Messages:        end.Messages - start.Messages,
		Words:           end.Words - start.Words,
		MaxEdgeWords:    end.MaxEdgeWords,
	}
}

func assemble(g *graph.Graph, t *tree.Rooted, tr *tap.Result) *Result {
	res := &Result{TAP: tr, TreeWeight: int64(t.Weight()), AugWeight: tr.Weight}
	res.Edges = append(t.TreeEdgeIDs(), tr.OrigEdges...)
	slices.Sort(res.Edges)
	res.Edges = slices.Compact(res.Edges)
	res.Weight = int64(g.TotalWeight(res.Edges))
	res.LowerBound = float64(res.TreeWeight)
	if lb := tr.DualLB / 2; lb > res.LowerBound {
		res.LowerBound = lb
	}
	if res.LowerBound > 0 {
		res.CertifiedRatio = float64(res.Weight) / res.LowerBound
	}
	return res
}

// Verify checks that res is a well-formed spanning 2-edge-connected
// subgraph of g: every edge id is in range and bought at most once (a
// duplicated id would make a bridge look doubled and mask infeasibility),
// the claimed weight matches the edge set, the subgraph spans g and is
// connected, and no chosen edge is a bridge of the chosen subgraph.
func Verify(g *graph.Graph, res *Result) error {
	if res == nil {
		return errors.New("ecss: nil result")
	}
	ids := slices.Clone(res.Edges)
	slices.Sort(ids)
	for i, id := range ids {
		if id < 0 || id >= g.M() {
			return fmt.Errorf("ecss: solution edge id %d out of range [0,%d)", id, g.M())
		}
		if i > 0 && ids[i-1] == id {
			return fmt.Errorf("ecss: solution lists edge id %d twice (an edge may be bought once)", id)
		}
	}
	if w := int64(g.TotalWeight(ids)); w != res.Weight {
		return fmt.Errorf("ecss: claimed weight %d does not match edge set weight %d", res.Weight, w)
	}
	sub := g.Subgraph(ids)
	if !sub.Connected() {
		return fmt.Errorf("ecss: solution subgraph is not connected/spanning on %d vertices", g.N)
	}
	if br := sub.Bridges(); len(br) != 0 {
		e := sub.Edges[br[0]]
		return fmt.Errorf("ecss: solution is not 2-edge-connected: %d bridges (first {%d,%d})", len(br), e.U, e.V)
	}
	return nil
}
