// Package tap implements the paper's primary contribution: the deterministic
// primal-dual approximation algorithm for weighted tree augmentation (TAP)
// in the CONGEST model (Sections 3 and 4).
//
// Given a 2-edge-connected graph G, a spanning tree T and the virtual graph
// G' (all non-tree edges ancestor-to-descendant), the solver runs
//
//   - a forward phase (Section 4.4) that raises dual variables y(t) layer by
//     layer until every tree edge is covered by the tentative set A, keeping
//     every dual constraint within a (1+eps) factor; and
//   - a reverse-delete phase that prunes A to B so that every tree edge with
//     y(t) > 0 is covered at most c times: c=4 for the basic variant
//     (Section 3.5/4.5) and c=2 for the improved variant with the cleaning
//     pass (Section 4.6).
//
// By Lemma 3.1 the result is a (c(1+eps)^2)-approximation of TAP on G',
// hence (Lemma 4.1) a 2c(1+eps)^2-approximation on G, i.e. (4+eps) for the
// improved variant; with Claim 2.1 this yields the (5+eps)-approximation for
// 2-ECSS of Theorem 1.1. The solver also returns the dual solution, whose
// scaled value is a certified lower bound used by the experiments.
//
// All cross-node data flows go through the segment aggregate machinery and
// the BFS-tree primitives, so the round bill on the congest.Network reflects
// the algorithm's O((D + sqrt n) log^2 n / eps) complexity.
package tap

import (
	"errors"
	"fmt"
	"math"

	"twoecss/internal/congest"
	"twoecss/internal/layering"
	"twoecss/internal/primitives"
	"twoecss/internal/segments"
	"twoecss/internal/tree"
	"twoecss/internal/vgraph"
)

// Variant selects the reverse-delete flavour.
type Variant int

const (
	// Cover4 is the basic reverse-delete (Section 3.5): every R_k edge is
	// covered at most 4 times, giving (4+eps)-approx TAP on G'.
	Cover4 Variant = iota + 1
	// Cover2 is the improved reverse-delete with the cleaning pass
	// (Section 4.6): every R_k edge is covered at most 2 times, giving
	// (2+eps)-approx TAP on G'.
	Cover2
)

func (v Variant) String() string {
	switch v {
	case Cover4:
		return "cover4"
	case Cover2:
		return "cover2"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// ErrInfeasible reports that some tree edge is covered by no non-tree edge,
// i.e. the input graph is not 2-edge-connected.
var ErrInfeasible = errors.New("tap: tree edge not coverable (input not 2-edge-connected)")

// Solver bundles the substrate a TAP run needs.
type Solver struct {
	Net *congest.Network
	// BFS is the communication tree over the network graph.
	BFS *tree.Rooted
	// T is the spanning tree being augmented.
	T *tree.Rooted
	// VG is the virtual graph G'.
	VG *vgraph.VGraph
	// Dec is the segment decomposition of T.
	Dec *segments.Decomposition
	// Lay is the layer decomposition of T.
	Lay *layering.Layering
	// Agg is the aggregate machinery.
	Agg *segments.Aggregator

	// prim is the node state of the solver's own global aggregates and
	// gather-broadcasts over BFS, kept across calls.
	prim primitives.Scratch
}

// NewSolver builds the solver substrate from a network and a spanning tree,
// charging the construction bills of the cited components (LCA labels,
// segment decomposition, layering).
func NewSolver(net *congest.Network, bfs, t *tree.Rooted) (*Solver, error) {
	vg, err := vgraph.BuildFromGraph(t)
	if err != nil {
		return nil, err
	}
	diam := bfs.Height() // eccentricity of the BFS root bounds D up to 2x
	if err := net.Charge(congest.LCALabelRounds(t.G.N, diam), "LCA labels (Section 4.1)"); err != nil {
		return nil, err
	}
	dec, err := segments.Build(t)
	if err != nil {
		return nil, err
	}
	if err := net.Charge(congest.SegmentDecompositionRounds(t.G.N, diam), "segment decomposition (Section 4.2.1)"); err != nil {
		return nil, err
	}
	lay, err := layering.Build(t)
	if err != nil {
		return nil, err
	}
	if err := layering.ChargeBuild(net, t.G.N, diam); err != nil {
		return nil, err
	}
	return &Solver{
		Net: net, BFS: bfs, T: t, VG: vg, Dec: dec, Lay: lay,
		Agg: segments.NewAggregator(net, bfs, dec, vg),
	}, nil
}

// Result is the outcome of a weighted TAP run.
type Result struct {
	// VEdges is the final augmentation B as virtual edge ids.
	VEdges []int
	// OrigEdges is the projection of B to original graph edge ids.
	OrigEdges []int
	// Weight is the total weight of OrigEdges (in G).
	Weight int64
	// VirtWeight is the total weight of B in G'.
	VirtWeight int64
	// Duals holds y(t) per tree-edge child.
	Duals []float64
	// DualLB is sum(y)/(1+eps): a certified lower bound on the optimum TAP
	// value in G' (and half of it lower-bounds TAP in G).
	DualLB float64
	// MaxCoverRk is the maximum number of B-edges covering any R_k edge
	// (paper: <= 2 for Cover2, <= 4 for Cover4).
	MaxCoverRk int
	// Epochs and Iterations count forward-phase work; ReverseIterations
	// counts reverse-delete (epoch, layer) iterations.
	Epochs, Iterations, ReverseIterations int
}

// float <-> word helpers: aggregate payloads carry IEEE-754 bits.

func fbits(x float64) congest.Word { return congest.Word(math.Float64bits(x)) }
func ffrom(w congest.Word) float64 { return math.Float64frombits(uint64(w)) }
func fsum(a, b congest.Word) congest.Word {
	return fbits(ffrom(a) + ffrom(b))
}
func fmin(a, b congest.Word) congest.Word {
	return fbits(math.Min(ffrom(a), ffrom(b)))
}
func isum(a, b congest.Word) congest.Word { return a + b }

const weightTol = 1e-9
