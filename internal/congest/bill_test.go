package congest

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// relay returns a schedule that passes one message of width words down a
// path network from node 0 to its last node, and counts its calls.
func relay(net *Network, width int, calls *int) func() error {
	payload := make([]Word, width)
	handler := func(v int, inbox []Msg) bool {
		if (v == 0 && inbox == nil) || (inbox != nil && v+1 < net.G.N) {
			net.Send(v, v, payload...) // edge v joins v and v+1 on a path
		}
		return false
	}
	return func() error {
		*calls++
		return net.Run(handler, []int{0}, int64(net.G.N)+1)
	}
}

// TestRunOnceRebillMatchesRun checks that a rebilled schedule leaves the
// ledger and the phase spans exactly as a second real run does,
// MaxEdgeWords included: the bill keeps the widest edge-round of its own
// run, not the ledger's maximum when it was measured.
func TestRunOnceRebillMatchesRun(t *testing.T) {
	setSwitch(t, &recheckBills, false)
	g := pathGraph(12)
	billed, direct := NewNetwork(g), NewNetwork(g)
	var calls, directCalls int
	wide, narrow := relay(billed, 5, &calls), relay(billed, 2, &calls)
	var b Bill
	billed.BeginPhase("setup")
	if err := wide(); err != nil {
		t.Fatal(err)
	}
	billed.EndPhase()
	billed.BeginPhase("first")
	if err := billed.RunOnce(&b, narrow); err != nil {
		t.Fatal(err)
	}
	billed.EndPhase()
	billed.BeginPhase("rebilled")
	if err := billed.RunOnce(&b, narrow); err != nil {
		t.Fatal(err)
	}
	billed.EndPhase()
	if calls != 2 {
		t.Fatalf("the narrow schedule ran %d times, want once", calls-1)
	}

	dWide, dNarrow := relay(direct, 5, &directCalls), relay(direct, 2, &directCalls)
	for _, step := range []struct {
		name string
		run  func() error
	}{{"setup", dWide}, {"first", dNarrow}, {"rebilled", dNarrow}} {
		direct.BeginPhase(step.name)
		if err := step.run(); err != nil {
			t.Fatal(err)
		}
		direct.EndPhase()
	}
	if got, want := billed.Stats(), direct.Stats(); got != want {
		t.Fatalf("ledger after a rebill %+v, after two runs %+v", got, want)
	}
	if got, want := billed.Phases(), direct.Phases(); !slices.Equal(got, want) {
		t.Fatalf("phases after a rebill %+v, after two runs %+v", got, want)
	}

	// After a reset, the rebill alone sets the widest edge-round: that of
	// the narrow schedule, not the wide one's the ledger held at measuring.
	billed.ResetAccounting()
	if err := billed.RunOnce(&b, narrow); err != nil {
		t.Fatal(err)
	}
	direct.ResetAccounting()
	if err := dNarrow(); err != nil {
		t.Fatal(err)
	}
	if got, want := billed.Stats(), direct.Stats(); got != want || got.MaxEdgeWords != 2 {
		t.Fatalf("ledger of a rebill after a reset %+v, of a run %+v (MaxEdgeWords want 2)", got, want)
	}
	if calls != 2 {
		t.Fatalf("the narrow schedule ran %d times after the reset, want 0", calls-2)
	}
}

// TestRunOnceRemeasures checks that a bill is valid only on the network
// and bandwidth budget it was measured under.
func TestRunOnceRemeasures(t *testing.T) {
	setSwitch(t, &recheckBills, false)
	g := pathGraph(8)
	a, other := NewNetwork(g), NewNetwork(g)
	var calls int
	var b Bill
	for _, net := range []*Network{a, other, other} {
		if err := net.RunOnce(&b, relay(net, 3, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 2 {
		t.Fatalf("%d runs, want 2: one on each network, then a rebill", calls)
	}
	other.WordsPerEdge = 4
	if err := other.RunOnce(&b, relay(other, 3, &calls)); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatal("a WordsPerEdge change did not re-measure the bill")
	}
	if got, want := other.Stats().SimulatedRounds, 3*a.Stats().SimulatedRounds; got != want || got == 0 {
		t.Fatalf("other network billed %d simulated rounds, want %d", got, want)
	}
}

// TestRunOnceObservedAlwaysRuns checks that an armed observer sees every
// billed round: the schedule runs on every call, and the samples count
// equals SimulatedRounds.
func TestRunOnceObservedAlwaysRuns(t *testing.T) {
	setSwitch(t, &recheckBills, false)
	net := NewNetwork(pathGraph(9))
	var calls int
	run := relay(net, 2, &calls)
	var b Bill
	if err := net.RunOnce(&b, run); err != nil { // measured while disarmed
		t.Fatal(err)
	}
	rec := NewRoundRecorder(1024, 1)
	net.Observer = rec
	net.ResetAccounting()
	for range 3 {
		if err := net.RunOnce(&b, run); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 4 {
		t.Fatalf("observed network ran the schedule %d of 3 times", calls-1)
	}
	if got, want := rec.Observed(), net.Stats().SimulatedRounds; got != want || got == 0 {
		t.Fatalf("observer saw %d rounds, ledger has %d", got, want)
	}
}

// TestRunOnceFailedRunLeavesBillEmpty checks that a failed run's error is
// returned and that the next call measures again.
func TestRunOnceFailedRunLeavesBillEmpty(t *testing.T) {
	setSwitch(t, &recheckBills, false)
	net := NewNetwork(pathGraph(6))
	var calls int
	run := relay(net, 2, &calls)
	boom := errors.New("boom")
	var b Bill
	if err := net.RunOnce(&b, run); err != nil {
		t.Fatal(err)
	}
	net.Observer = NewRoundRecorder(16, 1) // makes the next call run
	if err := net.RunOnce(&b, func() error { _ = run(); return boom }); !errors.Is(err, boom) {
		t.Fatalf("RunOnce returned %v, want the run's error", err)
	}
	net.Observer = nil
	if err := net.RunOnce(&b, run); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("%d runs, want 3: the call after a failure must measure again", calls)
	}
}

// TestRunOnceRefusesPhases checks that a measured run may not record a
// phase span, which a rebill could not reproduce.
func TestRunOnceRefusesPhases(t *testing.T) {
	setSwitch(t, &recheckBills, false)
	net := NewNetwork(pathGraph(4))
	var b Bill
	err := net.RunOnce(&b, func() error { net.BeginPhase("inner"); net.EndPhase(); return nil })
	if err == nil {
		t.Fatal("a schedule that recorded a phase was billed")
	}
}

// TestRecheckExposesValueDependentSchedule is the check switch's
// self-test: a schedule whose cost changes between runs must make a
// rechecked RunOnce fail, and one whose cost does not must pass.
func TestRecheckExposesValueDependentSchedule(t *testing.T) {
	setSwitch(t, &recheckBills, true)
	net := NewNetwork(pathGraph(7))
	var calls int
	var b Bill
	for range 2 {
		if err := net.RunOnce(&b, relay(net, 2, &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 2 {
		t.Fatalf("rechecked schedule ran %d of 2 times", calls)
	}
	err := net.RunOnce(&b, relay(net, 3, &calls))
	if err == nil || !strings.Contains(err.Error(), "rebilled schedule cost") {
		t.Fatalf("a changed cost gave %v, want a bill mismatch", err)
	}
}
