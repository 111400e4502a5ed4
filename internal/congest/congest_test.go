package congest

import (
	"cmp"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"twoecss/internal/graph"
)

func pathGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v-1, v, 1)
	}
	return g
}

func TestRunSimpleRelay(t *testing.T) {
	// Token travels along a path; rounds must equal path length.
	n := 10
	g := pathGraph(n)
	net := NewNetwork(g)
	arrived := Word(-1)
	sent := make([]bool, n)
	handler := func(v int, inbox []Msg) bool {
		if v == 0 && !sent[0] {
			sent[0] = true
			net.Send(0, 0, 42)
			return false
		}
		for _, m := range inbox {
			if v == n-1 {
				arrived = net.Words(m)[0]
				return false
			}
			if !sent[v] {
				sent[v] = true
				net.Send(v, v, net.Words(m)...)
				return false
			}
		}
		return false
	}
	if err := net.Run(handler, []int{0}, 100); err != nil {
		t.Fatal(err)
	}
	if arrived != 42 {
		t.Fatalf("token = %d", arrived)
	}
	// n-1 relay rounds plus the final round in which the endpoint
	// processes its inbox.
	if r := net.Stats().SimulatedRounds; r != int64(n) {
		t.Fatalf("rounds = %d, want %d", r, n)
	}
}

func TestRunBandwidthViolation(t *testing.T) {
	g := pathGraph(2)
	net := NewNetwork(g)
	net.WordsPerEdge = 2
	handler := func(v int, inbox []Msg) bool {
		if v == 0 {
			net.Send(0, 0, 1, 2, 3)
		}
		return false
	}
	err := net.Run(handler, []int{0}, 10)
	var bw *ErrBandwidth
	if !errors.As(err, &bw) {
		t.Fatalf("err = %v, want ErrBandwidth", err)
	}
}

func TestRunRejectsForgery(t *testing.T) {
	g := pathGraph(3)
	net := NewNetwork(g)
	// Node 0's handler sends as node 1, its neighbour on edge 0.
	handler := func(v int, inbox []Msg) bool {
		if v == 0 {
			net.Send(1, 0, 1)
		}
		return false
	}
	if err := net.Run(handler, []int{0}, 10); err == nil || !strings.Contains(err.Error(), "node 0 forged sender 1") {
		t.Fatalf("forged sender: err = %v", err)
	}
	handler2 := func(v int, inbox []Msg) bool {
		if v == 0 {
			net.Send(0, 1, 1)
		}
		return false
	}
	if err := net.Run(handler2, []int{0}, 10); err == nil || !strings.Contains(err.Error(), "non-incident edge 1") {
		t.Fatalf("non-incident edge: err = %v", err)
	}
}

// TestSendOutsideHandlerPanics checks that a Send with no handler running
// panics and says why, before the first Run and after one.
func TestSendOutsideHandlerPanics(t *testing.T) {
	net := NewNetwork(pathGraph(2))
	send := func(when string) {
		t.Helper()
		defer func() {
			if s, _ := recover().(string); !strings.Contains(s, "outside a handler") {
				t.Fatalf("Send %s: panic %q, want one saying it ran outside a handler", when, s)
			}
		}()
		net.Send(0, 0, 1)
	}
	send("before any Run")
	if err := net.Run(func(int, []Msg) bool { return false }, nil, 10); err != nil {
		t.Fatal(err)
	}
	send("after a Run")
}

// TestMsgIsPointerFree guards the message layout: 16 bytes of integers, so
// copying a Msg pays no GC write barrier and the GC never scans an inbox.
func TestMsgIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(Msg{}); size != 16 {
		t.Fatalf("Msg is %d bytes, want 16", size)
	}
	typ := reflect.TypeFor[Msg]()
	for i := range typ.NumField() {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
		default:
			t.Errorf("Msg.%s is a %s, want an integer", f.Name, f.Type.Kind())
		}
	}
}

func TestRunMaxRounds(t *testing.T) {
	g := pathGraph(2)
	net := NewNetwork(g)
	handler := func(v int, inbox []Msg) bool { return true } // spin forever
	if err := net.Run(handler, nil, 5); err == nil {
		t.Fatal("non-terminating program accepted")
	}
}

func TestChargeAndPhases(t *testing.T) {
	net := NewNetwork(pathGraph(2))
	net.BeginPhase("setup")
	if err := net.Charge(17, "test"); err != nil {
		t.Fatal(err)
	}
	net.EndPhase()
	if err := net.Charge(-1, "bad"); err == nil {
		t.Fatal("negative charge accepted")
	}
	ph := net.Phases()
	if len(ph) != 1 || ph[0].Name != "setup" || ph[0].Charged != 17 {
		t.Fatalf("phases = %+v", ph)
	}
	if net.Stats().TotalRounds() != 17 {
		t.Fatalf("total = %d", net.Stats().TotalRounds())
	}

	// Nested phases: spans are recorded in open order, an enclosing span
	// bills everything nested in it, and words are attributed like rounds.
	net = NewNetwork(pathGraph(3))
	ping := func(v int, inbox []Msg) bool {
		if v == 0 && inbox == nil {
			net.Send(0, 0, 1, 2, 3)
		}
		return false
	}
	net.BeginPhase("stage")
	if err := net.Charge(5, "setup"); err != nil {
		t.Fatal(err)
	}
	net.BeginPhase("epoch 1")
	if err := net.Run(ping, []int{0}, 10); err != nil {
		t.Fatal(err)
	}
	net.EndPhase()
	net.BeginPhase("epoch 2")
	if err := net.Charge(2, "scan"); err != nil {
		t.Fatal(err)
	}
	net.EndPhase()
	net.EndPhase()
	net.EndPhase() // unbalanced end: a no-op
	st := net.Stats()
	want := []PhaseSpan{
		{Name: "stage", Depth: 0, Simulated: st.SimulatedRounds, Charged: 7, Messages: 1, Words: 3},
		{Name: "epoch 1", Depth: 1, Simulated: st.SimulatedRounds, Messages: 1, Words: 3},
		{Name: "epoch 2", Depth: 1, Charged: 2},
	}
	if ph := net.Phases(); !slices.Equal(ph, want) || st.SimulatedRounds == 0 {
		t.Fatalf("nested phases = %+v, want %+v", ph, want)
	}

	// ResetAccounting clears spans and an unbalanced open stack: the next
	// phase is outermost again.
	net.BeginPhase("aborted")
	net.BeginPhase("aborted epoch")
	net.ResetAccounting()
	net.BeginPhase("fresh")
	if err := net.Charge(1, "x"); err != nil {
		t.Fatal(err)
	}
	net.EndPhase()
	if ph := net.Phases(); !slices.Equal(ph, []PhaseSpan{{Name: "fresh", Charged: 1}}) {
		t.Fatalf("phases after reset = %+v", ph)
	}
}

func TestAnalyticBills(t *testing.T) {
	if KuttenPelegMSTRounds(100, 5) <= 0 || LCALabelRounds(100, 5) <= 0 ||
		SegmentDecompositionRounds(100, 5) <= 0 || LayeringRounds(100, 5) <= 0 {
		t.Fatal("bills must be positive")
	}
	// sqrt scaling: quadrupling n roughly doubles the sqrt term.
	a := KuttenPelegMSTRounds(100, 0)
	b := KuttenPelegMSTRounds(400, 0)
	if b < 3*a/2 || b > 3*a {
		t.Fatalf("sqrt scaling off: %d -> %d", a, b)
	}
}

// setSwitch turns one of the congestcheck build's switches on or off for
// the rest of the test.
func setSwitch(t *testing.T, sw *bool, on bool) {
	t.Helper()
	old := *sw
	*sw = on
	t.Cleanup(func() { *sw = old })
}

// TestParallelDeterminism runs a seeded gossip in ascending and in
// permuted handler order. Its handlers keep to their own node's state, so
// both orders must give identical Stats and final node state. Every node
// folds its inbox into an order-sensitive hash, so any change in inbox
// order or content fails the test.
func TestParallelDeterminism(t *testing.T) {
	const rounds = 40
	run := func(permuted bool) (Stats, []int64) {
		setSwitch(t, &permuteSchedule, permuted)
		g := graph.RandomSpanningTreePlus(300, 600, graph.DefaultGenConfig(7))
		net := NewNetwork(g)
		state := make([]int64, g.N)
		left := make([]int, g.N)
		for v := range left {
			left[v] = rounds
			state[v] = int64(v)*2654435761 + 1
		}
		handler := func(v int, inbox []Msg) bool {
			for _, m := range inbox {
				// Order-sensitive mix: swapping two inbox entries
				// changes the result.
				state[v] = state[v]*1000003 + net.Words(m)[0]*31 + int64(m.From)
			}
			if left[v] == 0 {
				return false
			}
			left[v]--
			for _, id := range g.Incident(v) {
				net.Send(v, id, state[v]&0xffff)
			}
			return left[v] > 0
		}
		if err := net.Run(handler, nil, rounds+10); err != nil {
			t.Fatal(err)
		}
		return net.Stats(), state
	}
	ascStats, ascState := run(false)
	permStats, permState := run(true)
	if ascStats != permStats {
		t.Fatalf("stats diverge:\n ascending %+v\n permuted  %+v", ascStats, permStats)
	}
	if !slices.Equal(ascState, permState) {
		t.Fatal("node state depends on handler order")
	}
	if ascStats.Messages == 0 {
		t.Fatal("workload sent no messages")
	}
}

// TestPermutedOrderExposesNonLocalHandler is the check's self-test: a
// handler that reads a neighbour's state written in the same round must
// give a different result under the permutation than in ascending order.
// If the permutation ever became a no-op, this test would fail.
func TestPermutedOrderExposesNonLocalHandler(t *testing.T) {
	run := func(permuted bool) []int64 {
		setSwitch(t, &permuteSchedule, permuted)
		g := pathGraph(100)
		net := NewNetwork(g)
		depth := make([]int64, g.N)
		handler := func(v int, inbox []Msg) bool {
			if v > 0 {
				depth[v] = depth[v-1] + 1 // breaks locality: reads node v-1
			}
			return false
		}
		if err := net.Run(handler, nil, 10); err != nil {
			t.Fatal(err)
		}
		return depth
	}
	asc, perm := run(false), run(true)
	if asc[len(asc)-1] != int64(len(asc)-1) {
		t.Fatalf("ascending order: depth of the last node %d, want %d", asc[len(asc)-1], len(asc)-1)
	}
	if slices.Equal(asc, perm) {
		t.Fatal("permuted handler order gave the ascending result for a non-local handler")
	}
}

// TestPoisonExposesRetainedPayload is the arena poison's self-test: a
// handler that keeps a payload slice and reads it a round after it arrived
// must give a different result with the poison on than with it off. If
// the poison ever became a no-op, this test would fail.
func TestPoisonExposesRetainedPayload(t *testing.T) {
	run := func(poison bool) []Word {
		setSwitch(t, &poisonArena, poison)
		g := pathGraph(10)
		net := NewNetwork(g)
		kept := make([][]Word, g.N)
		got := make([]Word, g.N)
		handler := func(v int, inbox []Msg) bool {
			switch {
			case kept[v] != nil:
				got[v] = kept[v][0] // breaks the rule: the payload's round has ended
				kept[v] = nil
			case inbox != nil:
				kept[v] = net.Words(inbox[0])
				return true
			case v+1 < g.N:
				net.Send(v, v, Word(v+1))
			}
			return false
		}
		if err := net.Run(handler, nil, 10); err != nil {
			t.Fatal(err)
		}
		return got
	}
	clean, poisoned := run(false), run(true)
	for v := 1; v < len(clean); v++ {
		if clean[v] != Word(v) {
			t.Fatalf("without poison: node %d read %d, want %d", v, clean[v], v)
		}
	}
	if slices.Equal(clean, poisoned) {
		t.Fatal("poisoned arena gave the clean result for a handler that keeps a payload")
	}
}

// TestParallelErrorDeterminism guards the error contract: when several
// scheduled nodes misbehave in the same round, the reported error must be
// the one with the smallest (sender, send index), validation errors before
// bandwidth errors, in ascending and in permuted handler order. A node's
// sends after its validation error are dropped, so they are neither
// billed nor counted.
func TestParallelErrorDeterminism(t *testing.T) {
	const n = 100
	five := []Word{1, 2, 3, 4, 5}
	for _, tc := range []struct {
		name     string
		badat    [2]int
		bad      func(net *Network, v int) // the sends of the two misbehaving nodes
		wantSub  string
		messages int64 // delivered in the failing round
	}{
		{
			name:  "forged-sender",
			badat: [2]int{10, 90},
			bad: func(net *Network, v int) {
				net.Send(v, v, 1)
				net.Send(v+1, v, 1) // send index 1: forged
				net.Send(v, v-1, 1) // dropped
			},
			wantSub:  "node 10 forged sender 11",
			messages: 2,
		},
		{
			name:  "bandwidth",
			badat: [2]int{20, 70},
			bad: func(net *Network, v int) {
				net.Send(v, v, five...)
				net.Send(v, v, five...)               // send index 1: 10 words
				net.Send(v, v-1, make([]Word, 99)...) // send index 2: 99 words
			},
			wantSub:  "10 words from vertex 20",
			messages: 6,
		},
		{
			name:  "validation-before-bandwidth",
			badat: [2]int{20, 70},
			bad: func(net *Network, v int) {
				if v == 20 {
					net.Send(v, v, make([]Word, 99)...)
				} else {
					net.Send(v, v+5, 1)
				}
			},
			wantSub:  "node 70 sent on non-incident edge 75",
			messages: 1,
		},
	} {
		var errs [2]error
		for i, permuted := range []bool{false, true} {
			setSwitch(t, &permuteSchedule, permuted)
			g := pathGraph(n)
			net := NewNetwork(g)
			handler := func(v int, inbox []Msg) bool {
				if v == tc.badat[0] || v == tc.badat[1] {
					tc.bad(net, v)
				}
				return false
			}
			errs[i] = net.Run(handler, nil, 10)
			if errs[i] == nil {
				t.Fatalf("%s permuted=%v: no error", tc.name, permuted)
			}
			if got := net.Stats().Messages; got != tc.messages {
				t.Fatalf("%s permuted=%v: %d messages delivered, want %d", tc.name, permuted, got, tc.messages)
			}
		}
		if errs[0].Error() != errs[1].Error() {
			t.Fatalf("%s: error depends on handler order:\n ascending: %v\n permuted:  %v",
				tc.name, errs[0], errs[1])
		}
		if !strings.Contains(errs[0].Error(), tc.wantSub) {
			t.Fatalf("%s: got %v, want error mentioning %q", tc.name, errs[0], tc.wantSub)
		}
	}
}

// TestRunRecyclesAcrossCalls checks that repeated Runs on one Network reuse
// engine buffers — a warmed-up Run must be allocation-free — and keep
// accumulating stats correctly.
func TestRunRecyclesAcrossCalls(t *testing.T) {
	g := pathGraph(8)
	net := NewNetwork(g)
	sent := false
	runs := 0
	handler := func(v int, inbox []Msg) bool {
		if v == 0 && !sent {
			sent = true
			net.Send(0, 0, 9)
		}
		return false
	}
	run := func() {
		sent = false
		runs++
		if err := net.Run(handler, []int{0}, 100); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up the scratch buffers
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("steady-state Run allocated %.1f objects, want 0", allocs)
	}
	if got := net.Stats().Messages; got != int64(runs) {
		t.Fatalf("messages = %d, want %d", got, runs)
	}
	if got := net.Stats().SimulatedRounds; got != int64(2*runs) {
		t.Fatalf("rounds = %d, want %d", got, 2*runs)
	}
}

// TestWorklistAscendingDenseAndSparse alternates dense rounds (a hub
// messages every leaf, in descending order) with sparse ones (the hub
// messages three leaves, in descending order). Either way the next
// worklist's bits are set out of order: the active hub, the highest id,
// first. Handlers must still run in strictly ascending node order in every
// round, however many nodes it schedules.
func TestWorklistAscendingDenseAndSparse(t *testing.T) {
	if permuteSchedule {
		t.Skip("the congestcheck build runs handlers in permuted order")
	}
	const n = 256
	hub := n - 1
	g := graph.New(n)
	for v := 0; v < hub; v++ {
		g.MustAddEdge(v, hub, 1) // edge v joins leaf v to the hub
	}
	net := NewNetwork(g)
	const lastSend = 9
	var ran [][]int // ran[r-1] lists the handler calls of round r in order
	handler := func(v int, inbox []Msg) bool {
		r := int(net.Stats().SimulatedRounds)
		for len(ran) < r {
			ran = append(ran, nil)
		}
		ran[r-1] = append(ran[r-1], v)
		if v != hub || r > lastSend {
			return false
		}
		if r%2 == 0 {
			for leaf := hub - 1; leaf >= 0; leaf-- {
				net.Send(hub, leaf, 1)
			}
		} else {
			for _, leaf := range []int{9, 5, 1} {
				net.Send(hub, leaf, 1)
			}
		}
		return true
	}
	if err := net.Run(handler, nil, 100); err != nil {
		t.Fatal(err)
	}
	dense, sparse := 0, 0
	for i, vs := range ran {
		for j := 1; j < len(vs); j++ {
			if vs[j] <= vs[j-1] {
				t.Fatalf("round %d ran handlers out of order: %v", i+1, vs)
			}
		}
		if len(vs) >= 16 {
			dense++
		} else {
			sparse++
		}
	}
	// Round 1 schedules all nodes; then sparse (4 nodes) and dense (n
	// nodes) rounds alternate until the hub goes quiet.
	if len(ran) != lastSend+1 || dense < 4 || sparse < 4 {
		t.Fatalf("got %d rounds (%d dense, %d sparse), want %d rounds mixing both",
			len(ran), dense, sparse, lastSend+1)
	}
	if len(ran[1]) != 4 || len(ran[2]) != n {
		t.Fatalf("rounds 2 and 3 ran %d and %d handlers, want 4 and %d", len(ran[1]), len(ran[2]), n)
	}
}

// TestInboxOrderOverParallelEdges checks the inbox order contract on a
// multigraph: (From, EdgeID) ascending, and messages on one edge in their
// sender's send order. Two senders each reach the receiver over three
// parallel edges and send in descending edge order, twice on the middle
// edge. In the large variant every node runs in round 1 and the rest flood
// the path; the receiver runs after the senders in that round (in
// ascending order) and must not see their messages until round 2. In the
// small variant only the senders run. Both variants also run in permuted
// handler order, where senders deliver out of order.
func TestInboxOrderOverParallelEdges(t *testing.T) {
	const n, recv = 128, 100
	senders := []int{3, 7}
	// sent is one message as its sender sent it or its receiver read it.
	type sent struct {
		edge, from int
		tag        Word
	}
	for _, large := range []bool{true, false} {
		for _, permuted := range []bool{false, true} {
			setSwitch(t, &permuteSchedule, permuted)
			g := pathGraph(n) // edge v-1 joins v-1 and v
			par := map[int][]int{}
			for _, s := range senders {
				for k := 0; k < 3; k++ {
					par[s] = append(par[s], g.MustAddEdge(s, recv, 1))
				}
			}
			net := NewNetwork(g)
			outs := make([][]sent, n)
			var got [][]sent // got[r-1] is the receiver's inbox in round r
			handler := func(v int, inbox []Msg) bool {
				r := int(net.Stats().SimulatedRounds)
				if v == recv {
					for len(got) < r {
						got = append(got, nil)
					}
					for _, m := range inbox {
						got[r-1] = append(got[r-1], sent{int(m.EdgeID), int(m.From), net.Words(m)[0]})
					}
				}
				if r != 1 {
					return false
				}
				send := func(id int) {
					tag := Word(v*100 + len(outs[v]))
					net.Send(v, id, tag)
					outs[v] = append(outs[v], sent{id, v, tag})
				}
				if ids := par[v]; ids != nil {
					send(ids[2])
					send(ids[1])
					send(ids[1])
					send(ids[0])
				} else if large && v != recv {
					for _, id := range g.Incident(v) {
						send(id)
						send(id)
					}
				}
				return false
			}
			start := senders
			if large {
				start = nil
			}
			if err := net.Run(handler, start, 10); err != nil {
				t.Fatal(err)
			}
			// The reference order: every message to the receiver, senders
			// ascending and each in send order, stably sorted.
			us, vs := g.Endpoints()
			var want []sent
			for _, out := range outs {
				for _, m := range out {
					if int(us[m.edge]+vs[m.edge])-m.from == recv {
						want = append(want, m)
					}
				}
			}
			slices.SortStableFunc(want, func(a, b sent) int {
				return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.edge, b.edge))
			})
			if len(got) < 2 || len(got[0]) != 0 {
				t.Fatalf("large=%v permuted=%v: receiver inboxes %v, want an empty one in round 1 and then its messages", large, permuted, got)
			}
			if !slices.Equal(got[1], want) {
				t.Fatalf("large=%v permuted=%v: inbox\n %v\nwant\n %v", large, permuted, got[1], want)
			}
			if len(want) < 8 {
				t.Fatalf("large=%v permuted=%v: only %d messages to the receiver", large, permuted, len(want))
			}
		}
	}
}

func TestIsqrt(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{
		{-5, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 2},
		{5, 3},
		{8, 3},
		{9, 3},
		{10, 4},
		{15, 4},
		{16, 4},
		{17, 5},
		{24, 5},
		{25, 5},
		{26, 6},
		{1 << 20, 1 << 10},
		{(1 << 20) + 1, (1 << 10) + 1},
		{(1 << 31) - 1, 46341},
		{1 << 62, 1 << 31},
		{(1 << 62) - 1, 1 << 31},
		{(1 << 62) + 1, (1 << 31) + 1},
	}
	for _, c := range cases {
		if got := isqrt(c.n); got != c.want {
			t.Errorf("isqrt(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// Exhaustive cross-check against the seed's counting loop on a dense
	// small range plus the perfect squares around every power of two.
	slow := func(n int) int64 {
		if n <= 0 {
			return 0
		}
		x := int64(1)
		for x*x < int64(n) {
			x++
		}
		return x
	}
	for n := 0; n <= 1<<12; n++ {
		if got, want := isqrt(n), slow(n); got != want {
			t.Fatalf("isqrt(%d) = %d, want %d", n, got, want)
		}
	}
	for k := 1; k <= 30; k++ {
		r := int64(1) << k
		for _, n := range []int64{r*r - 1, r * r, r*r + 1} {
			want := r
			if n > r*r {
				want = r + 1
			}
			if n == r*r-1 {
				want = r
			}
			if got := isqrt(int(n)); got != want {
				t.Fatalf("isqrt(%d) = %d, want %d", n, got, want)
			}
		}
	}
}
