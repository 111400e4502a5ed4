package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"twoecss/internal/experiments"
)

// families are the instance families every serving workload cycles through.
var families = []string{"er", "grid", "ring", "random", "ba"}

// params sizes the workloads. Tests shrink them; the benchmark always runs
// defaultParams.
type params struct {
	n         int     // instance size of cold, warm and mixed
	clients   int     // closed-loop clients of cold and warm
	warmSeeds int     // warm working set: this many instances per family
	mixedSet  int     // mixed: size of the pre-solved set
	mixedRate float64 // mixed: Poisson arrivals per second
	mixedNew  float64 // mixed: share of arrivals that are fresh instances
	coldRate  float64 // cold: requests per second its input pool must cover
	setupReps int     // set-ups per run at least; setup_s is their median
	setupMax  int     // set-ups per run at most
	replay    int     // inputs in the layer replay's sample
	replayN   int     // instance size of the tables workload's replay sample
	tableSeed int64   // the experiment seed tables regenerates
}

func defaultParams() params {
	return params{
		n: 256,
		// One client: with two, each request's latency also measured how
		// the two CPUs were shared between the clients' solves.
		clients:   1,
		warmSeeds: 128,
		mixedSet:  128,
		mixedRate: 100,
		mixedNew:  0.1,
		coldRate:  200, // one client reaches 60-80 per second
		setupReps: 3,
		setupMax:  7,
		replay:    10,
		replayN:   256,
		// On two CPUs seeds 1-8 regenerate in 0.4-1.5 s, seed 1 in about
		// 0.55 s. Seed 19 fails in E2 ("reverse epoch 1 left edge 23 of F
		// uncovered").
		tableSeed: 1,
	}
}

// sloMS is each workload's latency limit for slo_ok_ratio: 50 ms for cold,
// three to four times a solve's median; 5 ms for warm, about its p99;
// 100 ms for mixed, where at 50 ms the share of hedged solves colliding on
// the two CPUs moved the ratio between runs by a third of its bound; 2 s
// for tables, three to four times a regeneration's median on one CPU.
var sloMS = map[string]float64{
	"cold":   50,
	"warm":   5,
	"mixed":  100,
	"tables": 2000,
}

// workloads lists the workload names in the order BENCHMARK.json gives them.
var workloads = []string{"cold", "warm", "mixed", "tables"}

// bench is a workload after set-up: inputs generated, servers up, warm set
// solved. phases run its timed load; close stops its servers.
type bench interface {
	// run drives one timed phase of length d, taking sp's readings between
	// requests. Phases are numbered from 0 and never reuse an input meant
	// to be fresh.
	run(d time.Duration, phase int, sp *speedometer) ([]sample, time.Duration, error)
	// setTracer makes later phases record spans into tr (nil: none).
	setTracer(tr *tracer)
	// counters reports the serving stack's counts so far; ok is false for
	// a workload without one.
	counters() (c counters, ok bool)
	// replaySample is the fixed sample of inputs the layer replay uses.
	replaySample() []*input
	close() error
	// checks runs the output checks once the servers are stopped; exact is
	// the run's deterministic output (engine cost, table digest).
	checks() (cs []check, exact expectation)
}

// setup prepares workload w. phases is how many timed phases of length d
// the run will drive, which sizes the pools of fresh inputs.
func setup(w string, p params, seed int64, d time.Duration, phases int, tmp string) (bench, error) {
	switch w {
	case "cold":
		return setupCold(p, seed, d, phases, tmp)
	case "warm":
		return setupWarm(p, seed, tmp)
	case "mixed":
		return setupMixed(p, seed, d, phases, tmp)
	case "tables":
		return setupTables(p)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", w, workloads)
}

// serving is the state shared by the workloads that drive a deployment.
type serving struct {
	name string
	dep  *deployment
	res  *results
	reqs atomic.Int64
}

func (s *serving) setTracer(tr *tracer) { s.dep.tracer.Store(tr) }

func (s *serving) counters() (counters, bool) { return s.dep.counters(), true }

func (s *serving) close() error { return s.dep.close() }

// do sends one request of phase and records its result.
func (s *serving) do(phase int, in *input, smp *sample) {
	smp.in = in
	smp.req = fmt.Sprintf("%s-%d-%d", s.name, phase, s.reqs.Add(1))
	if r := s.dep.post(in, smp); r != nil {
		s.res.record(in, r.Result)
	}
}

// presolve solves ins through the deployment during set-up, keeping both
// CPUs' worth of solver workers busy.
func (s *serving) presolve(ins []*input) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for c := 0; c < 2*runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(ins)); i = next.Add(1) - 1 {
				var smp sample
				s.do(-1, ins[i], &smp)
				if !smp.ok {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("pre-solve %s seed %d: %s", ins[i].family, ins[i].seed, smp.err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// cold: every request is a never-seen instance, so every request pays the
// whole solve path.
type cold struct {
	serving
	p      params
	pool   []*input
	next   atomic.Int64
	cached atomic.Int64
}

func setupCold(p params, seed int64, d time.Duration, phases int, tmp string) (bench, error) {
	count := int(p.coldRate*d.Seconds())*phases + 1
	pool, err := generate(roundRobin(families, p.n, count, seed, "cold"))
	if err != nil {
		return nil, err
	}
	dep, err := deploy(tmp, 1, false)
	if err != nil {
		return nil, err
	}
	return &cold{serving: serving{name: "cold", dep: dep, res: newResults()}, p: p, pool: pool}, nil
}

func (b *cold) run(d time.Duration, phase int, sp *speedometer) ([]sample, time.Duration, error) {
	next := func(int) (*input, bool) {
		i := b.next.Add(1) - 1
		if i >= int64(len(b.pool)) {
			return nil, false
		}
		return b.pool[i], true
	}
	// A pool that runs out ends the phase early; throughput stays
	// requests over elapsed time, and the run record shows the short phase.
	smps, el := closedLoop(b.p.clients, d, sp, next, func(s *sample) {
		b.do(phase, s.in, s)
		if s.cached {
			b.cached.Add(1)
		}
	})
	if len(smps) == 0 {
		return nil, 0, fmt.Errorf("cold: the %d-input pool ran out before phase %d", len(b.pool), phase)
	}
	return smps, el, nil
}

func (b *cold) replaySample() []*input { return b.pool[:min(b.p.replay, len(b.pool))] }

// checks reports no exact output: how many instances a cold run solves
// depends on its speed.
func (b *cold) checks() ([]check, expectation) {
	cs, _, _ := b.res.checks()
	cs = append(cs, check{Name: "all_fresh", OK: b.cached.Load() == 0,
		Detail: fmt.Sprintf("%d responses came from a cache", b.cached.Load())})
	return cs, expectation{}
}

// warm: a working set larger than the memory cache, all solved during
// set-up, read uniformly: every request is a hit on one of the two tiers.
type warm struct {
	serving
	p      params
	seed   int64
	set    []*input
	solves int64 // solves during timed phases
}

func setupWarm(p params, seed int64, tmp string) (bench, error) {
	specs := make([]inputSpec, 0, len(families)*p.warmSeeds)
	for _, f := range families {
		for k := 0; k < p.warmSeeds; k++ {
			specs = append(specs, inputSpec{f, p.n, derive(seed, "warm-"+f, k)})
		}
	}
	set, err := generate(specs)
	if err != nil {
		return nil, err
	}
	dep, err := deploy(tmp, 1, false)
	if err != nil {
		return nil, err
	}
	b := &warm{serving: serving{name: "warm", dep: dep, res: newResults()}, p: p, seed: seed, set: set}
	if err := b.presolve(set); err != nil {
		dep.close()
		return nil, err
	}
	return b, nil
}

func (b *warm) run(d time.Duration, phase int, sp *speedometer) ([]sample, time.Duration, error) {
	// The hit path is timed on one CPU. On two, a request's latency also
	// measured the hand-off of the client's and the handler's goroutines
	// between CPUs, and its low percentiles moved by a third between runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rngs := make([]*rand.Rand, b.p.clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(derive(b.seed, "warm-client", phase*1000+c)))
	}
	before, _ := b.counters()
	smps, el := closedLoop(b.p.clients, d, sp, func(c int) (*input, bool) {
		return b.set[rngs[c].Intn(len(b.set))], true
	}, func(s *sample) { b.do(phase, s.in, s) })
	after, _ := b.counters()
	b.solves += after.solves - before.solves
	return smps, el, nil
}

func (b *warm) replaySample() []*input { return spread(b.set, b.p.replay) }

func (b *warm) checks() ([]check, expectation) {
	cs, rounds, msgs := b.res.checks()
	cs = append(cs, check{Name: "zero_solves", OK: b.solves == 0,
		Detail: fmt.Sprintf("%d solves during timed phases", b.solves)})
	return cs, expectation{Rounds: rounds, Messages: msgs}
}

// spread picks k inputs evenly from ins, so a sample covers every family.
func spread(ins []*input, k int) []*input {
	k = min(k, len(ins))
	out := make([]*input, k)
	for i := range out {
		out[i] = ins[i*len(ins)/k]
	}
	return out
}

// mixed: seeded Poisson arrivals through a router over two shards, mostly
// repeats of a pre-solved set plus a share of fresh instances.
type mixed struct {
	serving
	p     params
	pre   []*input
	plans []mixedPlan
}

// mixedPlan is one phase's arrival schedule and the input of each arrival.
type mixedPlan struct {
	due []time.Duration
	ins []*input
}

func setupMixed(p params, seed int64, d time.Duration, phases int, tmp string) (bench, error) {
	pre, err := generate(roundRobin(families, p.n, p.mixedSet, seed, "mixed"))
	if err != nil {
		return nil, err
	}
	plans := make([]mixedPlan, phases)
	var fresh []inputSpec
	var slots []**input // where each fresh input goes once generated
	for ph := range plans {
		rng := rand.New(rand.NewSource(derive(seed, "mixed-arrivals", ph)))
		due := arrivals(rng, int(math.Round(p.mixedRate*d.Seconds())), d)
		ins := make([]*input, len(due))
		for i := range ins {
			// Fresh arrivals are spread evenly through the schedule: drawn
			// at random, their clusters set the tail, and the slo_ok_ratio
			// of runs moved four times as much.
			if int(float64(i+1)*p.mixedNew) > int(float64(i)*p.mixedNew) {
				f := len(fresh)
				fresh = append(fresh, inputSpec{families[f%len(families)], p.n, derive(seed, "mixed-fresh", f)})
				slots = append(slots, &ins[i])
			} else {
				ins[i] = pre[rng.Intn(len(pre))]
			}
		}
		plans[ph] = mixedPlan{due, ins}
	}
	gen, err := generate(fresh)
	if err != nil {
		return nil, err
	}
	for i, slot := range slots {
		*slot = gen[i]
	}
	dep, err := deploy(tmp, 2, true)
	if err != nil {
		return nil, err
	}
	b := &mixed{serving: serving{name: "mixed", dep: dep, res: newResults()}, p: p, pre: pre, plans: plans}
	if err := b.presolve(pre); err != nil {
		dep.close()
		return nil, err
	}
	return b, nil
}

// maxInflight bounds the open loop's outstanding requests; it is far above
// what the arrival rate needs, so only a stalled server ever fills it.
const maxInflight = 512

func (b *mixed) run(d time.Duration, phase int, sp *speedometer) ([]sample, time.Duration, error) {
	plan := b.plans[phase]
	smps, el := openLoop(plan.due, maxInflight, sp, func(i int, s *sample) { b.do(phase, plan.ins[i], s) })
	return smps, el, nil
}

func (b *mixed) replaySample() []*input { return spread(b.pre, b.p.replay) }

func (b *mixed) checks() ([]check, expectation) {
	cs, rounds, msgs := b.res.checks()
	return cs, expectation{Rounds: rounds, Messages: msgs}
}

// tables: the E1-E12 reproduction, regenerated back to back with no HTTP
// for one fixed experiment seed. The seed ignores -seed: one seed's tables
// cost three times another's, so a drawn seed would make the run-to-run
// spread a property of the draw.
type tables struct {
	seed   int64
	tr     *tracer
	first  *expectation // the first regeneration's output
	differ int
	regens int
	sample []*input
}

func setupTables(p params) (bench, error) {
	b := &tables{seed: p.tableSeed}
	if _, err := b.regenerate("tables-setup"); err != nil {
		return nil, err
	}
	// The replay sample is E1's largest instances, which every
	// regeneration solves.
	var specs []inputSpec
	for _, f := range []string{"er", "grid", "ring", "treeleafcycle"} {
		specs = append(specs, inputSpec{f, p.replayN, b.seed})
	}
	var err error
	if b.sample, err = generate(specs); err != nil {
		return nil, err
	}
	return b, nil
}

// regenerate renders every experiment table for the seed exactly as
// `bench -seed SEED` prints them and compares the digest of that output
// and the tables' total engine cost with the first regeneration. It
// records a span per experiment when tracing.
func (b *tables) regenerate(req string) (expectation, error) {
	h := sha256.New()
	var e expectation
	for _, sp := range experiments.Specs() {
		var start int64
		if b.tr != nil {
			start = b.tr.now()
		}
		t, err := sp.Run(b.seed)
		if err != nil {
			return e, fmt.Errorf("%s seed %d: %w", sp.ID, b.seed, err)
		}
		if b.tr != nil {
			b.tr.add("experiments."+sp.ID, req, "", start, b.tr.now())
		}
		io.WriteString(h, t.Render()+"\n")
		e.Rounds += t.Rounds
		e.Messages += t.Messages
	}
	e.Digest = hex.EncodeToString(h.Sum(nil))
	b.regens++
	if b.first == nil {
		b.first = &e
	} else if *b.first != e {
		b.differ++
	}
	return e, nil
}

// run regenerates the tables until d has passed, taking the speedometer's
// readings after each regeneration.
func (b *tables) run(d time.Duration, phase int, sp *speedometer) ([]sample, time.Duration, error) {
	// The regenerations are timed on one CPU, as the speedometer's readings
	// are: with the cell pool on two, their time divided by the readings
	// still spread by 0.09 between runs, on one by 0.03.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var smps []sample
	var due time.Duration // each regeneration is due when the previous one ended
	epoch := time.Now()
	sp.begin(epoch)
	for time.Since(epoch) < d {
		if sp.tick(math.MaxInt) {
			due = time.Since(epoch)
		}
		s := sample{req: fmt.Sprintf("tables-%d-%d", phase, b.regens), due: due, start: time.Since(epoch)}
		var start int64
		if b.tr != nil {
			start = b.tr.now()
		}
		_, err := b.regenerate(s.req)
		if b.tr != nil {
			b.tr.add(spanClient, s.req, "", start, b.tr.now())
		}
		s.end = time.Since(epoch)
		due = s.end
		if s.ok = err == nil; !s.ok {
			s.err = err.Error()
		}
		smps = append(smps, s)
	}
	return smps, time.Since(epoch), nil
}

func (b *tables) setTracer(tr *tracer)       { b.tr = tr }
func (b *tables) counters() (counters, bool) { return counters{}, false }
func (b *tables) replaySample() []*input     { return b.sample }
func (b *tables) close() error               { return nil }

// checks compares every regeneration with the first one and the first with
// the recorded output, which is also the run's exact output.
func (b *tables) checks() ([]check, expectation) {
	cs := []check{{Name: "regenerations_identical", OK: b.differ == 0,
		Detail: fmt.Sprintf("%d of %d regenerations differ from the first", b.differ, b.regens)}}
	want, ok := recorded().Tables[strconv.FormatInt(b.seed, 10)]
	return append(cs, exactCheck(fmt.Sprintf("seed %d", b.seed), *b.first, want, ok)), *b.first
}
