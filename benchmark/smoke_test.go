package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"twoecss/internal/ecss"
	"twoecss/internal/service"
)

// tinyParams shrinks every workload so each runs in about a second.
func tinyParams() params {
	return params{n: 24, clients: 2, warmSeeds: 4, mixedSet: 8, mixedRate: 40, mixedNew: 0.25,
		coldRate: 5000, setupReps: 2, setupMax: 2, replay: 3, replayN: 24, tableSeed: 3}
}

func metricNames(ms []bound) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// parseOutput splits a run's standard output into its metric lines
// (metric -> unit) and its result line.
func parseOutput(t *testing.T, w string, out string) (map[string]string, map[string]json.RawMessage) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	units := make(map[string]string)
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		if len(f) != 4 || f[0] != w {
			t.Fatalf("metric line %q is not \"workload metric value unit\"", l)
		}
		units[f[1]] = f[3]
	}
	var result map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &result); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	keys := make([]string, 0, len(result))
	for k := range result {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !slices.Equal(keys, want) {
		t.Fatalf("result line keys %v, want %v", keys, want)
	}
	return units, result
}

func resultMetrics(t *testing.T, result map[string]json.RawMessage) map[string]metric {
	t.Helper()
	var ms map[string]metric
	if err := json.Unmarshal(result["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	return ms
}

// Every workload, traced, at tiny sizes: it must pass its output checks,
// print every metric BENCHMARK.json defines with its unit, end with the
// result line carrying exactly the per-layer metrics, and write a span file
// whose spans are linked to their parents.
func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	def, err := loadDefinition("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var defined []string
	for _, w := range def.Workloads {
		defined = append(defined, w.Name)
	}
	if !slices.Equal(defined, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program workloads %v", defined, workloads)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			dir := t.TempDir()
			spans := filepath.Join(dir, "spans.json")
			rec, err := execute(config{workload: w, seed: 3, seconds: 0.3, trace: true, workdir: dir, spans: spans, p: tinyParams()})
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d checks=%+v first error %q",
					rec.Correct, rec.Attempted, rec.Failed, rec.Checks, rec.FirstError)
			}
			var out bytes.Buffer
			if err := printRecord(&out, rec); err != nil {
				t.Fatal(err)
			}
			units, result := parseOutput(t, w, out.String())
			for _, m := range append(slices.Clone(def.EndToEnd), def.PerLayer...) {
				if u, ok := units[m.Name]; !ok || u != m.Unit {
					t.Errorf("metric %s printed with unit %q, BENCHMARK.json says %q", m.Name, u, m.Unit)
				}
			}
			// A ratio may legitimately be 0 here (a slow -race build misses
			// every latency limit); every other end-to-end metric is never 0.
			for _, m := range def.EndToEnd {
				if v := rec.EndToEnd[m.Name].Value; !(v > 0) && m.Unit != "ratio" {
					t.Errorf("end-to-end metric %s = %v; end-to-end metrics are never 0", m.Name, v)
				}
			}
			got := resultMetrics(t, result)
			var keys []string
			for k := range got {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if want := metricNames(def.PerLayer); !slices.Equal(keys, want) {
				t.Errorf("traced result line has metrics %v, want the per-layer set %v", keys, want)
			}

			buf, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var sf struct{ Spans []span }
			if err := json.Unmarshal(buf, &sf); err != nil {
				t.Fatal(err)
			}
			if len(sf.Spans) == 0 {
				t.Fatal("no spans recorded")
			}
			for _, s := range sf.Spans {
				if (s.Parent == 0) != (s.Name == spanClient) || s.End < s.Start || s.Req == "" {
					t.Fatalf("badly linked span %+v", s)
				}
			}
		})
	}
}

// An untraced run's result line carries exactly the end-to-end metrics.
func TestUntracedResultLineIsEndToEnd(t *testing.T) {
	def, err := loadDefinition("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rec, err := execute(config{workload: "cold", seed: 1, seconds: 0.2, workdir: dir, p: tinyParams()})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := printRecord(&out, rec); err != nil {
		t.Fatal(err)
	}
	_, result := parseOutput(t, "cold", out.String())
	var keys []string
	for k := range resultMetrics(t, result) {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := metricNames(def.EndToEnd); !slices.Equal(keys, want) {
		t.Fatalf("untraced result line has metrics %v, want %v", keys, want)
	}
}

func TestInputsFollowFromSeed(t *testing.T) {
	gen := func(seed int64) [][]byte {
		ins, err := generate(roundRobin(families, 24, 10, seed, "test"))
		if err != nil {
			t.Fatal(err)
		}
		var out [][]byte
		for _, in := range ins {
			out = append(out, in.body)
		}
		return out
	}
	a, b, c := gen(5), gen(5), gen(6)
	if !slices.EqualFunc(a, b, bytes.Equal) {
		t.Fatal("the same seed generated different inputs")
	}
	if slices.EqualFunc(a, c, bytes.Equal) {
		t.Fatal("different seeds generated the same inputs")
	}
}

// The result check must reject a served result that is not a 2-ECSS of
// its instance, or names an edge the instance does not have.
func TestVerifyRejectsBrokenResults(t *testing.T) {
	ins, err := generate([]inputSpec{{"ring", 16, 4}})
	if err != nil {
		t.Fatal(err)
	}
	in := ins[0]
	g, err := graphOf(in)
	if err != nil {
		t.Fatal(err)
	}
	res, net, err := ecss.Solve(g, ecss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	net.Close()
	wire := service.ResultWire{Weight: res.Weight}
	for _, id := range res.Edges {
		e := g.Edges[id]
		wire.Edges = append(wire.Edges, [3]int64{int64(min(e.U, e.V)), int64(max(e.U, e.V)), e.W})
	}
	enc := func(rw service.ResultWire) []byte {
		b, err := json.Marshal(rw)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if _, err := verify(in, enc(wire)); err != nil {
		t.Fatalf("a correct result was rejected: %v", err)
	}
	short := wire
	short.Edges = wire.Edges[:1]
	short.Weight = wire.Edges[0][2]
	if _, err := verify(in, enc(short)); err == nil {
		t.Error("a result that does not span the instance passed")
	}
	foreign := wire
	foreign.Edges = slices.Clone(wire.Edges)
	foreign.Edges[0][2]++
	if _, err := verify(in, enc(foreign)); err == nil {
		t.Error("a result naming an edge the instance lacks passed")
	}
}
