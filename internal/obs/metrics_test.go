package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestRegistryExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ecss_test_seconds", "A histogram.", []float64{0.1, 1, 10}, L("stage", "bfs"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100)
	r.Collect(func(emit func(Sample)) {
		emit(Sample{Name: "ecss_test_total", Help: "A counter.", Type: "counter", Value: 3})
		emit(Sample{Name: "ecss_test_classed_total", Help: "Classed counter.", Type: "counter", Value: 1, Labels: []Label{L("class", "interactive")}})
		emit(Sample{Name: "ecss_test_classed_total", Help: "Classed counter.", Type: "counter", Value: 2, Labels: []Label{L("class", "batch")}})
		emit(Sample{Name: "ecss_test_depth", Help: "A gauge.", Type: "gauge", Value: 7.5})
		emit(Sample{Name: "ecss_test_collected", Help: "Scrape-time sample.", Type: "gauge", Value: 42, Labels: []Label{L("shard", `http://s1:8081`)}})
		emit(Sample{Name: "ecss_test_escaped", Help: "quote \" backslash \\ newline.", Type: "gauge", Value: 1, Labels: []Label{L("v", "a\"b\\c\nd")}})
	})

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	doc := rec.Body.String()

	for _, want := range []string{
		"# TYPE ecss_test_total counter",
		"ecss_test_total 3",
		`ecss_test_classed_total{class="batch"} 2`,
		`ecss_test_classed_total{class="interactive"} 1`,
		"ecss_test_depth 7.5",
		"# TYPE ecss_test_seconds histogram",
		`ecss_test_seconds_bucket{le="0.1",stage="bfs"} 1`,
		`ecss_test_seconds_bucket{le="1",stage="bfs"} 2`,
		`ecss_test_seconds_bucket{le="+Inf",stage="bfs"} 3`,
		`ecss_test_seconds_count{stage="bfs"} 3`,
		`ecss_test_collected{shard="http://s1:8081"} 42`,
	} {
		if !strings.Contains(doc, want) {
			t.Fatalf("exposition missing %q:\n%s", want, doc)
		}
	}

	st, err := ValidateExposition(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("own exposition does not validate: %v\n%s", err, doc)
	}
	if st.Families < 6 || st.Samples < 10 {
		t.Fatalf("validator saw %d families / %d samples", st.Families, st.Samples)
	}
}

func TestValidatorRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"metric with spaces 1\n",
		"name{label=\"unterminated} 1\n",
		"name{label=\"v\"} notanumber\n",
		"2leadingdigit 1\n",
		"name{9bad=\"v\"} 1\n",
		"# TYPE name nonsense\n",
		"name 1\n# TYPE name counter\n",
		"# TYPE name counter\n# TYPE name counter\n",
		"name{l=\"bad escape \\q\"} 1\n",
	} {
		if _, err := ValidateExposition([]byte(bad)); err == nil {
			t.Errorf("validator accepted %q", bad)
		}
	}
	good := "# HELP m doc\n# TYPE m histogram\nm_bucket{le=\"+Inf\"} 3\nm_sum 1.5\nm_count 3\nplain 4 1700000000\n"
	if _, err := ValidateExposition([]byte(good)); err != nil {
		t.Errorf("validator rejected valid doc: %v", err)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ecss_conc_seconds", "h", nil)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if n := h.count.Load(); n != 4000 {
		t.Fatalf("histogram count %d, want 4000", n)
	}
	if sum := math.Float64frombits(h.sumBits.Load()); math.Abs(sum-4) > 1e-9 {
		t.Fatalf("histogram sum %v, want 4", sum)
	}
}
