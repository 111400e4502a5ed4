package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestSLOBurnRateWindows(t *testing.T) {
	reg := NewRegistry()
	s := NewSLO(reg, "solve-latency", 0.99)
	now := time.Unix(1_700_000_000, 0)
	s.nowFunc = func() time.Time { return now }

	// 99 good + 1 bad: the error ratio equals the budget, burn rate 1.
	for i := 0; i < 99; i++ {
		s.Observe(true)
	}
	s.Observe(false)
	if br := s.BurnRate(5 * time.Minute); math.Abs(br-1.0) > 1e-9 {
		t.Fatalf("burn rate %.4f, want 1.0", br)
	}

	// An all-bad burst burns at 1/budget = 100x.
	for i := 0; i < 100; i++ {
		s.Observe(false)
	}
	if br := s.BurnRate(5 * time.Minute); math.Abs(br-50.5) > 1e-9 {
		t.Fatalf("burn rate after burst %.4f, want 50.5", br)
	}

	// Ten minutes later the 5m window has forgotten the burst; the 30m
	// window still remembers it.
	now = now.Add(10 * time.Minute)
	s.Observe(true)
	if br := s.BurnRate(5 * time.Minute); br != 0 {
		t.Fatalf("5m burn rate %.4f after quiet period, want 0", br)
	}
	if br := s.BurnRate(30 * time.Minute); br < 25 {
		t.Fatalf("30m burn rate %.4f, want the burst still visible (>=25)", br)
	}

	// The exposition carries every default window, and the 5m window reads
	// clean while the others do not.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, want := range []string{
		`ecss_slo_error_ratio{slo="solve-latency",window="5m"} 0` + "\n",
		`ecss_slo_burn_rate{slo="solve-latency",window="5m"} 0` + "\n",
		`ecss_slo_error_ratio{slo="solve-latency",window="30m"} 0.5`,
		`ecss_slo_burn_rate{slo="solve-latency",window="30m"} 50.2`,
		`ecss_slo_error_ratio{slo="solve-latency",window="6h"} 0.5`,
		`ecss_slo_burn_rate{slo="solve-latency",window="6h"} 50.2`,
	} {
		if !strings.Contains(doc, want) {
			t.Fatalf("exposition missing %q:\n%s", want, doc)
		}
	}
	if _, err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("SLO exposition does not validate: %v", err)
	}

	// Past the 30m window only the 6h window remembers; past 6h all are
	// clean.
	now = now.Add(30 * time.Minute)
	if br := s.BurnRate(30 * time.Minute); br != 0 {
		t.Fatalf("30m burn rate %.4f after expiry, want 0", br)
	}
	if br := s.BurnRate(6 * time.Hour); br < 25 {
		t.Fatalf("6h burn rate %.4f, want the burst still visible (>=25)", br)
	}
	now = now.Add(6 * time.Hour)
	if br := s.BurnRate(6 * time.Hour); br != 0 {
		t.Fatalf("6h burn rate %.4f after expiry, want 0", br)
	}
}

func TestSLOObserveLatencyAndClamp(t *testing.T) {
	s := NewSLO(nil, "lat", 1.5) // invalid objective clamps to 0.999
	now := time.Unix(1_700_000_000, 0)
	s.nowFunc = func() time.Time { return now }
	s.ObserveLatency(10*time.Millisecond, 100*time.Millisecond) // good
	s.ObserveLatency(200*time.Millisecond, 100*time.Millisecond)
	s.ObserveLatency(300*time.Millisecond, 100*time.Millisecond)
	// Two bad of three against the clamped 0.1% budget.
	ratio := 2.0 / 3.0
	want := ratio / (1 - 0.999)
	if br := s.BurnRate(5 * time.Minute); math.Abs(br-want) > 1e-9 {
		t.Fatalf("burn rate %.2f, want %.2f", br, want)
	}
}

func TestWindowLabel(t *testing.T) {
	cases := map[time.Duration]string{
		5 * time.Minute:  "5m",
		30 * time.Minute: "30m",
		6 * time.Hour:    "6h",
		time.Hour:        "1h",
		90 * time.Second: "1m30s",
	}
	for d, want := range cases {
		if got := windowLabel(d); got != want {
			t.Fatalf("windowLabel(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestSumSeriesAndExpoSeriesNames(t *testing.T) {
	doc := []byte(strings.Join([]string{
		`# HELP ecss_engine_rounds_total engine rounds`,
		`# TYPE ecss_engine_rounds_total counter`,
		`ecss_engine_rounds_total{kind="simulated",shard="a"} 120`,
		`ecss_engine_rounds_total{kind="simulated",shard="b"} 30`,
		`ecss_engine_rounds_total{kind="charged",shard="a"} 7`,
		`# TYPE ecss_solve_seconds histogram`,
		`ecss_solve_seconds_bucket{le="+Inf"} 4`,
		`ecss_solve_seconds_sum 2.5`,
		`ecss_solve_seconds_count 4`,
		``,
	}, "\n"))
	sum, found := SumSeries(doc, "ecss_engine_rounds_total")
	if !found || sum != 157 {
		t.Fatalf("SumSeries = %.0f found=%v, want 157 true", sum, found)
	}
	if _, found := SumSeries(doc, "ecss_engine_rounds"); found {
		t.Fatal("SumSeries matched a non-existent series name")
	}
	if sum, _ := SumSeries(doc, "ecss_solve_seconds_count"); sum != 4 {
		t.Fatalf("histogram count sum %.0f, want 4", sum)
	}
	names := ExpoSeriesNames(doc)
	for _, want := range []string{
		"ecss_engine_rounds_total", "ecss_solve_seconds",
		"ecss_solve_seconds_bucket", "ecss_solve_seconds_sum", "ecss_solve_seconds_count",
	} {
		if !names[want] {
			t.Fatalf("ExpoSeriesNames missing %q (got %v)", want, names)
		}
	}
}
