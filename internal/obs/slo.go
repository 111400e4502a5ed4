package obs

// SLO layer: declared service-level objectives with multi-window error-
// budget burn rates computed at scrape time (DESIGN.md §12.4). An SLO
// counts good and bad events into a ring of coarse time buckets; the
// registered collector derives, per declared window, the error ratio and
// the burn rate — the ratio divided by the objective's error budget, the
// standard multi-window multi-burn-rate alerting input (a burn rate of 1
// consumes exactly the whole budget over the SLO period; 14.4 exhausts a
// 30-day budget in 2 days). alerts/ecss.rules.yml pairs fast and slow
// windows on the exported ecss_slo_burn_rate gauge.

import (
	"strings"
	"sync"
	"time"
)

// windowLabel renders a window as a compact label value: "5m", "6h" —
// time.Duration.String with the trailing zero units trimmed.
func windowLabel(w time.Duration) string {
	s := w.String()
	if strings.HasSuffix(s, "m0s") {
		s = strings.TrimSuffix(s, "0s")
	}
	if strings.HasSuffix(s, "h0m") {
		s = strings.TrimSuffix(s, "0m")
	}
	return s
}

// sloBucketWidth is the ring resolution. Windows are rounded up to whole
// buckets; the newest (partial) bucket is always included, so short-window
// burn rates respond within seconds of a bad burst.
const sloBucketWidth = 5 * time.Second

// sloWindows are the exported burn-rate windows, ascending: the classic
// fast (5m), intermediate (30m), and slow (6h) pairing set. The bucket ring
// spans the last.
var sloWindows = []time.Duration{5 * time.Minute, 30 * time.Minute, 6 * time.Hour}

type sloBucket struct {
	idx       int64 // bucket timestamp: unixNano / sloBucketWidth
	good, bad int64
}

// SLO is one declared objective: a target fraction of good events.
// Subsystems classify each observed event as good or bad (a served
// request, a request under its latency threshold); the SLO keeps a bounded
// ring of recent buckets for windowed burn rates.
type SLO struct {
	name      string
	objective float64 // target good fraction in (0,1)

	mu      sync.Mutex
	ring    []sloBucket
	nowFunc func() time.Time // test hook; nil means time.Now
}

// NewSLO declares an objective (e.g. 0.99 = 99% good) and registers its
// exposition on reg: per window ecss_slo_error_ratio and
// ecss_slo_burn_rate, labeled {slo=name, window}. Objectives outside (0,1)
// are clamped to 0.999.
func NewSLO(reg *Registry, name string, objective float64) *SLO {
	if objective <= 0 || objective >= 1 {
		objective = 0.999
	}
	s := &SLO{
		name:      name,
		objective: objective,
		ring:      make([]sloBucket, sloWindows[len(sloWindows)-1]/sloBucketWidth+2),
	}
	if reg != nil {
		reg.Collect(s.collect)
	}
	return s
}

func (s *SLO) now() time.Time {
	if s.nowFunc != nil {
		return s.nowFunc()
	}
	return time.Now()
}

// Observe records one classified event.
func (s *SLO) Observe(good bool) {
	idx := s.now().UnixNano() / int64(sloBucketWidth)
	s.mu.Lock()
	b := &s.ring[idx%int64(len(s.ring))]
	if b.idx != idx {
		b.idx, b.good, b.bad = idx, 0, 0
	}
	if good {
		b.good++
	} else {
		b.bad++
	}
	s.mu.Unlock()
}

// ObserveLatency classifies a duration against a threshold: good iff
// d <= threshold.
func (s *SLO) ObserveLatency(d, threshold time.Duration) { s.Observe(d <= threshold) }

// errorRatio is the bad-event fraction of the ring buckets younger than w,
// including the current partial bucket; 0 when they saw no events. Caller
// holds s.mu.
func (s *SLO) errorRatio(nowIdx int64, w time.Duration) float64 {
	span := int64(w / sloBucketWidth)
	if span < 1 {
		span = 1
	}
	lo := nowIdx - span + 1
	var good, bad int64
	for i := range s.ring {
		b := &s.ring[i]
		if b.idx >= lo && b.idx <= nowIdx {
			good += b.good
			bad += b.bad
		}
	}
	if good+bad == 0 {
		return 0
	}
	return float64(bad) / float64(good+bad)
}

// BurnRate returns the error-budget burn rate over window w: the bad-event
// ratio divided by the budget (1 - objective). 0 when the window saw no
// events.
func (s *SLO) BurnRate(w time.Duration) float64 {
	nowIdx := s.now().UnixNano() / int64(sloBucketWidth)
	s.mu.Lock()
	ratio := s.errorRatio(nowIdx, w)
	s.mu.Unlock()
	return ratio / (1 - s.objective)
}

// collect is the registered scrape-time exposition.
func (s *SLO) collect(emit func(Sample)) {
	l := L("slo", s.name)
	nowIdx := s.now().UnixNano() / int64(sloBucketWidth)
	ratios := make([]float64, len(sloWindows))
	s.mu.Lock()
	for i, w := range sloWindows {
		ratios[i] = s.errorRatio(nowIdx, w)
	}
	s.mu.Unlock()
	for i, w := range sloWindows {
		wl := L("window", windowLabel(w))
		emit(Sample{Name: "ecss_slo_error_ratio", Help: "Bad-event fraction per SLO over each declared window.",
			Type: "gauge", Value: ratios[i], Labels: []Label{l, wl}})
		emit(Sample{Name: "ecss_slo_burn_rate", Help: "Error-budget burn rate per SLO over each declared window (1 = budget consumed exactly at period end).",
			Type: "gauge", Value: ratios[i] / (1 - s.objective), Labels: []Label{l, wl}})
	}
}
