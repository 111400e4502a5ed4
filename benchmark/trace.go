package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// Span names. The benchmark records them from its own wrappers around the
// calls into each layer (the client, the router's handler, each shard's
// handler, each experiment); nothing inside the program is instrumented.
const (
	spanClient  = "client.request"
	spanRouter  = "router.serve"
	spanService = "service.handler"
)

// layerDepth orders span names from the outermost layer inwards; a span's
// parent is the nearest enclosing layer of the same request.
func layerDepth(name string) int {
	switch {
	case name == spanClient:
		return 0
	case name == spanRouter:
		return 1
	case name == spanService:
		return 2
	case strings.HasPrefix(name, "experiments."):
		return 1
	}
	return 3
}

// span is one timed interval of one request in one layer. Start and End
// are nanoseconds since the tracer's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: a root span
	Name   string `json:"name"`
	Req    string `json:"req"`
	Where  string `json:"where,omitempty"` // the shard's address, for service spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(name, req, where string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Req: req, Where: where, Start: start, End: end})
	t.mu.Unlock()
}

// link numbers the spans and sets each one's parent: the span of the same
// request in the nearest outer layer. It returns the linked spans.
func (t *tracer) link() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := make(map[string][]int)
	for i := range t.spans {
		t.spans[i].ID = i + 1
		byReq[t.spans[i].Req] = append(byReq[t.spans[i].Req], i)
	}
	for _, idx := range byReq {
		for _, i := range idx {
			d, best := layerDepth(t.spans[i].Name), 0
			for _, j := range idx {
				if dj := layerDepth(t.spans[j].Name); dj < d && (best == 0 || dj > layerDepth(t.spans[best-1].Name)) {
					best = j + 1
				}
			}
			t.spans[i].Parent = best
		}
	}
	return t.spans
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var covered, end int64
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return parent.dur() - time.Duration(covered)
}

// spanLayers derives the span-based layer samples of a traced phase, in
// microseconds (experiment spans in milliseconds): every layer's span
// durations, the self time of the router and of the client, and the
// service's wait — its handler span minus the solve time it reported —
// over requests that were solved rather than served from a cache.
func spanLayers(spans []span, samples []sample) map[string][]float64 {
	out := make(map[string][]float64)
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	handler := make(map[[2]string]span) // (request, shard) -> handler span
	for _, s := range spans {
		switch {
		case s.Name == spanService:
			out["service.handler"] = append(out["service.handler"], us(s.dur()))
			handler[[2]string{s.Req, s.Where}] = s
			handler[[2]string{s.Req, ""}] = s
		case s.Name == spanRouter:
			out["router.serve"] = append(out["router.serve"], us(s.dur()))
			out["router.hop"] = append(out["router.hop"], us(selfTime(s, kids[s.ID])))
		case s.Name == spanClient:
			out["client.overhead"] = append(out["client.overhead"], us(selfTime(s, kids[s.ID])))
		case strings.HasPrefix(s.Name, "experiments."):
			out[s.Name] = append(out[s.Name], ms(s.dur()))
		}
	}
	for i := range samples {
		s := &samples[i]
		if !s.ok || s.cached {
			continue
		}
		if h, ok := handler[[2]string{s.req, s.shard}]; ok {
			out["service.wait"] = append(out["service.wait"], us(h.dur())-s.elapsedMS*1000)
		}
	}
	return out
}

// writeSpans writes the linked spans of a traced run to path as JSON.
func writeSpans(path, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
