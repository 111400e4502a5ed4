package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension. Keep cardinality bounded: label values
// are priority classes, pipeline stages, fault points, shard addresses —
// never job or request ids.
type Label struct{ Name, Value string }

// L is shorthand for a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Sample is one scrape-time measurement emitted by a Collector. Type is
// "counter" or "gauge" (histograms are native instruments only).
type Sample struct {
	Name   string
	Help   string
	Type   string
	Labels []Label
	Value  float64
}

// Collector emits samples at scrape time. The service and router register
// one each, exporting their existing stats counters on /metrics without
// double bookkeeping.
type Collector func(emit func(Sample))

// Histogram is a fixed-bucket latency/size distribution. Observe is
// lock-free; buckets are cumulative at exposition time.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.buckets[i].Add(1)
	} else {
		h.buckets[len(h.bounds)].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// DurationBuckets is the default latency bucket ladder (seconds): 100µs to
// 30s, wide enough for sub-ms stage hops and multi-second cold solves.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

type familyMeta struct {
	help string
	typ  string
}

type instrument struct {
	labels []Label
	hist   *Histogram
}

// Registry is a metrics registry with Prometheus text exposition: native
// histograms plus scrape-time collectors. All methods are safe for
// concurrent use; Histogram is get-or-create and panics on an invalid name
// (programmer error, caught by the first scrape test).
type Registry struct {
	mu         sync.Mutex
	help       map[string]string      // histogram family -> help text
	instr      map[string]*instrument // name + rendered labels
	names      []string               // family registration order (sorted at scrape)
	collectors []Collector
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{help: make(map[string]string), instr: make(map[string]*instrument)}
}

// Collect registers a scrape-time sample source.
func (r *Registry) Collect(c Collector) {
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Histogram returns the histogram named name with the given labels and
// bucket upper bounds (nil selects DurationBuckets), creating it (and the
// family) on first use. Bounds must match on every lookup of the same
// family.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if !validName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !validName(l.Name) || strings.Contains(l.Name, ":") {
			panic("obs: invalid label name " + strconv.Quote(l.Name) + " on " + name)
		}
	}
	key := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.help[name]; !ok {
		r.help[name] = help
		r.names = append(r.names, name)
	}
	in, ok := r.instr[key]
	if !ok {
		if bounds == nil {
			bounds = DurationBuckets
		}
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.buckets = make([]atomic.Uint64, len(h.bounds)+1)
		in = &instrument{labels: append([]Label(nil), labels...), hist: h}
		r.instr[key] = in
	}
	return in.hist
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry — native instruments plus every
// collector's samples — in Prometheus text exposition format v0.0.4.
func (r *Registry) WritePrometheus(w io.Writer) error {
	type line struct {
		name  string // series name (may carry _bucket/_sum/_count suffix)
		lbls  string
		value float64
	}
	fams := make(map[string]*familyMeta)
	series := make(map[string][]line) // family name -> lines
	var order []string

	addFam := func(name, help, typ string) {
		if _, ok := fams[name]; !ok {
			fams[name] = &familyMeta{help: help, typ: typ}
			order = append(order, name)
		}
	}

	r.mu.Lock()
	collectors := append([]Collector(nil), r.collectors...)
	for _, name := range r.names {
		addFam(name, r.help[name], "histogram")
	}
	for key, in := range r.instr {
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name = key[:i]
		}
		lbls := renderLabels(in.labels)
		h := in.hist
		cum := uint64(0)
		for i, b := range h.bounds {
			cum += h.buckets[i].Load()
			bl := append(append([]Label(nil), in.labels...), L("le", formatValue(b)))
			series[name] = append(series[name], line{name + "_bucket", renderLabels(bl), float64(cum)})
		}
		count := h.count.Load()
		bl := append(append([]Label(nil), in.labels...), L("le", "+Inf"))
		series[name] = append(series[name], line{name + "_bucket", renderLabels(bl), float64(count)})
		series[name] = append(series[name], line{name + "_sum", lbls, math.Float64frombits(h.sumBits.Load())})
		series[name] = append(series[name], line{name + "_count", lbls, float64(count)})
	}
	r.mu.Unlock()

	for _, c := range collectors {
		c(func(s Sample) {
			if !validName(s.Name) {
				return // a collector bug must not corrupt the exposition
			}
			typ := s.Type
			if typ != "counter" && typ != "gauge" {
				typ = "gauge"
			}
			addFam(s.Name, s.Help, typ)
			series[s.Name] = append(series[s.Name], line{s.Name, renderLabels(s.Labels), s.Value})
		})
	}

	sort.Strings(order)
	for _, name := range order {
		fam := fams[name]
		if fam.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(fam.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, fam.typ); err != nil {
			return err
		}
		ls := series[name]
		sort.Slice(ls, func(i, j int) bool {
			if ls[i].name != ls[j].name {
				return ls[i].name < ls[j].name
			}
			return ls[i].lbls < ls[j].lbls
		})
		for _, l := range ls {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", l.name, l.lbls, formatValue(l.value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler serves the registry at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
