package obs

import (
	"sort"
	"strings"
	"sync"
)

// Registry is a named metric namespace: counters, gauges, and histograms
// created once at subsystem construction, plus collectors — callbacks that
// inject point-in-time series (per-segment funnels, per-plan health, queue
// depths) when a snapshot is taken. Metric handles are cheap to hold and
// safe for concurrent use; getting an existing name returns the same
// handle.
//
// Metric names follow Prometheus conventions (lix_<subsystem>_<what>,
// counters ending _total) and may carry a label suffix built with L:
// `lix_segment_model_err{segment="0003-0005"}`.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func(*Snapshot)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// L appends one label to a metric name: L("x_total", "shard", "3") is
// `x_total{shard="3"}`. Chained labels extend the set. Quotes and
// backslashes in the value are escaped per the Prometheus text format.
func L(name, key, value string) string {
	var b strings.Builder
	b.Grow(len(name) + len(key) + len(value) + 6)
	if i := strings.IndexByte(name, '{'); i >= 0 {
		b.WriteString(name[:len(name)-1]) // reopen the existing label set
		b.WriteByte(',')
	} else {
		b.WriteString(name)
		b.WriteByte('{')
	}
	b.WriteString(key)
	b.WriteString(`="`)
	for i := 0; i < len(value); i++ {
		switch c := value[i]; c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteString(`"}`)
	return b.String()
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// RegisterCollector adds a snapshot-time callback. Collectors run on every
// Snapshot, after the registered metrics are copied; they must not call
// Snapshot themselves and must not hold locks that a metrics reader could
// be blocked behind indefinitely.
func (r *Registry) RegisterCollector(fn func(*Snapshot)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Snapshot captures every registered metric plus everything the collectors
// inject: one coherent, immutable view safe to read, serialize, or merge
// after the registry has moved on.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	s := &Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = float64(g.Load())
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	collectors := r.collectors
	r.mu.Unlock()
	for _, fn := range collectors {
		fn(s)
	}
	return s
}

// Snapshot is one coherent view of a metrics plane: static metrics copied
// from the registry plus collector-injected dynamic series. Maps are keyed
// by full metric name including any label suffix.
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// AddCounter injects (or adds to) a counter series. Collector API.
func (s *Snapshot) AddCounter(name string, v int64) { s.Counters[name] += v }

// SetGauge injects a gauge series. Collector API.
func (s *Snapshot) SetGauge(name string, v float64) { s.Gauges[name] = v }

// AddHistogram injects a histogram series, merging with any present one.
// Collector API.
func (s *Snapshot) AddHistogram(name string, h HistSnapshot) {
	cur := s.Histograms[name]
	cur.Merge(h)
	s.Histograms[name] = cur
}

// Counter returns the named counter's value (0 when absent).
func (s *Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the named gauge's value (0 when absent).
func (s *Snapshot) Gauge(name string) float64 { return s.Gauges[name] }

// Histogram returns the named histogram's snapshot (empty when absent).
func (s *Snapshot) Histogram(name string) HistSnapshot { return s.Histograms[name] }

// Series returns every full metric name carrying the given base name (the
// part before any label suffix), sorted — how per-segment and per-plan
// series are enumerated.
func (s *Snapshot) Series(base string) []string {
	var out []string
	match := func(name string) bool {
		return name == base || (strings.HasPrefix(name, base) && name[len(base)] == '{')
	}
	for name := range s.Counters {
		if match(name) {
			out = append(out, name)
		}
	}
	for name := range s.Gauges {
		if match(name) {
			out = append(out, name)
		}
	}
	for name := range s.Histograms {
		if match(name) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
