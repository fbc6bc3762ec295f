// Package obs is the simulator's observability substrate: a metrics
// registry (monotonic counters, gauges, fixed-bucket latency histograms),
// an optional cycle-domain span trace (swap lifecycles, copy legs, stalls,
// the fault ladder, and instant marks such as epochs and P-bit redirects),
// and an optional per-epoch time series.
//
// The design goal is zero allocation and near-zero cost on hot paths:
//
//   - Instruments are registered once at construction time and held as
//     typed pointers by the instrumented component; recording is a plain
//     field update, no map lookup and no interface call.
//   - Every instrument method is nil-safe. A component wired against a nil
//     *Registry receives nil instruments, and recording into a nil
//     instrument is a single pointer test — so observability can stay
//     compiled into the hot path and be turned off per run without
//     branching on configuration.
//
// Like the rest of the simulator, a Registry is owned by a single
// simulation and is not goroutine-safe; parallel experiments own one
// registry per run.
package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Counter is a monotonic event count.
type Counter struct{ v uint64 }

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds d. Safe on a nil receiver (no-op).
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.v += d
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value-wins measurement.
type Gauge struct{ v int64 }

// Set records v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v = v
	}
}

// Add adds d to the current value. Safe on a nil receiver (no-op).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v += d
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket latency histogram: bucket i counts samples
// v <= bounds[i] (first matching bucket), with one implicit overflow
// bucket past the last bound. Bounds are fixed at registration, so
// Observe never allocates.
type Histogram struct {
	bounds []int64  // ascending upper bounds
	counts []uint64 // len(bounds)+1; last is overflow
	n      uint64
	sum    int64
	max    int64
}

// Observe records one sample. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	// The bound lists are short (tens of buckets); linear scan beats the
	// branch misprediction profile of binary search at this size.
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of samples (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sample sum (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the sample mean, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Max returns the largest sample (0 for nil or empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the
// bound of the bucket containing it, or Max for the overflow bucket.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.n == 0 {
		return 0
	}
	target := uint64(q * float64(h.n))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.max
		}
	}
	return h.max
}

// ExpBuckets returns n upper bounds starting at `first` and doubling:
// first, 2*first, 4*first, ... — the natural shape for cycle latencies.
func ExpBuckets(first int64, n int) []int64 {
	if first <= 0 {
		first = 1
	}
	out := make([]int64, n)
	b := first
	for i := range out {
		out[i] = b
		b *= 2
	}
	return out
}

// DefaultLatencyBuckets covers 16..65536 cycles in octaves, bracketing
// everything from an L4-speed on-package hit to a pathological queue stall.
func DefaultLatencyBuckets() []int64 { return ExpBuckets(16, 13) }

// Snapshot copies the histogram's current state — the standalone
// counterpart of Registry.Snapshot for histograms owned outside a registry
// (the sweep coordinator's heartbeat/RTT/checkpoint-size histograms).
// Returns the zero snapshot on a nil receiver.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.n,
		Sum:    h.sum,
		Mean:   h.Mean(),
		Max:    h.max,
	}
}

// NewHistogram returns a standalone histogram with the given bucket bounds
// (sorted ascending), for callers that need an instrument outside any
// Registry. A nil return never happens; the zero-bounds case still counts.
func NewHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Registry holds a simulation run's named instruments. The zero of
// *Registry (nil) is a valid "disabled" registry: every constructor
// returns a nil instrument whose methods no-op.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    *SpanTracer
	series   *SeriesSampler
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it at zero on first use.
// Returns nil (a valid no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
// Returns nil (a valid no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (later calls reuse the existing buckets). Returns
// nil (a valid no-op histogram) on a nil registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		b := append([]int64(nil), bounds...)
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// EnableSpans attaches a span tracer of the given capacity (idempotent;
// the first capacity wins). No-op on a nil registry.
func (r *Registry) EnableSpans(capacity int) *SpanTracer {
	if r == nil {
		return nil
	}
	if r.spans == nil && capacity > 0 {
		r.spans = NewSpanTracer(capacity)
	}
	return r.spans
}

// Spans returns the attached span tracer (nil when tracing is disabled;
// a nil tracer is a valid no-op sink).
func (r *Registry) Spans() *SpanTracer {
	if r == nil {
		return nil
	}
	return r.spans
}

// EnableSeries attaches a per-epoch series sampler of the given capacity
// (idempotent; the first capacity wins). No-op on a nil registry.
func (r *Registry) EnableSeries(capacity int) *SeriesSampler {
	if r == nil {
		return nil
	}
	if r.series == nil && capacity > 0 {
		r.series = NewSeriesSampler(capacity)
	}
	return r.series
}

// Series returns the attached series sampler (nil when sampling is
// disabled; a nil sampler is a valid no-op sink).
func (r *Registry) Series() *SeriesSampler {
	if r == nil {
		return nil
	}
	return r.series
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Bounds []int64  `json:"bounds"` // ascending bucket upper bounds
	Counts []uint64 `json:"counts"` // len(Bounds)+1; last is overflow
	Count  uint64   `json:"count"`
	Sum    int64    `json:"sum"`
	Mean   float64  `json:"mean"`
	Max    int64    `json:"max"`
}

// Snapshot is a JSON-marshallable copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. Returns nil on a nil
// registry.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.v
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistogramSnapshot{
			Bounds: append([]int64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
			Count:  h.n,
			Sum:    h.sum,
			Mean:   h.Mean(),
			Max:    h.max,
		}
	}
	return s
}

// MergeSnapshots folds per-channel snapshots into one: counters and gauges
// sum name by name, histogram buckets add (their bucket layouts derive from
// the instrument name, so same-named histograms share bounds). Nil parts
// are skipped; the result is nil only if every part is nil. Summation is
// commutative and map keys are unordered, so the merged snapshot — and any
// sorted rendering of it — is identical no matter which channel finished
// first.
func MergeSnapshots(parts ...*Snapshot) *Snapshot {
	var out *Snapshot
	for _, p := range parts {
		if p == nil {
			continue
		}
		if out == nil {
			out = &Snapshot{
				Counters:   make(map[string]uint64),
				Gauges:     make(map[string]int64),
				Histograms: make(map[string]HistogramSnapshot),
			}
		}
		for name, v := range p.Counters {
			out.Counters[name] += v
		}
		for name, v := range p.Gauges {
			out.Gauges[name] += v
		}
		for name, h := range p.Histograms {
			cur, ok := out.Histograms[name]
			if !ok {
				cur = HistogramSnapshot{
					Bounds: append([]int64(nil), h.Bounds...),
					Counts: make([]uint64, len(h.Counts)),
				}
			}
			for i := range h.Counts {
				if i < len(cur.Counts) {
					cur.Counts[i] += h.Counts[i]
				}
			}
			cur.Count += h.Count
			cur.Sum += h.Sum
			if h.Max > cur.Max {
				cur.Max = h.Max
			}
			if cur.Count > 0 {
				cur.Mean = float64(cur.Sum) / float64(cur.Count)
			}
			out.Histograms[name] = cur
		}
	}
	return out
}

// Get returns a counter value from the snapshot (0 if absent or nil).
func (s *Snapshot) Get(name string) uint64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// String renders the snapshot as sorted name=value lines, histograms as
// their summary statistics — a debugging aid, not a stable format.
func (s *Snapshot) String() string {
	if s == nil {
		return "<no metrics>"
	}
	var lines []string
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s=%d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s=%d", name, v))
	}
	for name, h := range s.Histograms {
		lines = append(lines, fmt.Sprintf("%s: n=%d mean=%.1f max=%d", name, h.Count, h.Mean, h.Max))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
