// Package metrics is the unified telemetry registry behind every
// layer of the reproduction: named counters, gauges, and fixed-bucket
// latency histograms, shared by the transports, the protocol
// implementations, the DHT overlay, the metadata store, and the
// experiment harness, and exported over HTTP by the daemon.
//
// Design constraints, in order:
//
//   - Cheap on the hot path. Callers resolve handles (Counter,
//     Histogram, ...) once at wiring time; recording is then pure
//     atomic arithmetic — no name lookup, no lock, no allocation.
//     Histogram buckets are powers of two located with bits.Len64.
//   - Inert. Recording never makes a decision: it cannot perturb
//     message order, content, or loss choices, so a golden trace
//     hashes identically with a live registry and with Discard().
//   - Snapshot-oriented. Readers take a Snapshot and difference two
//     snapshots with Delta; nothing resets shared counters, which
//     would race with every other reader.
//
// Registration is get-or-create by name, so independent components
// wired to one registry aggregate into shared series (a cluster's
// peers sum their traffic), while components left on their default
// private registry keep instance-local numbers (each store's cache
// hit rate).
package metrics

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/errs"
)

// Counter is a monotonically increasing int64. The zero value is
// ready to use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is a programming error; it is not checked on
// the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// histBuckets is the fixed bucket count: bits.Len64 ranges over
// 0..64, so bucket i holds values v with bits.Len64(v) == i, i.e.
// bucket 0 holds exactly 0 and bucket i>0 holds [2^(i-1), 2^i).
const histBuckets = 65

// Histogram is a fixed-bucket power-of-two histogram, sized for
// nanosecond latencies (bucket upper bounds 0, 1, 3, 7, ... 2^63-1).
// Observation is two atomic adds and a bit scan: zero allocation.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (negative values clamp to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// BucketUpperBound returns the inclusive upper bound of bucket i
// (values v with bits.Len64(v) == i satisfy v <= 2^i - 1).
func BucketUpperBound(i int) uint64 {
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// CounterVec is a family of counters keyed by one label (message
// type, protocol, error code). With resolves a label value to its
// counter; steady-state resolution is one read-locked map lookup, and
// callers on hot paths resolve once and keep the handle.
type CounterVec struct {
	label   string
	discard bool
	mu      sync.RWMutex
	m       map[string]*Counter
}

// With returns the counter for one label value, creating it on first
// use.
func (v *CounterVec) With(value string) *Counter {
	if v.discard {
		return &discardRegistry.blackhole
	}
	v.mu.RLock()
	c := v.m[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.m[value]; c != nil {
		return c
	}
	c = &Counter{}
	v.m[value] = c
	return c
}

// Values snapshots the family as label value -> count.
func (v *CounterVec) Values() map[string]int64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]int64, len(v.m))
	for k, c := range v.m {
		out[k] = c.Value()
	}
	return out
}

// gaugeFn sums the callbacks registered under a single name: store
// sizes across a cluster's peers add up.
type gaugeFn struct {
	fns []func() int64
}

func (g *gaugeFn) value() int64 {
	var out int64
	for _, fn := range g.fns {
		out += fn()
	}
	return out
}

// ErrorsVecName is the registry's error counter family: one counter
// per structured error code (see internal/errs), label "code".
const ErrorsVecName = "errors"

// Registry is a concurrency-safe, get-or-create collection of named
// metrics. The zero value is not usable; call NewRegistry (or
// Discard for a shared no-op instance).
type Registry struct {
	discard bool
	// blackhole is the single counter every handle of a discard
	// registry resolves to; it accumulates garbage nobody reads.
	blackhole Counter

	mu         sync.RWMutex
	counters   map[string]*Counter
	gaugeFns   map[string]*gaugeFn
	histograms map[string]*Histogram
	vecs       map[string]*CounterVec
}

// NewRegistry returns an empty live registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gaugeFns:   make(map[string]*gaugeFn),
		histograms: make(map[string]*Histogram),
		vecs:       make(map[string]*CounterVec),
	}
}

var (
	discardRegistry  = &Registry{discard: true}
	discardHistogram = &Histogram{}
	discardVec       = &CounterVec{discard: true}
)

// Discard returns the shared no-op registry: every handle it hands
// out records into write-only storage and every snapshot is empty.
// It is what the golden-trace guard runs against to prove recording
// never perturbs behavior.
func Discard() *Registry { return discardRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r.discard {
		return &r.blackhole
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r.discard {
		return discardHistogram
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.histograms[name]; h != nil {
		return h
	}
	h = &Histogram{}
	r.histograms[name] = h
	return h
}

// CounterVec returns the named counter family, creating it on first
// use. The label name is fixed by the first registration.
func (r *Registry) CounterVec(name, label string) *CounterVec {
	if r.discard {
		return discardVec
	}
	r.mu.RLock()
	v := r.vecs[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v := r.vecs[name]; v != nil {
		return v
	}
	v = &CounterVec{label: label, m: make(map[string]*Counter)}
	r.vecs[name] = v
	return v
}

// GaugeFunc registers a callback evaluated at snapshot time. Multiple
// callbacks under one name sum — N stores wired to one registry
// report their combined document count.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r.discard || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gaugeFns[name]
	if g == nil {
		g = &gaugeFn{}
		r.gaugeFns[name] = g
	}
	g.fns = append(g.fns, fn)
}

// Errors returns the registry's error counter family, keyed by
// structured error code.
func (r *Registry) Errors() *CounterVec { return r.CounterVec(ErrorsVecName, "code") }

// CountError classifies err by its structured code (errs.Code) and
// increments the matching error counter; uncoded errors count under
// "unknown". A nil err is a no-op.
func (r *Registry) CountError(err error) {
	if err == nil || r.discard {
		return
	}
	code := errs.Code(err)
	if code == "" {
		code = "unknown"
	}
	r.Errors().With(code).Inc()
}

// BucketCount is one non-empty histogram bucket in a snapshot.
type BucketCount struct {
	// UpperBound is the bucket's inclusive upper bound.
	UpperBound uint64 `json:"le"`
	Count      int64  `json:"count"`
}

// HistogramSnapshot is one histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, safe to read and
// difference without synchronization.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Labeled    map[string]map[string]int64  `json:"labeled,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// LabelNames maps each family name to its label name ("type",
	// "protocol", "code"), for the exposition formats.
	LabelNames map[string]string `json:"-"`
}

// Snapshot copies the registry's current state, evaluating gauge
// callbacks. Concurrent recording is safe; each individual value is
// read atomically.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Labeled:    make(map[string]map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
		LabelNames: make(map[string]string),
	}
	if r.discard {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gaugeFns {
		s.Gauges[name] = g.value()
	}
	for name, v := range r.vecs {
		s.Labeled[name] = v.Values()
		s.LabelNames[name] = v.label
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
		for i := range h.buckets {
			if n := h.buckets[i].Load(); n > 0 {
				hs.Buckets = append(hs.Buckets, BucketCount{UpperBound: BucketUpperBound(i), Count: n})
			}
		}
		s.Histograms[name] = hs
	}
	return s
}

// Counter returns a counter's value (0 when absent).
func (s *Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Label returns one family counter's value (0 when absent).
func (s *Snapshot) Label(name, value string) int64 { return s.Labeled[name][value] }

// Delta returns this snapshot minus prev: counters, family counters,
// and histogram counts subtract (an experiment phase's cost); gauges
// keep their current level (a level has no meaningful difference).
// prev may be nil, in which case the snapshot is returned unchanged.
func (s *Snapshot) Delta(prev *Snapshot) *Snapshot {
	if prev == nil {
		return s
	}
	d := &Snapshot{
		Counters:   make(map[string]int64, len(s.Counters)),
		Gauges:     make(map[string]int64, len(s.Gauges)),
		Labeled:    make(map[string]map[string]int64, len(s.Labeled)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
		LabelNames: s.LabelNames,
	}
	for name, v := range s.Counters {
		d.Counters[name] = v - prev.Counters[name]
	}
	for name, v := range s.Gauges {
		d.Gauges[name] = v
	}
	for name, m := range s.Labeled {
		dm := make(map[string]int64, len(m))
		for k, v := range m {
			dm[k] = v - prev.Labeled[name][k]
		}
		d.Labeled[name] = dm
	}
	for name, h := range s.Histograms {
		ph := prev.Histograms[name]
		dh := HistogramSnapshot{Count: h.Count - ph.Count, Sum: h.Sum - ph.Sum}
		pb := make(map[uint64]int64, len(ph.Buckets))
		for _, b := range ph.Buckets {
			pb[b.UpperBound] = b.Count
		}
		for _, b := range h.Buckets {
			if n := b.Count - pb[b.UpperBound]; n > 0 {
				dh.Buckets = append(dh.Buckets, BucketCount{UpperBound: b.UpperBound, Count: n})
			}
		}
		d.Histograms[name] = dh
	}
	return d
}

// Names returns every metric name in the snapshot, sorted: the
// iteration order of the exposition formats.
func (s *Snapshot) Names() []string {
	seen := make(map[string]struct{})
	for n := range s.Counters {
		seen[n] = struct{}{}
	}
	for n := range s.Gauges {
		seen[n] = struct{}{}
	}
	for n := range s.Labeled {
		seen[n] = struct{}{}
	}
	for n := range s.Histograms {
		seen[n] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
