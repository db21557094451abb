// Package telemetry is Kalis' runtime observability subsystem: always-on
// counters, gauges and latency histograms cheap enough to live on the
// packet hot path, plus a registry that renders Prometheus text-format
// exposition and a JSON snapshot over an optional HTTP admin endpoint.
//
// It is distinct from internal/metrics, which scores *offline*
// experiments (detection rate, classification accuracy) after a replay
// finishes: telemetry reports what a node is doing *while* packets
// flow, the resource/latency measurement axis the paper evaluates in
// §VI-B (CPU and RAM overhead under load).
//
// Everything is standard library only. Hot-path operations (Counter.Add,
// Gauge.Set, Histogram.Observe, Vec.With on an existing child) are
// lock-free and allocation-free; see BenchmarkTelemetryHotPath. All
// metric methods are nil-receiver safe so uninstrumented components pay
// a single predictable branch.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// counterShards is the number of cache-line-padded shards per Counter;
// concurrent writers spread across shards instead of bouncing one cache
// line between cores. Must be a power of two.
const (
	counterShardBits = 3
	counterShards    = 1 << counterShardBits
)

// shard is one cache-line-sized slot of a sharded counter. The padding
// keeps adjacent shards on distinct cache lines (no false sharing).
type shard struct {
	n atomic.Uint64
	_ [56]byte
}

// shardIndex picks a shard from the address of a stack variable: each
// goroutine runs on its own stack, so concurrent writers land on
// different shards with high probability, at zero per-goroutine state.
func shardIndex() int {
	var probe byte
	p := uintptr(unsafe.Pointer(&probe))
	return int((uint64(p) * 0x9E3779B97F4A7C15) >> (64 - counterShardBits))
}

// Counter is a monotonically increasing, lock-free sharded counter.
type Counter struct {
	shards [counterShards]shard
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.shards[shardIndex()].n.Add(n)
}

// Value sums the shards. It is a snapshot: concurrent Adds may or may
// not be included.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].n.Load()
	}
	return sum
}

// Gauge is an instantaneous integer value (occupancy, depth, active
// count).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// CounterVec is a family of Counters partitioned by one label (topic,
// attack name, ...). Children are created on first use and live
// forever; With on an existing child is a lock-free map read.
type CounterVec struct {
	label    string
	mu       sync.Mutex
	children sync.Map // label value -> *Counter
}

// With returns the child counter for the given label value, creating it
// on first use. Callers on very hot paths may cache the returned
// *Counter to skip even the map read.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	if c, ok := v.children.Load(value); ok {
		return c.(*Counter)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children.Load(value); ok {
		return c.(*Counter)
	}
	c := &Counter{}
	v.children.Store(value, c)
	return c
}

// HistogramVec is a family of Histograms partitioned by one label.
type HistogramVec struct {
	label    string
	bounds   []time.Duration
	mu       sync.Mutex
	children sync.Map // label value -> *Histogram
}

// With returns the child histogram for the given label value, creating
// it on first use.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	if h, ok := v.children.Load(value); ok {
		return h.(*Histogram)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok := v.children.Load(value); ok {
		return h.(*Histogram)
	}
	h := newHistogram(v.bounds)
	v.children.Store(value, h)
	return h
}

// metric kinds, matching Prometheus TYPE strings.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// entry is one registered metric: its identity plus closures that
// render it for exposition. impl retains the typed metric so duplicate
// registration can hand back the existing instance.
type entry struct {
	name  string
	help  string
	kind  string
	label string // vec label name, "" for scalar metrics
	impl  interface{}
	snap  func() interface{}
}

// Registry holds one node's metrics and renders them. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// register adds an entry, or returns the existing impl if name is
// already taken by a metric of the same kind. A kind clash is a
// programming error and panics.
func (r *Registry) register(e *entry) interface{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev, ok := r.entries[e.name]; ok {
		if prev.kind != e.kind || prev.label != e.label {
			//lint:ignore nopanic metric kind clashes are wiring-time programming errors; registration happens before traffic flows
			panic(fmt.Sprintf("telemetry: %s re-registered as %s/%q (was %s/%q)",
				e.name, e.kind, e.label, prev.kind, prev.label))
		}
		return prev.impl
	}
	r.entries[e.name] = e
	return e.impl
}

// sorted returns the entries ordered by metric name.
func (r *Registry) sorted() []*entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Counter registers (or returns the existing) named counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	return r.register(&entry{
		name: name, help: help, kind: kindCounter, impl: c,
		snap: func() interface{} { return c.Value() },
	}).(*Counter)
}

// CounterVec registers (or returns the existing) counter family
// partitioned by the given label name.
func (r *Registry) CounterVec(name, label, help string) *CounterVec {
	v := &CounterVec{label: label}
	return r.register(&entry{
		name: name, help: help, kind: kindCounter, label: label, impl: v,
		snap: func() interface{} {
			out := make(map[string]interface{})
			v.children.Range(func(k, c interface{}) bool {
				out[k.(string)] = c.(*Counter).Value()
				return true
			})
			return out
		},
	}).(*CounterVec)
}

// Gauge registers (or returns the existing) named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	return r.register(&entry{
		name: name, help: help, kind: kindGauge, impl: g,
		snap: func() interface{} { return g.Value() },
	}).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at
// exposition time — for values a component already tracks (queue depth,
// runtime stats) that would be wasteful to mirror on every change.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&entry{
		name: name, help: help, kind: kindGauge, impl: fn,
		snap: func() interface{} { return fn() },
	})
}

// Histogram registers (or returns the existing) latency histogram with
// the given bucket upper bounds (nil selects DefaultLatencyBuckets).
func (r *Registry) Histogram(name, help string, buckets []time.Duration) *Histogram {
	h := newHistogram(buckets)
	return r.register(&entry{
		name: name, help: help, kind: kindHistogram, impl: h,
		snap: func() interface{} { return h.Snapshot() },
	}).(*Histogram)
}

// HistogramVec registers (or returns the existing) histogram family
// partitioned by the given label name (nil buckets selects
// DefaultLatencyBuckets).
func (r *Registry) HistogramVec(name, label, help string, buckets []time.Duration) *HistogramVec {
	if buckets == nil {
		buckets = DefaultLatencyBuckets
	}
	v := &HistogramVec{label: label, bounds: buckets}
	return r.register(&entry{
		name: name, help: help, kind: kindHistogram, label: label, impl: v,
		snap: func() interface{} {
			out := make(map[string]interface{})
			v.children.Range(func(k, h interface{}) bool {
				out[k.(string)] = h.(*Histogram).Snapshot()
				return true
			})
			return out
		},
	}).(*HistogramVec)
}
