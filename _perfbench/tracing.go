package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"kalis"
	"kalis/internal/core/detection"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/core/sensing"
	"kalis/internal/packet"
)

// Span names of the layer boundaries the benchmark wraps. Module spans
// are named "module.<ModuleName>".
const (
	spanReadAll  = "trace.ReadAll"
	spanDecode   = "stack.Decode"
	spanDispatch = "Node.HandleCapture"
)

// maxKeptSpans caps the spans kept for the span file (32 bytes each in
// memory); per-layer totals are aggregated over every span regardless.
const maxKeptSpans = 200_000

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch; parent indexes the kept span that caused it (-1 for a
// root) and frame is the frame id the call served (-1 for per-trace
// calls).
type span struct {
	name       uint16
	parent     int32
	frame      int64
	start, end int64
}

// tracer records spans from the benchmark's own call sites. The node
// under test runs on a single feeder goroutine, so no locking is
// needed: module spans nest strictly inside the dispatch span that is
// open when they run.
type tracer struct {
	epoch   time.Time
	names   []string
	nameIdx map[string]uint16

	kept []span

	// Per-name aggregates over every span: total time, count, and
	// self time (total minus covered child time).
	total, self, count []int64

	frame     int64
	open      int32 // kept index of the open dispatch span, -1 if none or not kept
	openName  int   // name index of the open span, -1 if none
	childTime int64 // child time covered inside the open span

	activations int64
	invocations int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), nameIdx: make(map[string]uint16), open: -1, openName: -1}
}

func (t *tracer) id(name string) uint16 {
	if i, ok := t.nameIdx[name]; ok {
		return i
	}
	i := uint16(len(t.names))
	t.names = append(t.names, name)
	t.nameIdx[name] = i
	t.total = append(t.total, 0)
	t.self = append(t.self, 0)
	t.count = append(t.count, 0)
	return i
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) keep(s span) int32 {
	if len(t.kept) >= maxKeptSpans {
		return -1
	}
	t.kept = append(t.kept, s)
	return int32(len(t.kept) - 1)
}

// root records a span with no parent and no children.
func (t *tracer) root(name uint16, frame, start, end int64) {
	d := end - start
	t.total[name] += d
	t.self[name] += d
	t.count[name]++
	t.keep(span{name: name, parent: -1, frame: frame, start: start, end: end})
}

// begin opens the parent span of a frame's dispatch; end closes it.
func (t *tracer) begin(name uint16, frame int64) int64 {
	t.frame = frame
	t.openName = int(name)
	t.childTime = 0
	start := t.now()
	t.open = t.keep(span{name: name, parent: -1, frame: frame, start: start})
	return start
}

func (t *tracer) end(name uint16, start int64) {
	end := t.now()
	d := end - start
	t.total[name] += d
	t.self[name] += d - t.childTime
	t.count[name]++
	if t.open >= 0 {
		t.kept[t.open].end = end
	}
	t.open, t.openName = -1, -1
}

// child records a span nested in the open dispatch span (a module call
// outside any dispatch, e.g. at install time, becomes a root).
func (t *tracer) child(name uint16, start, end int64) {
	d := end - start
	t.total[name] += d
	t.self[name] += d
	t.count[name]++
	frame := t.frame
	if t.openName < 0 {
		frame = -1
	} else {
		t.childTime += d
	}
	t.keep(span{name: name, parent: t.open, frame: frame, start: start, end: end})
}

// writeSpans writes the kept spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Frame  int64  `json:"frame"`
	}
	for _, s := range t.kept {
		if err := enc.Encode(line{t.names[s.name], s.start, s.end, s.parent, s.frame}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// moduleNames returns the built-in module library in the order
// InstallAll installs it (the registry's sorted names).
func moduleNames() []string {
	r := module.NewRegistry()
	sensing.Register(r)
	detection.Register(r)
	return r.Names()
}

// installTraced installs the built-in module library on a node built
// WithoutDefaultModules, each module wrapped in a span recorder.
func installTraced(n *kalis.Node, t *tracer) error {
	r := module.NewRegistry()
	sensing.Register(r)
	detection.Register(r)
	for _, name := range r.Names() {
		name := name
		idx := t.id("module." + name)
		n.RegisterModule(name, func(params map[string]string) (kalis.Module, error) {
			m, err := r.New(name, params)
			if err != nil {
				return nil, err
			}
			return &spanModule{Module: m, name: idx, t: t}, nil
		})
		if err := n.InstallModule(name, nil); err != nil {
			return fmt.Errorf("install %s: %w", name, err)
		}
	}
	return nil
}

// spanModule times every call into a module: packet handling, the
// activation decision and activation changes. Calls made while a
// dispatch span is open are its children; the rest (install-time
// activation decisions) are roots.
type spanModule struct {
	module.Module
	name uint16
	t    *tracer
}

func (m *spanModule) HandlePacket(c *packet.Captured) {
	start := m.t.now()
	m.Module.HandlePacket(c)
	m.t.child(m.name, start, m.t.now())
	m.t.invocations++
}

func (m *spanModule) Required(kb *knowledge.Base) bool {
	start := m.t.now()
	ok := m.Module.Required(kb)
	m.t.child(m.name, start, m.t.now())
	return ok
}

func (m *spanModule) Activate(ctx *module.Context) {
	m.t.activations++
	start := m.t.now()
	m.Module.Activate(ctx)
	m.t.child(m.name, start, m.t.now())
}

func (m *spanModule) Deactivate() {
	start := m.t.now()
	m.Module.Deactivate()
	m.t.child(m.name, start, m.t.now())
}
