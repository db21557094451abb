// Package event implements the event-driven backbone of Kalis (§V
// "Event-driven Architecture"): components publish packet, knowledge
// and detection events; subscribers are notified and process them
// independently.
//
// Delivery is synchronous: Publish invokes the topic's subscribers
// inline, in subscription order, on the publisher's goroutine. Dispatch
// is therefore deterministic and lossless, and when Publish returns
// every subscriber has handled the event. Close waits for in-flight
// publishes, after which Publish and Subscribe are no-ops.
package event

import (
	"sync"

	"kalis/internal/telemetry"
)

// Topic names used by Kalis.
const (
	TopicPacket      = "packet"
	TopicKnowledge   = "knowledge"
	TopicDetection   = "detection"
	TopicFlowRecords = "flow.records"
)

// Handler consumes a published event payload.
type Handler func(payload interface{})

// Metrics are the bus' optional telemetry hooks; zero-value fields are
// skipped (all telemetry types are nil-safe).
type Metrics struct {
	// Publishes counts Publish calls per topic.
	Publishes *telemetry.CounterVec
}

// Bus routes events from publishers to subscribers by topic.
type Bus struct {
	mu   sync.RWMutex
	subs map[string][]Handler
	met  Metrics
	// pubs holds the per-topic publish counters, resolved off the hot
	// path (at SetMetrics/Subscribe time): Publish must never pay a
	// Vec.With lookup per packet.
	pubs map[string]*telemetry.Counter
	// pubWG tracks in-flight Publish calls so Close returns only once
	// no handler is still running.
	pubWG  sync.WaitGroup
	closed bool
}

// NewBus creates a bus.
func NewBus() *Bus {
	b := &Bus{
		subs: make(map[string][]Handler),
		pubs: make(map[string]*telemetry.Counter),
	}
	for _, topic := range []string{TopicPacket, TopicKnowledge, TopicDetection, TopicFlowRecords} {
		b.resolveTopicLocked(topic)
	}
	return b
}

// SetMetrics installs telemetry hooks. Call it before traffic flows.
func (b *Bus) SetMetrics(m Metrics) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.met = m
	// Re-resolve every known topic against the new hooks.
	for topic := range b.pubs {
		delete(b.pubs, topic)
		b.resolveTopicLocked(topic)
	}
}

// resolveTopicLocked caches the topic's publish counter; the write
// lock must be held. It runs at wiring time (NewBus, SetMetrics,
// Subscribe) and at most once per unknown topic from Publish.
func (b *Bus) resolveTopicLocked(topic string) *telemetry.Counter {
	if c, ok := b.pubs[topic]; ok {
		return c
	}
	//lint:ignore hotpath one-time per-topic child resolution, amortized across all publishes
	c := b.met.Publishes.With(topic)
	b.pubs[topic] = c
	return c
}

// Subscribe registers a handler for a topic.
func (b *Bus) Subscribe(topic string, fn Handler) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.resolveTopicLocked(topic)
	b.subs[topic] = append(b.subs[topic], fn)
}

// Publish delivers payload to every subscriber of topic, inline.
// Handlers may publish further events re-entrantly (no lock is held
// during delivery).
func (b *Bus) Publish(topic string, payload interface{}) {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return
	}
	// Registering in-flight status under the read lock means Close
	// (which takes the write lock first) always waits for this call.
	b.pubWG.Add(1)
	subs := b.subs[topic]
	pub, ok := b.pubs[topic]
	b.mu.RUnlock()
	defer b.pubWG.Done()

	if !ok {
		// First publish on a topic nobody subscribed or pre-wired:
		// resolve once under the write lock, then never again.
		b.mu.Lock()
		pub = b.resolveTopicLocked(topic)
		b.mu.Unlock()
	}
	pub.Inc()
	for _, fn := range subs {
		fn(payload)
	}
}

// Close stops the bus: it waits for in-flight publishes to finish, and
// afterwards Publish and Subscribe are no-ops. Close must not be called
// from inside a handler.
func (b *Bus) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	b.pubWG.Wait()
}
