package flow

import (
	"sync"
	"sync/atomic"
	"time"

	"kalis/internal/packet"
)

// Trackers is the endpoint-tracker registry: victim windows, TCP
// handshake ledgers, identity fingerprints and motion tracks,
// deduplicated by configuration and reference-counted, so modules that
// ask for the same tracker share one instance updated once per packet.
// Every Table owns one.
type Trackers struct {
	mu         sync.Mutex
	victims    map[victimKey]*VictimWindow
	handshakes map[time.Duration]*TCPHandshakes
	identities map[identityKey]*IdentityStats
	motions    map[MotionConfig]*IdentityMotion

	// observe is the copy-on-write Tracker list: Table.Update loads the
	// snapshot with one atomic read per packet; acquire and release swap
	// it under mu.
	observe atomic.Value // []Tracker
}

// newTrackers creates an empty registry.
func newTrackers() *Trackers {
	return &Trackers{
		victims:    make(map[victimKey]*VictimWindow),
		handshakes: make(map[time.Duration]*TCPHandshakes),
		identities: make(map[identityKey]*IdentityStats),
		motions:    make(map[MotionConfig]*IdentityMotion),
	}
}

// snapshot returns the current observe list (nil when empty).
func (r *Trackers) snapshot() []Tracker {
	s, _ := r.observe.Load().([]Tracker)
	return s
}

// addLocked appends a tracker copy-on-write. Callers must hold r.mu.
func (r *Trackers) addLocked(tr Tracker) {
	cur := r.snapshot()
	next := make([]Tracker, len(cur), len(cur)+1)
	copy(next, cur)
	r.observe.Store(append(next, tr))
}

// dropLocked removes a tracker copy-on-write. Callers must hold r.mu.
func (r *Trackers) dropLocked(tr Tracker) {
	cur := r.snapshot()
	next := make([]Tracker, 0, len(cur))
	for _, x := range cur {
		if x != tr {
			next = append(next, x)
		}
	}
	r.observe.Store(next)
}

// VictimWindow acquires the registry's shared victim window for the
// given kind mask and window, creating it on first use. Release the
// handle when done (module Deactivate).
func (r *Trackers) VictimWindow(mask KindMask, window time.Duration) *VictimWindow {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := victimKey{mask: mask, window: window}
	w := r.victims[k]
	if w == nil {
		w = newVictimWindow(mask, window)
		w.reg, w.vkey = r, k
		r.victims[k] = w
		r.addLocked(w)
	}
	w.refs++
	return w
}

// Handshakes acquires the registry's shared handshake tracker for the
// given completion window.
func (r *Trackers) Handshakes(window time.Duration) *TCPHandshakes {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.handshakes[window]
	if h == nil {
		h = newTCPHandshakes(window)
		h.reg = r
		r.handshakes[window] = h
		r.addLocked(h)
	}
	h.refs++
	return h
}

// IdentityStats acquires the registry's shared identity tracker for the
// given EWMA smoothing factor and medium.
func (r *Trackers) IdentityStats(alpha float64, medium packet.Medium) *IdentityStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := identityKey{alpha: alpha, medium: medium}
	s := r.identities[k]
	if s == nil {
		s = newIdentityStats(alpha, medium)
		s.reg, s.ikey = r, k
		r.identities[k] = s
		r.addLocked(s)
	}
	s.refs++
	return s
}

// Motion acquires the registry's shared motion tracker for the given
// configuration (the static and mobile replication modules share one
// tracker when configured alike, so the state updates once per packet).
func (r *Trackers) Motion(cfg MotionConfig) *IdentityMotion {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.motions[cfg]
	if m == nil {
		m = newIdentityMotion(cfg)
		m.reg = r
		r.motions[cfg] = m
		r.addLocked(m)
	}
	m.refs++
	return m
}
