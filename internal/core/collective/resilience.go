package collective

import (
	"time"
)

// This file holds the collective layer's hardening against silent,
// partitioned, or flaky peers (§IV-B3's cooperative nodes on lossy IoT
// networks): peer liveness TTL with eviction, a bounded peer table,
// and retry-with-backoff on transient Send failures. An evicted peer
// that returns is treated as newly discovered, so it receives a full
// re-sync of local collective knowledge.

// SetClock replaces the liveness clock (default time.Now); simulations
// inject the virtual clock so TTL eviction is deterministic.
func (n *Node) SetClock(now func() time.Time) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.now = now
}

// SetPeerTTL sets how long a peer may stay silent before the beacon
// sweep evicts it (0 disables eviction).
func (n *Node) SetPeerTTL(ttl time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peerTTL = ttl
}

// SetMaxPeers bounds the peer table (0 removes the bound). When a new
// peer would exceed the bound, the stalest peer is evicted to make
// room — a full table must not block discovery of live peers.
func (n *Node) SetMaxPeers(max int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.maxPeers = max
}

// SetRetry configures the transient-send retry policy: up to retries
// retransmissions, sleeping backoff·attempt between tries. The sleep
// is injectable for tests via setSleep.
func (n *Node) SetRetry(retries int, backoff time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.retries = retries
	n.retryBackoff = backoff
}

// setSleep replaces the retry sleep (tests).
func (n *Node) setSleep(sleep func(time.Duration)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sleep = sleep
}

// Resilience returns the hardening counters: peers evicted, transient
// sends retried, malformed datagrams discarded.
func (n *Node) Resilience() (evictions, retries, malformed int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.evictions, n.retried, n.malformed
}

// admitLocked records a peer sighting, evicting the stalest peer if
// the table is full. Callers must hold n.mu.
func (n *Node) admitLocked(id, addr string) {
	if p, ok := n.peers[id]; ok {
		p.addr = addr
		p.lastSeen = n.now()
		return
	}
	if n.maxPeers > 0 && len(n.peers) >= n.maxPeers {
		stalest, oldest := "", time.Time{}
		for pid, p := range n.peers {
			if stalest == "" || p.lastSeen.Before(oldest) {
				stalest, oldest = pid, p.lastSeen
			}
		}
		delete(n.peers, stalest)
		n.evictions++
		n.met.Evictions.Inc()
	}
	n.peers[id] = &peerInfo{addr: addr, lastSeen: n.now()}
}

// touch refreshes a known peer's liveness on any authenticated message
// (updates count as proof of life, not just beacons).
func (n *Node) touch(id, addr string) {
	n.mu.Lock()
	if p, ok := n.peers[id]; ok {
		p.addr = addr
		p.lastSeen = n.now()
	}
	n.mu.Unlock()
}

// sweep evicts peers that have been silent longer than the TTL. Runs
// from Beacon, so eviction cadence follows the beacon interval.
func (n *Node) sweep() {
	n.mu.Lock()
	if n.peerTTL <= 0 {
		n.mu.Unlock()
		return
	}
	cutoff := n.now().Add(-n.peerTTL)
	evicted := 0
	for id, p := range n.peers {
		if p.lastSeen.Before(cutoff) {
			delete(n.peers, id)
			n.evictions++
			n.met.Evictions.Inc()
			evicted++
		}
	}
	if evicted > 0 {
		n.met.Peers.Set(int64(len(n.peers)))
	}
	count := len(n.peers)
	n.mu.Unlock()
	if evicted > 0 {
		// Outside n.mu: Put fires Knowledge Base subscriptions.
		n.putPeers(count)
	}
}

// sendReliable transmits one datagram, retrying transient failures
// with linear backoff; permanent failures (bad address, closed
// transport) are not retried. Returns whether the send succeeded.
func (n *Node) sendReliable(addr string, data []byte) bool {
	n.mu.Lock()
	retries, backoff, sleep := n.retries, n.retryBackoff, n.sleep
	n.bytesSent += uint64(len(data))
	n.met.BytesSent.Add(uint64(len(data)))
	n.mu.Unlock()
	for attempt := 0; ; attempt++ {
		err := n.transport.Send(addr, data)
		if err == nil {
			return true
		}
		if attempt >= retries || IsPermanent(err) {
			return false
		}
		n.mu.Lock()
		n.retried++
		n.met.SendRetries.Inc()
		n.bytesSent += uint64(len(data))
		n.met.BytesSent.Add(uint64(len(data)))
		n.mu.Unlock()
		sleep(backoff * time.Duration(attempt+1))
	}
}
