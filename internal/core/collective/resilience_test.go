package collective

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"kalis/internal/core/knowledge"
)

// virtualClock is a hand-advanced clock for deterministic TTL tests.
type virtualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *virtualClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *virtualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestPeerTTLEvictionAndResync(t *testing.T) {
	kb1, n1, kb2, n2 := pair(t)
	clock := &virtualClock{t: time.Unix(1500000000, 0)}
	n1.SetClock(clock.now)
	n1.SetPeerTTL(30 * time.Second)

	n2.Beacon() // K1 discovers K2
	if got := n1.Peers(); len(got) != 1 {
		t.Fatalf("n1 peers = %v", got)
	}

	// K2 goes silent past the TTL: K1's next beacon sweep evicts it.
	clock.advance(31 * time.Second)
	n1.Beacon()
	if got := n1.Peers(); len(got) != 0 {
		t.Fatalf("silent peer not evicted: %v", got)
	}
	if ev, _, _ := n1.Resilience(); ev != 1 {
		t.Fatalf("evictions = %d", ev)
	}
	if v, ok := kb1.Int("Peers"); !ok || v != 0 {
		t.Errorf("Peers knowgget after eviction = %d ok=%v", v, ok)
	}

	// New collective knowledge accumulates while K2 is gone; its
	// return beacon is treated as fresh discovery → full re-sync.
	kb1.PutCollective("SuspectBlackhole", "0x0005", "7")
	n2.Beacon()
	if got := n1.Peers(); len(got) != 1 {
		t.Fatalf("returning peer not re-admitted: %v", got)
	}
	if kg, ok := kb2.Get("K1$SuspectBlackhole@0x0005"); !ok || kg.Value != "7" {
		t.Fatalf("returning peer not re-synced: %+v ok=%v", kg, ok)
	}
}

func TestUpdatesCountAsLiveness(t *testing.T) {
	_, n1, kb2, n2 := pair(t)
	clock := &virtualClock{t: time.Unix(1500000000, 0)}
	n1.SetClock(clock.now)
	n1.SetPeerTTL(30 * time.Second)

	// Mutual discovery: K1's beacon lets K2 learn where to push
	// updates; K2's beacon starts K1's liveness record for it.
	n1.Beacon()
	n2.Beacon()
	clock.advance(20 * time.Second)
	// A gossip round (not a beacon) from K2 must refresh its liveness.
	kb2.PutCollective("EmergentSource", "0x0009", "7")
	n2.Gossip()
	clock.advance(20 * time.Second)
	n1.Beacon() // 40s since beacon, 20s since update: keep
	if got := n1.Peers(); len(got) != 1 {
		t.Fatalf("peer evicted despite recent update: %v", got)
	}
}

func TestBoundedPeerTableEvictsStalest(t *testing.T) {
	hub := NewHub()
	kb1 := knowledge.NewBase("K1")
	n1, err := NewNode(kb1, hub.Endpoint("addr1"), "secret", nil)
	if err != nil {
		t.Fatal(err)
	}
	clock := &virtualClock{t: time.Unix(1500000000, 0)}
	n1.SetClock(clock.now)
	n1.SetMaxPeers(2)

	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("P%d", i)
		kb := knowledge.NewBase(id)
		pn, err := NewNode(kb, hub.Endpoint("p"+id), "secret", nil)
		if err != nil {
			t.Fatal(err)
		}
		clock.advance(time.Second) // distinct lastSeen per peer
		pn.Beacon()
	}
	got := n1.Peers()
	if len(got) != 2 || got[0] != "P1" || got[1] != "P2" {
		t.Fatalf("peers = %v (want stalest P0 evicted)", got)
	}
	if ev, _, _ := n1.Resilience(); ev != 1 {
		t.Errorf("evictions = %d", ev)
	}
}

// flakyTransport fails the first failures sends with a transient or
// permanent error, then delegates.
type flakyTransport struct {
	Transport
	mu       sync.Mutex
	failures int
	perm     bool
	attempts int
}

func (f *flakyTransport) Send(addr string, data []byte) error {
	f.mu.Lock()
	f.attempts++
	fail := f.failures > 0
	if fail {
		f.failures--
	}
	perm := f.perm
	f.mu.Unlock()
	if fail {
		if perm {
			return &PermanentError{Err: errors.New("bad address")}
		}
		return errors.New("transient socket error")
	}
	return f.Transport.Send(addr, data)
}

func flakyPair(t *testing.T, failures int, perm bool) (*knowledge.Base, *knowledge.Base, *Node, *flakyTransport) {
	t.Helper()
	hub := NewHub()
	kb1 := knowledge.NewBase("K1")
	kb2 := knowledge.NewBase("K2")
	ft := &flakyTransport{Transport: hub.Endpoint("addr1"), failures: failures, perm: perm}
	n1, err := NewNode(kb1, ft, "secret", nil)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := NewNode(kb2, hub.Endpoint("addr2"), "secret", nil)
	if err != nil {
		t.Fatal(err)
	}
	n1.setSleep(func(time.Duration) {}) // virtual: no real sleeping in tests
	_ = n2
	n2.Beacon() // K1 discovers K2 (beacons bypass Send via Broadcast)
	return kb1, kb2, n1, ft
}

func TestSendRetryRecoversTransientFailure(t *testing.T) {
	kb1, kb2, n1, ft := flakyPair(t, 2, false)
	kb1.PutCollective("SuspectBlackhole", "0x0005", "7")
	n1.Gossip()
	if kg, ok := kb2.Get("K1$SuspectBlackhole@0x0005"); !ok || kg.Value != "7" {
		t.Fatalf("update lost despite retry budget: %+v ok=%v", kg, ok)
	}
	if _, retries, _ := n1.Resilience(); retries != 2 {
		t.Errorf("retries = %d", retries)
	}
	if ft.attempts != 3 {
		t.Errorf("send attempts = %d", ft.attempts)
	}
}

func TestSendPermanentFailureNotRetried(t *testing.T) {
	kb1, kb2, n1, ft := flakyPair(t, 1, true)
	kb1.PutCollective("SuspectBlackhole", "0x0005", "7")
	n1.Gossip()
	if _, ok := kb2.Get("K1$SuspectBlackhole@0x0005"); ok {
		t.Fatal("update delivered despite permanent failure")
	}
	if _, retries, _ := n1.Resilience(); retries != 0 {
		t.Errorf("permanent failure retried %d times", retries)
	}
	if ft.attempts != 1 {
		t.Errorf("send attempts = %d", ft.attempts)
	}
}

func TestMalformedDatagramsCountedNeverFatal(t *testing.T) {
	hub := NewHub()
	kb1 := knowledge.NewBase("K1")
	n1, err := NewNode(kb1, hub.Endpoint("addr1"), "secret", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw := hub.Endpoint("raw") // no collective node: sends arbitrary bytes
	before := kb1.Snapshot()
	for _, payload := range [][]byte{
		nil,
		{0x01},
		[]byte("way too short"),
		make([]byte, 64), // right length, garbage ciphertext
	} {
		if err := raw.Send("addr1", payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, malformed := n1.Resilience(); malformed != 4 {
		t.Fatalf("malformed = %d", malformed)
	}
	if got := len(kb1.Snapshot()); got != len(before) {
		t.Fatalf("malformed datagrams mutated the Knowledge Base: %d → %d entries", len(before), got)
	}
}
