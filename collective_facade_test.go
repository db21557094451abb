package kalis

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"kalis/internal/core/detection"
	"kalis/internal/core/knowledge"
	"kalis/internal/eval"
)

// TestFacadeCollectiveUDP runs two Kalis nodes with encrypted UDP
// knowledge sharing on loopback: node A learns a blackhole locally and
// its collective knowgget must reach node B.
func TestFacadeCollectiveUDP(t *testing.T) {
	nodeA, err := New(WithNodeID("KA"))
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	nodeB, err := New(WithNodeID("KB"))
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()

	if err := nodeA.EnableCollectiveUDP("127.0.0.1:46201", []string{"127.0.0.1:46202"}, "s3cret"); err != nil {
		t.Fatal(err)
	}
	if err := nodeB.EnableCollectiveUDP("127.0.0.1:46202", []string{"127.0.0.1:46201"}, "s3cret"); err != nil {
		t.Fatal(err)
	}
	nodeA.BeaconNow()
	nodeB.BeaconNow()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(nodeA.CollectivePeers()) == 1 && len(nodeB.CollectivePeers()) == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
		nodeA.BeaconNow()
		nodeB.BeaconNow()
	}
	if got := nodeA.CollectivePeers(); len(got) != 1 || got[0] != "KB" {
		t.Fatalf("node A peers = %v", got)
	}

	// Drive a blackhole at node A; the SuspectBlackhole knowgget is
	// collective and must appear at node B.
	driveBlackhole(t, nodeA)
	deadline = time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if hasSuspectFrom(nodeB, "KA") {
			return
		}
		// The suspicion is buffered until node A's next gossip round.
		nodeA.GossipNow()
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("collective knowgget never reached node B")
}

func hasSuspectFrom(n *Node, creator string) bool {
	for _, kg := range n.Knowledge() {
		if kg.Creator == creator && kg.Label == knowledge.LabelSuspectBlackhole {
			return true
		}
	}
	return false
}

// TestCollectiveGossipDuringDispatchUDP feeds WSN traffic into node A
// while node B gossips a stream of collective blackhole suspicions to
// it over UDP loopback. The UDP transport applies gossip on its socket
// goroutine, and the suspicions fire A's Wormhole module callbacks
// while A's feeder dispatches packets to the same module; under -race
// this fails unless the two are serialized.
func TestCollectiveGossipDuringDispatchUDP(t *testing.T) {
	sc, ok := eval.ScenarioByName("selective-forwarding")
	if !ok {
		t.Fatal("selective-forwarding scenario missing")
	}
	raw := recordTrace(t, sc, 1)

	nodeA, err := New(WithNodeID("KA"))
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	nodeB, err := New(WithNodeID("KB"))
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	if err := nodeA.EnableCollectiveUDP("127.0.0.1:46211", []string{"127.0.0.1:46212"}, "s3cret"); err != nil {
		t.Fatal(err)
	}
	if err := nodeB.EnableCollectiveUDP("127.0.0.1:46212", []string{"127.0.0.1:46211"}, "s3cret"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for len(nodeA.CollectivePeers()) == 0 || len(nodeB.CollectivePeers()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("nodes never discovered each other")
		}
		nodeA.BeaconNow()
		nodeB.BeaconNow()
		time.Sleep(5 * time.Millisecond)
	}

	type result struct {
		replayed int
		err      error
	}
	fed := make(chan result, 1)
	go func() {
		replayed, _, err := nodeA.ReplayTrace(bytes.NewReader(raw))
		fed <- result{replayed, err}
	}()
	kbB := nodeB.inner.KB()
	var res result
	for i := 0; ; i++ {
		kbB.PutCollective(knowledge.LabelSuspectBlackhole, fmt.Sprintf("0x%04x", 0x100+i), "3,4")
		nodeB.GossipNow()
		select {
		case res = <-fed:
		case <-time.After(time.Millisecond):
			continue
		}
		break
	}
	if res.err != nil || res.replayed == 0 {
		t.Fatalf("feeder replayed %d frames, err %v", res.replayed, res.err)
	}
	if !slices.Contains(nodeA.ActiveModules(), detection.WormholeName) {
		t.Fatalf("%s never activated on node A; active: %v", detection.WormholeName, nodeA.ActiveModules())
	}
	deadline = time.Now().Add(3 * time.Second)
	for !hasSuspectFrom(nodeA, "KB") {
		if time.Now().After(deadline) {
			t.Fatal("no gossiped suspicion reached node A")
		}
		nodeB.GossipNow()
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFacadeCollectiveUDPBadAddr(t *testing.T) {
	node, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := node.EnableCollectiveUDP("999.999.999.999:1", nil, "x"); err == nil {
		t.Error("bad listen address accepted")
	}
	// Without a collective layer these are safe no-ops.
	if node.CollectivePeers() != nil {
		t.Error("peers without collective layer")
	}
	node.BeaconNow()
}

func TestFacadeResponder(t *testing.T) {
	node, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	r := node.NewResponder(DefaultResponsePolicy(2))
	var isolated []NodeID
	r.Isolate = func(id NodeID) error { isolated = append(isolated, id); return nil }

	driveBlackhole(t, node)
	if len(isolated) != 1 || isolated[0] != "0x0002" {
		t.Errorf("isolated = %v", isolated)
	}
	if audit := r.Audit(); len(audit) == 0 {
		t.Error("no audit entries")
	}
}
