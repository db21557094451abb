package kalis

// Tests of the public facade: the API a downstream user programs
// against.

import (
	"bytes"
	"net/netip"
	"strconv"
	"testing"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/netsim"
	"kalis/internal/packet"
	"kalis/internal/proto/icmp"
	"kalis/internal/proto/stack"
)

var tEpoch = netsim.Epoch

func capOf(t *testing.T, medium packet.Medium, raw []byte, at time.Time, rssi float64) *Captured {
	t.Helper()
	c, err := stack.Decode(medium, raw)
	if err != nil {
		t.Fatal(err)
	}
	c.Time = at
	c.RSSI = rssi
	return c
}

func TestFacadeEndToEnd(t *testing.T) {
	node, err := New(WithNodeID("edge"), WithWindowSize(128))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if node.ID() != "edge" {
		t.Errorf("ID = %q", node.ID())
	}

	var alerts []Alert
	node.OnAlert(func(a Alert) { alerts = append(alerts, a) })

	node.HandleCapture(capOf(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(1, 1, 0, 1), tEpoch, -50))
	for i := 0; i < 30; i++ {
		at := tEpoch.Add(time.Duration(i) * 3 * time.Second)
		node.HandleCapture(capOf(t, packet.MediumIEEE802154,
			stack.BuildCTPData(3, 2, 3, uint8(i), 1, 20, []byte{0x01, uint8(i)}), at, -65))
	}
	if len(alerts) == 0 {
		t.Fatal("no alerts through the facade")
	}
	if len(node.Alerts()) != len(alerts) {
		t.Error("Alerts() and OnAlert disagree")
	}
	found := false
	for _, kg := range node.Knowledge() {
		if kg.Label == "Multihop" && kg.Value == "true" {
			found = true
		}
	}
	if !found {
		t.Error("Multihop knowgget missing from Knowledge()")
	}
}

func TestFacadeStaticKnowledgeAndModules(t *testing.T) {
	node, err := New(WithoutDefaultModules())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if got := node.ActiveModules(); len(got) != 0 {
		t.Errorf("modules active without installs: %v", got)
	}
	node.PutKnowledge("Mobility", "", "false")
	if err := node.InstallModule("MobilityAwarenessModule", nil); err != nil {
		t.Fatal(err)
	}
	// Statically-known mobility suppresses the sensing module.
	if got := node.ActiveModules(); len(got) != 0 {
		t.Errorf("mobility module active despite static knowledge: %v", got)
	}
}

func TestFacadeWithConfig(t *testing.T) {
	node, err := New(
		WithoutDefaultModules(),
		WithConfig(`modules = { TrafficStatsModule(interval=2s) } knowggets = { Multihop = true }`),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if got := node.ActiveModules(); len(got) != 1 || got[0] != "TrafficStatsModule" {
		t.Errorf("active = %v", got)
	}
}

func TestFacadeConfigError(t *testing.T) {
	if _, err := New(WithConfig("modules = {")); err == nil {
		t.Error("bad config accepted")
	}
}

// countingModule is a minimal custom module for extensibility tests.
type countingModule struct {
	ctx     *ModuleContext
	packets int
}

func (m *countingModule) Name() string                  { return "CountingModule" }
func (m *countingModule) Kind() module.Kind             { return module.KindDetection }
func (m *countingModule) WatchLabels() []string         { return nil }
func (m *countingModule) Required(*knowledge.Base) bool { return true }
func (m *countingModule) Activate(ctx *ModuleContext)   { m.ctx = ctx }
func (m *countingModule) Deactivate()                   { m.ctx = nil }
func (m *countingModule) HandlePacket(c *Captured) {
	m.packets++
	if m.packets == 3 {
		m.ctx.Emit(Alert{Time: c.Time, Attack: "custom-anomaly", Module: m.Name(), Confidence: 0.5})
	}
}

func TestFacadeCustomModule(t *testing.T) {
	node, err := New(WithoutDefaultModules())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	mod := &countingModule{}
	node.RegisterModule("CountingModule", func(map[string]string) (Module, error) { return mod, nil })
	if err := node.InstallModule("CountingModule", nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		node.HandleCapture(capOf(t, packet.MediumIEEE802154,
			stack.BuildCTPBeacon(2, 1, 10, uint8(i)), tEpoch.Add(time.Duration(i)*time.Second), -60))
	}
	if mod.packets != 5 {
		t.Errorf("custom module saw %d packets", mod.packets)
	}
	if len(node.Alerts()) != 1 || node.Alerts()[0].Attack != "custom-anomaly" {
		t.Errorf("alerts = %+v", node.Alerts())
	}
}

// TestUnshardedStaysSynchronous pins the dispatch contract: every
// module has seen a packet when HandleCapture returns, with no drain
// needed. Synchronous dispatch is the node's only mode.
func TestUnshardedStaysSynchronous(t *testing.T) {
	node, err := New(WithoutDefaultModules())
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	mod := &countingModule{}
	node.RegisterModule("CountingModule", func(map[string]string) (Module, error) { return mod, nil })
	if err := node.InstallModule("CountingModule", nil); err != nil {
		t.Fatal(err)
	}
	node.HandleCapture(capOf(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(2, 1, 10, 0), tEpoch, -60))
	if mod.packets != 1 {
		t.Fatalf("synchronous dispatch must complete within HandleCapture; module saw %d packets", mod.packets)
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	// Record with one node, replay into another — the §VI-A
	// methodology through the public API.
	var buf bytes.Buffer
	rec, err := New(WithNodeID("recorder"))
	if err != nil {
		t.Fatal(err)
	}
	rec.SetLog(&buf)
	for i := 0; i < 20; i++ {
		at := tEpoch.Add(time.Duration(i) * 3 * time.Second)
		rec.HandleCapture(capOf(t, packet.MediumIEEE802154,
			stack.BuildCTPData(3, 2, 3, uint8(i), 1, 20, []byte{0x01, uint8(i)}), at, -65))
	}
	if err := rec.Close(); err != nil { // Close flushes the trace log
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("nothing logged")
	}

	replayer, err := New(WithNodeID("replayer"))
	if err != nil {
		t.Fatal(err)
	}
	defer replayer.Close()
	replayed, skipped, err := replayer.ReplayTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || replayed == 0 {
		t.Errorf("replayed=%d skipped=%d", replayed, skipped)
	}
	// The replayer reaches the same conclusion as live capture.
	if v, ok := boolKnowledge(replayer, "Multihop"); !ok || !v {
		t.Error("replayer did not learn Multihop from the trace")
	}
}

func boolKnowledge(n *Node, label string) (bool, bool) {
	for _, kg := range n.Knowledge() {
		if kg.Label == label {
			return kg.Value == "true", true
		}
	}
	return false, false
}

func TestFacadeFirewall(t *testing.T) {
	node, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	fw := node.NewFirewall(0.8)

	// Drive a blackhole detection; the firewall must start dropping
	// the suspect's frames.
	node.HandleCapture(capOf(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(1, 1, 0, 1), tEpoch, -50))
	for i := 0; i < 30; i++ {
		at := tEpoch.Add(time.Duration(i) * 3 * time.Second)
		node.HandleCapture(capOf(t, packet.MediumIEEE802154,
			stack.BuildCTPData(3, 2, 3, uint8(i), 1, 20, []byte{0x01, uint8(i)}), at, -65))
	}
	if got := fw.Blocked(); len(got) == 0 {
		t.Fatal("firewall learned nothing from alerts")
	}
	suspectFrame := capOf(t, packet.MediumIEEE802154,
		stack.BuildCTPData(2, 1, 2, 99, 0, 10, []byte{0x01, 99}), tEpoch.Add(time.Hour), -60)
	if fw.Filter(suspectFrame) != FirewallDrop {
		t.Error("suspect frame passed the firewall")
	}
}

// TestPutKnowledgeDuringDispatch flips a-priori knowledge from one
// goroutine while another replays WiFi echo replies. Each flip runs
// Knowledge Base subscribers, which activate and deactivate modules on
// the writer's goroutine (Smurf follows Multihop; topology discovery
// stops once Multihop is pinned); under -race this fails unless
// PutKnowledge is serialized with packet dispatch. The overlap is a
// matter of scheduling, so several fresh nodes each get a round.
func TestPutKnowledgeDuringDispatch(t *testing.T) {
	victim := netip.MustParseAddr("192.168.1.10")
	caps := make([]*Captured, 400)
	for i := range caps {
		src := netip.AddrFrom4([4]byte{192, 168, 1, byte(20 + i%8)})
		raw := stack.BuildICMPEcho(src, victim, icmp.TypeEchoReply, 1, uint16(i), 64)
		caps[i] = capOf(t, packet.MediumWiFi, raw, tEpoch.Add(time.Duration(i)*10*time.Millisecond), -60)
	}
	for round := 0; round < 10; round++ {
		node, err := New()
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, c := range caps {
				node.HandleCapture(c)
			}
		}()
		flips := 0
		for running := true; running; flips++ {
			select {
			case <-done:
				running = false
			default:
			}
			node.PutKnowledge(knowledge.LabelMultihop, "", strconv.FormatBool(flips%2 == 0))
		}
		if err := node.Close(); err != nil {
			t.Fatal(err)
		}
		if flips < 2 {
			t.Fatalf("round %d: no knowledge flip overlapped dispatch", round)
		}
	}
}
