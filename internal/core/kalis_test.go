package core

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/flow"
	"kalis/internal/packet"
	"kalis/internal/proto/ieee802154"
	"kalis/internal/proto/stack"
	"kalis/internal/trace"
)

var t0 = time.Unix(1500000000, 0).UTC()

func mkCap(t *testing.T, medium packet.Medium, raw []byte, at time.Time, rssi float64) *packet.Captured {
	t.Helper()
	c, err := stack.Decode(medium, raw)
	if err != nil {
		t.Fatal(err)
	}
	c.Time = at
	c.RSSI = rssi
	return c
}

func TestNewInstallsFullLibrary(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, InstallAll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if got := len(k.Manager().Installed()); got != 16 { // 3 sensing + 13 detection
		t.Errorf("installed = %d, want 16", got)
	}
	// Only sensing modules may be active with an empty Knowledge Base.
	for _, name := range k.ActiveModules() {
		switch name {
		case "TopologyDiscoveryModule", "TrafficStatsModule", "MobilityAwarenessModule":
		default:
			t.Errorf("detection module %s active without knowledge", name)
		}
	}
}

func TestConfigDrivenSetup(t *testing.T) {
	cfg := `
modules = {
	TrafficStatsModule (interval=2s),
	TopologyDiscoveryModule
}
knowggets = {
	Mobility = false
}
`
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, ConfigText: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if got := k.Manager().Installed(); len(got) != 2 {
		t.Errorf("installed = %v", got)
	}
	if v, ok := k.KB().Bool(knowledge.LabelMobility); !ok || v {
		t.Error("static knowgget not loaded")
	}
	if !k.KB().IsStatic(knowledge.LabelMobility) {
		t.Error("static knowgget not marked static")
	}
}

func TestConfigErrors(t *testing.T) {
	if _, err := New(Config{ConfigText: "modules = {"}); err == nil {
		t.Error("syntax error accepted")
	}
	if _, err := New(Config{ConfigText: "modules = { NoSuchModule }"}); err == nil {
		t.Error("unknown module accepted")
	}
}

func TestEndToEndKnowledgeActivationAlert(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, InstallAll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	var alerts []module.Alert
	k.OnAlert(func(a module.Alert) { alerts = append(alerts, a) })
	var knowggets []knowledge.Knowgget
	k.OnKnowledge(func(kg knowledge.Knowgget) { knowggets = append(knowggets, kg) })

	// Multi-hop CTP traffic with a blackhole: relay 2 receives but
	// never forwards.
	k.HandleCapture(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(1, 1, 0, 1), t0, -50))
	for i := 0; i < 30; i++ {
		at := t0.Add(time.Duration(i) * 3 * time.Second)
		k.HandleCapture(mkCap(t, packet.MediumIEEE802154,
			stack.BuildCTPData(3, 2, 3, uint8(i), 1, 20, []byte{0x01, uint8(i)}), at, -65))
	}
	if len(alerts) == 0 {
		t.Fatal("no alert from end-to-end pipeline")
	}
	if alerts[0].Attack != "blackhole" || alerts[0].Suspects[0] != "0x0002" {
		t.Errorf("alert = %+v", alerts[0])
	}
	if len(knowggets) == 0 {
		t.Error("no knowledge events published")
	}
	if k.Store().Total() != 31 {
		t.Errorf("data store total = %d", k.Store().Total())
	}
}

func TestTrafficLogging(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, InstallAll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	var buf bytes.Buffer
	k.SetLog(&buf)
	for i := 0; i < 5; i++ {
		k.HandleCapture(mkCap(t, packet.MediumIEEE802154,
			stack.BuildCTPBeacon(2, 1, 10, uint8(i)), t0.Add(time.Duration(i)*time.Second), -60))
	}
	if err := k.Store().FlushLog(); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadAll(&buf)
	if err != nil || len(recs) != 5 {
		t.Fatalf("logged %d records, err %v", len(recs), err)
	}
}

func TestEncryptedNetworkDisablesAlterationDetection(t *testing.T) {
	// The Fig. 3 prevention-technique feature: observing link-layer
	// security means the devices are immune to data alteration, so the
	// corresponding module deactivates itself.
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, InstallAll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()

	// Multi-hop unencrypted traffic first: alteration detection is on.
	k.HandleCapture(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(1, 1, 0, 1), t0, -50))
	k.HandleCapture(mkCap(t, packet.MediumIEEE802154,
		stack.BuildCTPData(2, 1, 3, 1, 1, 10, []byte{0x01, 1}), t0.Add(time.Second), -55))
	if !contains(k.ActiveModules(), "DataAlterationModule") {
		t.Fatalf("alteration module inactive on plaintext network: %v", k.ActiveModules())
	}

	// A secured frame appears: the Encrypted knowgget flips and the
	// module deactivates.
	sec := &ieee802154.Frame{
		Type:          ieee802154.FrameData,
		Security:      true,
		PANIDCompress: true,
		Seq:           9,
		DstPAN:        0x1234,
		DstMode:       ieee802154.AddrShort,
		SrcMode:       ieee802154.AddrShort,
		DstShort:      1,
		SrcShort:      2,
		Payload:       []byte{0xde, 0xad}, // opaque ciphertext
	}
	k.HandleCapture(mkCap(t, packet.MediumIEEE802154, sec.Encode(), t0.Add(2*time.Second), -55))
	if v, ok := k.KB().Bool(knowledge.LabelEncrypted); !ok || !v {
		t.Fatal("Encrypted knowgget not set from secured frame")
	}
	if contains(k.ActiveModules(), "DataAlterationModule") {
		t.Errorf("alteration module still active on encrypted network: %v", k.ActiveModules())
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

func TestInstallUnknownModule(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if err := k.Install("NoSuchModule", nil); err == nil {
		t.Error("unknown module installed")
	}
}

func TestDefaultNodeID(t *testing.T) {
	k, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	if k.ID() != "K1" {
		t.Errorf("ID = %q", k.ID())
	}
}

func TestTelemetryWiredThroughPipeline(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, InstallAll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	for i := 0; i < 20; i++ {
		at := t0.Add(time.Duration(i) * time.Second)
		k.HandleCapture(mkCap(t, packet.MediumIEEE802154,
			stack.BuildCTPBeacon(2, 1, 10, uint8(i)), at, -60))
	}

	var sb strings.Builder
	if err := k.Telemetry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "kalis_packets_total 20") {
		t.Errorf("packets counter missing/wrong:\n%s", out)
	}
	if !strings.Contains(out, `kalis_bus_publishes_total{topic="packet"} 20`) {
		t.Errorf("bus publish counter missing/wrong:\n%s", out)
	}
	if !strings.Contains(out, "kalis_store_window_occupancy 20") {
		t.Errorf("window occupancy missing/wrong:\n%s", out)
	}
	if active := k.Telemetry().Snapshot()["kalis_modules_active"]; active.Value.(int64) !=
		int64(len(k.ActiveModules())) {
		t.Errorf("kalis_modules_active = %v, ActiveModules = %d",
			active.Value, len(k.ActiveModules()))
	}
	// Sensing modules ran on every packet, so their latency histograms
	// must have observations.
	if !regexp.MustCompile(`kalis_module_packet_seconds_count\{module="TopologyDiscoveryModule"\} 20`).
		MatchString(out) {
		t.Errorf("module latency histogram missing:\n%s", out)
	}
}

// hookModule is an always-required module that calls fn on every
// dispatched packet.
type hookModule struct{ fn func(*packet.Captured) }

func (m *hookModule) Name() string                  { return "HookModule" }
func (m *hookModule) Kind() module.Kind             { return module.KindDetection }
func (m *hookModule) WatchLabels() []string         { return nil }
func (m *hookModule) Required(*knowledge.Base) bool { return true }
func (m *hookModule) Activate(*module.Context)      {}
func (m *hookModule) Deactivate()                   {}
func (m *hookModule) HandlePacket(c *packet.Captured) {
	m.fn(c)
}

// beacon builds the i-th of a stream of CTP beacons, one per second.
func beacon(t *testing.T, i int) *packet.Captured {
	return mkCap(t, packet.MediumIEEE802154,
		stack.BuildCTPBeacon(2, 1, 10, uint8(i)), t0.Add(time.Duration(i)*time.Second), -60)
}

// blackholeTraffic feeds the multi-hop blackhole pattern of
// TestEndToEndKnowledgeActivationAlert: relay 2 receives but never
// forwards.
func blackholeTraffic(t *testing.T, k *Kalis) {
	k.HandleCapture(mkCap(t, packet.MediumIEEE802154, stack.BuildCTPBeacon(1, 1, 0, 1), t0, -50))
	for i := 0; i < 30; i++ {
		at := t0.Add(time.Duration(i) * 3 * time.Second)
		k.HandleCapture(mkCap(t, packet.MediumIEEE802154,
			stack.BuildCTPData(3, 2, 3, uint8(i), 1, 20, []byte{0x01, uint8(i)}), at, -65))
	}
}

func TestConcurrentHandleCaptureAndClose(t *testing.T) {
	// Closing while captures race must neither deadlock nor let a
	// module run after Close has returned. closed and seen are plain
	// variables: the handler reads closed and writes seen, the test
	// writes both after Close returns, so under -race the detector
	// reports any dispatch that Close did not wait for or exclude.
	caps := make([]*packet.Captured, 100)
	for i := range caps {
		caps[i] = beacon(t, i)
	}
	for round := 0; round < 20; round++ {
		k, err := New(Config{NodeID: "K1"})
		if err != nil {
			t.Fatal(err)
		}
		closed, seen := false, 0
		k.Manager().Install(&hookModule{fn: func(*packet.Captured) {
			if closed {
				t.Error("module ran after Close returned")
			}
			seen++
		}}, nil)
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, c := range caps {
					k.HandleCapture(c)
				}
			}()
		}
		if err := k.Close(); err != nil {
			t.Fatal(err)
		}
		closed, seen = true, -1
		wg.Wait()
	}
}

func TestHandleCaptureAfterCloseDispatchesNothing(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, InstallAll: true})
	if err != nil {
		t.Fatal(err)
	}
	blackholeTraffic(t, k)
	if len(k.Alerts()) == 0 {
		t.Fatal("no alert before Close")
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	packets := k.Telemetry().Snapshot()["kalis_packets_total"].Value
	alerts := len(k.Alerts())
	blackholeTraffic(t, k)
	if got := k.Telemetry().Snapshot()["kalis_packets_total"].Value; got != packets {
		t.Errorf("kalis_packets_total = %v after Close, want %v", got, packets)
	}
	if got := len(k.Alerts()); got != alerts {
		t.Errorf("alerts = %d after Close, want %d", got, alerts)
	}
	if got := k.Store().Total(); got != 31 {
		t.Errorf("data store total = %d after Close, want 31", got)
	}
}

func TestDoubleCloseReturnsNil(t *testing.T) {
	k, err := New(Config{NodeID: "K1", InstallAll: true})
	if err != nil {
		t.Fatal(err)
	}
	k.HandleCapture(beacon(t, 0))
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Errorf("second Close = %v, want nil", err)
	}
}

func TestAlertConsumersRunInlineInOrder(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, InstallAll: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	var got []string
	k.OnAlert(func(a module.Alert) { got = append(got, "A:"+a.Attack) })
	k.OnAlert(func(a module.Alert) { got = append(got, "B:"+a.Attack) })
	blackholeTraffic(t, k)
	alerts := k.Alerts()
	if len(alerts) == 0 || len(got) != 2*len(alerts) {
		t.Fatalf("deliveries = %v for %d alerts", got, len(alerts))
	}
	for i, a := range alerts {
		if got[2*i] != "A:"+a.Attack || got[2*i+1] != "B:"+a.Attack {
			t.Fatalf("deliveries = %v, want A then B for each of %d alerts", got, len(alerts))
		}
	}
}

func TestEventCountersMatchDeliveries(t *testing.T) {
	k, err := New(Config{NodeID: "K1", KnowledgeDriven: true, InstallAll: true})
	if err != nil {
		t.Fatal(err)
	}
	var alerts, knowggets, records int64
	k.OnAlert(func(module.Alert) { alerts++ })
	k.OnKnowledge(func(knowledge.Knowgget) { knowggets++ })
	k.OnFlowRecord(func(flow.Record) { records++ })
	blackholeTraffic(t, k)
	if err := k.Close(); err != nil { // flushes the remaining flows
		t.Fatal(err)
	}
	if alerts == 0 || knowggets == 0 || records == 0 {
		t.Fatalf("deliveries: alerts=%d knowggets=%d records=%d", alerts, knowggets, records)
	}
	var sb strings.Builder
	if err := k.Telemetry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for topic, want := range map[string]int64{
		"packet": 31, "detection": alerts, "knowledge": knowggets, "flow.records": records,
	} {
		line := fmt.Sprintf("kalis_bus_publishes_total{topic=%q} %d\n", topic, want)
		if !strings.Contains(out, line) {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
}
