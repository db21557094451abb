package core

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"

	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
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
