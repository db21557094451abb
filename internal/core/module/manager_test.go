package module

import (
	"testing"
	"time"

	"kalis/internal/core/datastore"
	"kalis/internal/core/knowledge"
	"kalis/internal/flow"
	"kalis/internal/packet"
)

// fakeModule is a scriptable module for manager tests.
type fakeModule struct {
	name      string
	kind      Kind
	watch     []string
	required  func(*knowledge.Base) bool
	ctx       *Context
	activated int
	packets   int
}

func (f *fakeModule) Name() string          { return f.name }
func (f *fakeModule) Kind() Kind            { return f.kind }
func (f *fakeModule) WatchLabels() []string { return f.watch }
func (f *fakeModule) Required(kb *knowledge.Base) bool {
	if f.required == nil {
		return true
	}
	return f.required(kb)
}
func (f *fakeModule) Activate(ctx *Context) { f.ctx = ctx; f.activated++ }
func (f *fakeModule) Deactivate()           { f.ctx = nil }
func (f *fakeModule) HandlePacket(c *packet.Captured) {
	f.packets++
	if f.ctx == nil {
		panic("packet to inactive module")
	}
}

func newTestManager(kd bool) (*Manager, *knowledge.Base) {
	kb := knowledge.NewBase("K1")
	return NewManager(kb, datastore.New(16), flow.NewTable(flow.Config{}), kd), kb
}

func TestDynamicActivation(t *testing.T) {
	m, kb := newTestManager(true)
	mod := &fakeModule{
		name:  "M",
		kind:  KindDetection,
		watch: []string{"Multihop"},
		required: func(kb *knowledge.Base) bool {
			v, ok := kb.Bool("Multihop")
			return ok && v
		},
	}
	m.Install(mod, nil)
	if len(m.Active()) != 0 {
		t.Fatal("module active before knowledge")
	}
	kb.PutBool("Multihop", true)
	if got := m.Active(); len(got) != 1 || got[0] != "M" {
		t.Fatalf("active = %v", got)
	}
	if mod.ctx == nil || !mod.ctx.KnowledgeDriven {
		t.Error("context not injected")
	}
	kb.PutBool("Multihop", false)
	if len(m.Active()) != 0 {
		t.Fatal("module not deactivated")
	}
	if mod.activated != 1 {
		t.Errorf("activations = %d", mod.activated)
	}
}

func TestTraditionalModeAllActive(t *testing.T) {
	m, kb := newTestManager(false)
	mod := &fakeModule{
		name:     "M",
		kind:     KindDetection,
		watch:    []string{"Multihop"},
		required: func(*knowledge.Base) bool { return false }, // never required
	}
	m.Install(mod, nil)
	if got := m.Active(); len(got) != 1 {
		t.Fatalf("traditional mode should force-activate: %v", got)
	}
	if mod.ctx.KnowledgeDriven {
		t.Error("context claims knowledge-driven in traditional mode")
	}
	kb.PutBool("Multihop", true) // knowledge changes must not matter
	if len(m.Active()) != 1 {
		t.Error("traditional activation changed with knowledge")
	}
}

func TestPacketRoutingOnlyToActive(t *testing.T) {
	m, kb := newTestManager(true)
	on := &fakeModule{name: "on", kind: KindSensing}
	off := &fakeModule{
		name: "off", kind: KindDetection,
		required: func(*knowledge.Base) bool { return false },
	}
	m.Install(on, nil)
	m.Install(off, nil)
	_ = kb

	c := &packet.Captured{Time: time.Unix(0, 0), Kind: packet.KindUDP}
	m.HandlePacket(c)
	m.HandlePacket(c)
	if on.packets != 2 || off.packets != 0 {
		t.Errorf("routing: on=%d off=%d", on.packets, off.packets)
	}
	pkts, invs, _ := m.Stats()
	if pkts != 2 || invs != 2 {
		t.Errorf("stats: packets=%d invocations=%d", pkts, invs)
	}
}

func TestAlertsCollectedAndFannedOut(t *testing.T) {
	m, _ := newTestManager(true)
	mod := &fakeModule{name: "M", kind: KindDetection}
	m.Install(mod, nil)
	var got []Alert
	m.OnAlert(func(a Alert) { got = append(got, a) })
	mod.ctx.Emit(Alert{Attack: "sybil", Module: "M"})
	if len(m.Alerts()) != 1 || len(got) != 1 {
		t.Fatalf("alerts = %d, callbacks = %d", len(m.Alerts()), len(got))
	}
	if got[0].Attack != "sybil" {
		t.Errorf("alert = %+v", got[0])
	}
}

func TestInstalledOrderAndParams(t *testing.T) {
	m, _ := newTestManager(true)
	a := &fakeModule{name: "A", kind: KindSensing}
	b := &fakeModule{name: "B", kind: KindDetection}
	m.Install(a, map[string]string{"k": "v"})
	m.Install(b, nil)
	inst := m.Installed()
	if len(inst) != 2 || inst[0] != "A" || inst[1] != "B" {
		t.Errorf("installed = %v", inst)
	}
	if a.ctx.Params["k"] != "v" {
		t.Error("params not injected")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register("M", func(params map[string]string) (Module, error) {
		return &fakeModule{name: "M", kind: KindSensing}, nil
	})
	mod, err := r.New("M", nil)
	if err != nil || mod.Name() != "M" {
		t.Fatalf("New: %v", err)
	}
	if _, err := r.New("nope", nil); err == nil {
		t.Error("unknown module instantiated")
	}
	if names := r.Names(); len(names) != 1 || names[0] != "M" {
		t.Errorf("names = %v", names)
	}
}

func TestKindString(t *testing.T) {
	if KindSensing.String() != "sensing" || KindDetection.String() != "detection" {
		t.Error("kind strings")
	}
	if Kind(9).String() != "kind(9)" {
		t.Error("unknown kind string")
	}
}
