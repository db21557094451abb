package fault

import (
	"reflect"
	"testing"
	"time"

	"kalis/internal/core/collective"
	"kalis/internal/core/knowledge"
	"kalis/internal/netsim"
	"kalis/internal/packet"
)

// recordingEndpoint captures datagrams delivered to a hub endpoint.
type recording struct {
	data [][]byte
}

func endpointPair(t *testing.T) (collective.Transport, *recording) {
	t.Helper()
	hub := collective.NewHub()
	src := hub.Endpoint("src")
	dst := hub.Endpoint("dst")
	rec := &recording{}
	dst.SetHandler(func(from string, data []byte) {
		cp := make([]byte, len(data))
		copy(cp, data)
		rec.data = append(rec.data, cp)
	})
	return src, rec
}

func TestDropIsSeededAndDeterministic(t *testing.T) {
	pattern := func() ([]bool, map[string]uint64) {
		src, rec := endpointPair(t)
		inj := New(42)
		ft := inj.WrapTransport(src, LinkFaults{Drop: 0.3})
		var delivered []bool
		for i := 0; i < 50; i++ {
			before := len(rec.data)
			if err := ft.Send("dst", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			delivered = append(delivered, len(rec.data) > before)
		}
		return delivered, inj.Counts()
	}
	d1, c1 := pattern()
	d2, c2 := pattern()
	if !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(c1, c2) {
		t.Fatal("same seed produced different drop patterns")
	}
	if c1[KindDrop] == 0 {
		t.Fatal("no drops injected at p=0.3 over 50 sends")
	}
	dropped := 0
	for _, ok := range d1 {
		if !ok {
			dropped++
		}
	}
	if uint64(dropped) != c1[KindDrop] {
		t.Fatalf("observed %d drops, counted %d", dropped, c1[KindDrop])
	}
}

func TestDuplicateAndCorrupt(t *testing.T) {
	src, rec := endpointPair(t)
	inj := New(7)
	ft := inj.WrapTransport(src, LinkFaults{Duplicate: 1.0})
	if err := ft.Send("dst", []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	if len(rec.data) != 2 {
		t.Fatalf("duplicate p=1: delivered %d datagrams", len(rec.data))
	}

	ft.SetFaults(LinkFaults{Corrupt: 1.0})
	orig := []byte{0x01, 0x02, 0x03, 0x04}
	if err := ft.Send("dst", append([]byte(nil), orig...)); err != nil {
		t.Fatal(err)
	}
	got := rec.data[len(rec.data)-1]
	if reflect.DeepEqual(got, orig) {
		t.Fatal("corrupt p=1 delivered the original bytes")
	}
	diff := 0
	for i := range orig {
		if got[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt flipped %d bytes (want exactly 1)", diff)
	}
	c := inj.Counts()
	if c[KindDuplicate] != 1 || c[KindCorrupt] != 1 {
		t.Fatalf("counts = %v", c)
	}
}

func TestReorderSwapsAdjacentFrames(t *testing.T) {
	src, rec := endpointPair(t)
	inj := New(1)
	ft := inj.WrapTransport(src, LinkFaults{Reorder: 1.0})
	_ = ft.Send("dst", []byte{1}) // held
	ft.SetFaults(LinkFaults{})    // next send releases it
	_ = ft.Send("dst", []byte{2})
	if len(rec.data) != 2 || rec.data[0][0] != 2 || rec.data[1][0] != 1 {
		t.Fatalf("delivery order = %v (want [2] then [1])", rec.data)
	}
	if inj.Counts()[KindReorder] != 1 {
		t.Fatalf("counts = %v", inj.Counts())
	}
}

func TestPartitionBlocksBothDirectionsUntilHeal(t *testing.T) {
	hub := collective.NewHub()
	kb1 := knowledge.NewBase("K1")
	kb2 := knowledge.NewBase("K2")
	inj := New(9)
	ft1 := inj.WrapTransport(hub.Endpoint("addr1"), LinkFaults{})
	n1, err := collective.NewNode(kb1, ft1, "secret", nil)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := collective.NewNode(kb2, hub.Endpoint("addr2"), "secret", nil)
	if err != nil {
		t.Fatal(err)
	}
	n1.Beacon()
	n2.Beacon()
	if len(n1.Peers()) != 1 || len(n2.Peers()) != 1 {
		t.Fatal("discovery failed")
	}

	ft1.Partition("addr2")
	kb1.PutCollective("SuspectBlackhole", "0x0005", "7")
	n1.Gossip() // outbound: blocked
	if _, ok := kb2.Get("K1$SuspectBlackhole@0x0005"); ok {
		t.Fatal("update crossed an outbound partition")
	}
	kb2.PutCollective("EmergentSource", "0x0009", "3")
	n2.Gossip() // inbound: blocked on K1's wrapped side
	if _, ok := kb1.Get("K2$EmergentSource@0x0009"); ok {
		t.Fatal("update crossed an inbound partition")
	}
	if inj.Counts()[KindPartition] < 3 { // Partition() + 2 blocked datagrams
		t.Fatalf("counts = %v", inj.Counts())
	}

	ft1.Heal()
	kb1.PutCollective("SuspectBlackhole", "0x0006", "8")
	n1.Gossip()
	if _, ok := kb2.Get("K1$SuspectBlackhole@0x0006"); !ok {
		t.Fatal("update lost after heal")
	}
	// The digest ride-along also recovered everything that was lost
	// inside the partition window, in both directions.
	if _, ok := kb2.Get("K1$SuspectBlackhole@0x0005"); !ok {
		t.Fatal("partition-window update not recovered by anti-entropy")
	}
	n2.Gossip()
	if _, ok := kb1.Get("K2$EmergentSource@0x0009"); !ok {
		t.Fatal("inbound partition-window update not recovered")
	}
}

func TestDelayDefersOnVirtualClock(t *testing.T) {
	src, rec := endpointPair(t)
	sim := netsim.New(5)
	inj := New(5)
	inj.SetScheduler(sim)
	ft := inj.WrapTransport(src, LinkFaults{Delay: 1.0, MaxDelay: time.Second})
	if err := ft.Send("dst", []byte{9}); err != nil {
		t.Fatal(err)
	}
	if len(rec.data) != 0 {
		t.Fatal("delayed datagram delivered immediately")
	}
	sim.RunFor(time.Second)
	if len(rec.data) != 1 {
		t.Fatalf("delayed datagram not delivered after virtual second: %d", len(rec.data))
	}
	if inj.Counts()[KindDelay] != 1 {
		t.Fatalf("counts = %v", inj.Counts())
	}
}

func TestFrameLossIsDeterministic(t *testing.T) {
	run := func() (int, map[string]uint64) {
		sim := netsim.New(3)
		inj := New(3)
		tx := sim.AddNode(&netsim.Node{Name: "tx", Pos: netsim.Position{}, TxPower: 0})
		rxCount := 0
		rx := sim.AddNode(&netsim.Node{Name: "rx", Pos: netsim.Position{X: 1}, TxPower: 0})
		rx.OnReceive(func(m packet.Medium, raw []byte, from *netsim.Node, rssi float64) { rxCount++ })
		inj.FrameLoss(sim, 0.4)
		for i := 0; i < 100; i++ {
			sim.After(time.Duration(i)*time.Millisecond, func() {
				sim.Transmit(tx, packet.MediumIEEE802154, []byte{0x01}, nil)
			})
		}
		sim.RunFor(time.Second)
		return rxCount, inj.Counts()
	}
	r1, c1 := run()
	r2, c2 := run()
	if r1 != r2 || !reflect.DeepEqual(c1, c2) {
		t.Fatalf("same seed diverged: %d vs %d, %v vs %v", r1, r2, c1, c2)
	}
	if c1[KindFrameLoss] == 0 || r1 == 0 {
		t.Fatalf("loss=%d received=%d — fault or radio misconfigured", c1[KindFrameLoss], r1)
	}
	if r1+int(c1[KindFrameLoss]) != 100 {
		t.Fatalf("received %d + lost %d != 100 transmitted", r1, c1[KindFrameLoss])
	}
}

func TestCrashAndReboot(t *testing.T) {
	sim := netsim.New(11)
	inj := New(11)
	inj.SetScheduler(sim)
	tx := sim.AddNode(&netsim.Node{Name: "tx", Pos: netsim.Position{}, TxPower: 0})
	received := 0
	rx := sim.AddNode(&netsim.Node{Name: "rx", Pos: netsim.Position{X: 1}, TxPower: 0})
	rx.OnReceive(func(packet.Medium, []byte, *netsim.Node, float64) { received++ })

	inj.CrashNode(sim, "tx", 100*time.Millisecond, 200*time.Millisecond)
	for i := 0; i < 40; i++ {
		i := i
		sim.After(time.Duration(i*10)*time.Millisecond, func() {
			sim.Transmit(tx, packet.MediumIEEE802154, []byte{byte(i)}, nil)
		})
	}
	sim.RunFor(time.Second)
	// 10 frames before the crash (t=0..90), 20 silenced (t=100..290),
	// 10 after reboot (t=300..390).
	if received != 20 {
		t.Fatalf("received %d frames (want 20: crash window silenced)", received)
	}
	if inj.Counts()[KindCrash] != 1 {
		t.Fatalf("counts = %v", inj.Counts())
	}

	sc := Scenario{Name: "noop", Steps: []Step{{After: 0, Name: "n", Do: func() {}}}}
	inj.Run(sc) // scheduled path smoke-covered; immediate path below
	New(0).Run(sc)
	sim.RunFor(time.Millisecond)
}
