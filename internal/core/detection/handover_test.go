package detection

import (
	"testing"
	"time"

	"kalis/internal/core/datastore"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/flow"
	"kalis/internal/packet"
	"kalis/internal/proto/stack"
)

// TestReplicationEvidenceHandover pins why motion trackers come from
// the flow table's shared registry rather than from each module: when
// the network turns mobile, the mobile replication module takes over
// the tracker the static module still holds, with the evidence it
// accumulated. The Manager delivers a knowledge change to modules in
// install order, and InstallAll installs in sorted registry order, so
// the mobile module acquires before the static one releases. The
// reverse flip releases first, so the static module starts afresh.
func TestReplicationEvidenceHandover(t *testing.T) {
	kb := knowledge.NewBase("K1")
	m := module.NewManager(kb, datastore.New(64), flow.NewTable(flow.Config{}), true)
	mobMod, _ := NewReplicationMobile(nil)
	statMod, _ := NewReplicationStatic(nil)
	mob, stat := mobMod.(*ReplicationMobile), statMod.(*ReplicationStatic)
	m.Install(mob, nil)
	m.Install(stat, nil)
	kb.PutBool(knowledge.LabelMediums+"."+packet.MediumIEEE802154.String(), true)
	kb.PutBool(knowledge.LabelMobility, false)

	// Identity 3 alternates between two positions while the network is
	// static; identities 4 and 5 stay put.
	at := t0
	feed := func(id uint16, seq int, rssi float64) {
		raw := stack.BuildCTPData(id, 1, id, uint8(seq), 0, 20, []byte{0x01, uint8(seq)})
		m.HandlePacket(mkCap(t, packet.MediumIEEE802154, raw, at, rssi))
		at = at.Add(100 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		feed(4, i, -62)
		feed(5, i, -58)
		rssi := -60.0
		if i%2 == 1 {
			rssi = -75
		}
		feed(3, i, rssi)
	}
	id := stack.ShortID(3)
	tracker := stat.core.motion
	jumps := tracker.Snapshot(id).Jumps
	if jumps == 0 {
		t.Fatal("static phase recorded no RSSI jumps")
	}

	// Static → mobile: the mobile module holds the static module's
	// tracker, evidence included, and the table keeps driving it.
	kb.PutBool(knowledge.LabelMobility, true)
	if stat.core.motion != nil {
		t.Fatal("static module still holds a tracker after deactivation")
	}
	if mob.core.motion != tracker {
		t.Fatal("mobile module got a fresh tracker instead of the static module's")
	}
	if got := mob.core.motion.Snapshot(id).Jumps; got != jumps {
		t.Errorf("mobile module sees %d jumps, want the static phase's %d", got, jumps)
	}
	feed(3, 10, -60)
	if got := mob.core.motion.Snapshot(id).Jumps; got != jumps+1 {
		t.Errorf("after one more jump the mobile module sees %d jumps, want %d", got, jumps+1)
	}

	// Mobile → static: the mobile module releases the last handle
	// before the static module acquires, so the tracker is rebuilt
	// without evidence.
	kb.PutBool(knowledge.LabelMobility, false)
	if mob.core.motion != nil {
		t.Fatal("mobile module still holds a tracker after deactivation")
	}
	if stat.core.motion == tracker {
		t.Fatal("static module got the released tracker back")
	}
	if got := stat.core.motion.Snapshot(id).Jumps; got != 0 {
		t.Errorf("rebuilt tracker carries %d jumps, want 0", got)
	}
}
