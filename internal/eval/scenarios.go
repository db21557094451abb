package eval

import (
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"time"

	"kalis/internal/attack"
	"kalis/internal/attacks"
	"kalis/internal/devices"
	"kalis/internal/netsim"
	"kalis/internal/packet"
	"kalis/internal/proto/stack"
	"kalis/internal/trace"
)

// Run is one built scenario instance ready to execute.
type Run struct {
	Sim       *netsim.Sim
	Sniffer   *netsim.Sniffer
	Instances []attacks.Instance
	// End is when the simulation should stop.
	End time.Time
	// Attackers are the true malicious identities.
	Attackers map[packet.NodeID]bool
	// Victim is the primary victim identity, when meaningful.
	Victim packet.NodeID
	// Nodes maps on-air identities to simulation nodes (for the
	// revocation countermeasure).
	Nodes map[packet.NodeID]*netsim.Node
	// Mover is non-nil for scenarios with mobility phases.
	Mover *netsim.JitterMover
}

// Scenario is a reproducible attack scenario.
type Scenario struct {
	// Name is the scenario identifier used in reports.
	Name string
	// Attack is the canonical attack name injected.
	Attack string
	// Medium describes the traffic Kalis must monitor.
	Medium string
	// Episodes is the number of symptom instances (the paper uses 50).
	Episodes int
	// Build constructs the simulation for one run.
	Build func(seed int64, episodes int) *Run
}

// DefaultEpisodes is the per-scenario symptom-instance count (§VI-A:
// "we run the systems on 50 symptom instances").
const DefaultEpisodes = 50

// --- WiFi smart-home scenarios ---

// buildLAN assembles the heterogeneous smart-home WiFi segment shared
// by the IP-based scenarios: a cloud endpoint, an echo-responding
// victim host, and background devices (thermostat, bulb, camera) whose
// traffic trains the Traffic Statistics and Mobility Awareness
// baselines. Distances from the sniffer are staggered so every device
// has a distinguishable RSSI fingerprint.
type lan struct {
	sim      *netsim.Sim
	sniffer  *netsim.Sniffer
	cloudIP  netip.Addr
	victim   *netsim.Node
	attacker *netsim.Node
	nodes    map[packet.NodeID]*netsim.Node
}

func buildLAN(seed int64) *lan {
	sim := netsim.New(seed)
	sniffer := sim.AddSniffer("kalis", netsim.Position{}, packet.MediumWiFi)

	l := &lan{sim: sim, sniffer: sniffer, cloudIP: netip.MustParseAddr("34.1.2.3")}
	l.nodes = make(map[packet.NodeID]*netsim.Node)

	add := func(name, ip string, pos netsim.Position) *netsim.Node {
		n := sim.AddNode(&netsim.Node{Name: name, IP: netip.MustParseAddr(ip), Pos: pos})
		l.nodes[packet.NodeID(ip)] = n
		return n
	}

	cloud := add("cloud", "34.1.2.3", netsim.Position{X: 6})
	devices.NewCloudPeer(cloud)

	l.victim = add("victim", "192.168.1.10", netsim.Position{X: 10})
	devices.NewIPHost(l.victim)

	thermo := add("nest", "192.168.1.11", netsim.Position{Y: 14})
	th := devices.NewThermostat(thermo, l.cloudIP)
	th.Interval = 45 * time.Second
	th.Start(sim.Now().Add(2 * time.Second))

	bulbN := add("lifx", "192.168.1.12", netsim.Position{X: 18})
	bulb := devices.NewBulb(bulbN)
	bulb.Start(sim.Now().Add(3 * time.Second))

	camN := add("arlo", "192.168.1.13", netsim.Position{Y: 23})
	cam := devices.NewCamera(camN, l.cloudIP)
	cam.Start(sim.Now().Add(4 * time.Second))

	// The attacker platform doubles as a benign bulb, so its RSSI
	// fingerprint is learned from its own legitimate traffic.
	l.attacker = add("compromised", "192.168.1.66", netsim.Position{X: 30})
	atkBulb := devices.NewBulb(l.attacker)
	atkBulb.Interval = 8 * time.Second
	atkBulb.Start(sim.Now().Add(5 * time.Second))

	return l
}

func (l *lan) run(insts []attacks.Instance, attackers []packet.NodeID, victim packet.NodeID, end time.Time) *Run {
	set := make(map[packet.NodeID]bool, len(attackers))
	for _, a := range attackers {
		set[a] = true
	}
	return &Run{
		Sim:       l.sim,
		Sniffer:   l.sniffer,
		Instances: insts,
		End:       end,
		Attackers: set,
		Victim:    victim,
		Nodes:     l.nodes,
	}
}

func icmpFloodScenario() Scenario {
	return Scenario{
		Name:     "icmp-flood/single-hop",
		Attack:   attack.ICMPFlood,
		Medium:   "wifi",
		Episodes: DefaultEpisodes,
		Build: func(seed int64, episodes int) *Run {
			l := buildLAN(seed)
			sched := attacks.Schedule{
				Start:    l.sim.Now().Add(60 * time.Second),
				Count:    episodes,
				Every:    20 * time.Second,
				Duration: 3 * time.Second,
			}
			inj := &attacks.ICMPFlood{
				Attacker: l.attacker,
				Victim:   l.victim.IP,
				Spoofed: []netip.Addr{
					netip.MustParseAddr("192.168.1.11"),
					netip.MustParseAddr("192.168.1.12"),
					netip.MustParseAddr("192.168.1.13"),
				},
			}
			insts := inj.Inject(l.sim, sched)
			end := insts[len(insts)-1].End.Add(15 * time.Second)
			return l.run(insts, []packet.NodeID{"192.168.1.66"}, "192.168.1.10", end)
		},
	}
}

func smurfScenario() Scenario {
	return Scenario{
		Name:     "smurf/multi-hop",
		Attack:   attack.Smurf,
		Medium:   "wifi",
		Episodes: DefaultEpisodes,
		Build: func(seed int64, episodes int) *Run {
			l := buildLAN(seed)
			// A router relays Internet-side traffic onto the LAN,
			// making the segment observably multi-hop.
			router := l.sim.AddNode(&netsim.Node{
				Name: "router", IP: netip.MustParseAddr("192.168.1.1"),
				Pos: netsim.Position{X: 4, Y: 4},
			})
			l.nodes["192.168.1.1"] = router
			devices.NewCloudRelay(router, l.cloudIP)
			// Amplifier hosts at staggered distances (distinct RSSI
			// clusters).
			amps := []netip.Addr{
				netip.MustParseAddr("192.168.1.21"),
				netip.MustParseAddr("192.168.1.22"),
				netip.MustParseAddr("192.168.1.23"),
			}
			// Staggered distances (10/20/34 m ≈ −70/−79/−86 dBm) keep
			// the amplifiers' RSSI clusters separable under shadowing.
			positions := []netsim.Position{{Y: 10}, {X: 12, Y: 16}, {X: 30, Y: 16}}
			for i, ip := range amps {
				n := l.sim.AddNode(&netsim.Node{Name: "amp-" + ip.String(), IP: ip, Pos: positions[i]})
				devices.NewIPHost(n)
				l.nodes[packet.NodeID(ip.String())] = n
			}
			sched := attacks.Schedule{
				Start:    l.sim.Now().Add(60 * time.Second),
				Count:    episodes,
				Every:    20 * time.Second,
				Duration: 3 * time.Second,
			}
			inj := &attacks.Smurf{Router: router, Victim: l.victim.IP, Amplifiers: amps}
			insts := inj.Inject(l.sim, sched)
			end := insts[len(insts)-1].End.Add(15 * time.Second)
			return l.run(insts, []packet.NodeID{"192.168.1.1"}, "192.168.1.10", end)
		},
	}
}

func synFloodScenario() Scenario {
	return Scenario{
		Name:     "syn-flood/single-hop",
		Attack:   attack.SYNFlood,
		Medium:   "wifi",
		Episodes: DefaultEpisodes,
		Build: func(seed int64, episodes int) *Run {
			l := buildLAN(seed)
			sched := attacks.Schedule{
				Start:    l.sim.Now().Add(60 * time.Second),
				Count:    episodes,
				Every:    20 * time.Second,
				Duration: 3 * time.Second,
			}
			inj := &attacks.SYNFlood{
				Attacker: l.attacker,
				Victim:   netip.MustParseAddr("192.168.1.13"), // the camera
				Spoofed: []netip.Addr{
					netip.MustParseAddr("10.7.7.1"),
					netip.MustParseAddr("10.7.7.2"),
					netip.MustParseAddr("10.7.7.3"),
					netip.MustParseAddr("10.7.7.4"),
				},
			}
			insts := inj.Inject(l.sim, sched)
			end := insts[len(insts)-1].End.Add(15 * time.Second)
			return l.run(insts, []packet.NodeID{"192.168.1.66"}, "192.168.1.13", end)
		},
	}
}

// --- WSN scenarios ---

// buildWSN assembles the paper's 6-mote CTP network with the Kalis
// sniffer "near the middle portion of the WSN, able to overhear
// intermediate hops" (§VI-A).
func buildWSN(seed int64, count int) (*netsim.Sim, *netsim.Sniffer, []*devices.Mote, map[packet.NodeID]*netsim.Node) {
	sim := netsim.New(seed)
	sniffer := sim.AddSniffer("kalis", netsim.Position{X: float64(count-1) * 10, Y: 15}, packet.MediumIEEE802154)
	motes := devices.BuildWSNLine(sim, count, 20)
	for _, m := range motes {
		m.Start(sim.Now().Add(time.Second))
	}
	nodes := make(map[packet.NodeID]*netsim.Node, count)
	for _, m := range motes {
		nodes[identityOf(m)] = m.Node()
	}
	return sim, sniffer, motes, nodes
}

func identityOf(m *devices.Mote) packet.NodeID {
	return stack.ShortID(m.Addr())
}

func wsnRun(sim *netsim.Sim, sniffer *netsim.Sniffer, nodes map[packet.NodeID]*netsim.Node,
	insts []attacks.Instance, attackers []packet.NodeID) *Run {
	set := make(map[packet.NodeID]bool, len(attackers))
	for _, a := range attackers {
		set[a] = true
	}
	return &Run{
		Sim:       sim,
		Sniffer:   sniffer,
		Instances: insts,
		End:       insts[len(insts)-1].End.Add(30 * time.Second),
		Attackers: set,
		Nodes:     nodes,
	}
}

func selectiveForwardingScenario() Scenario {
	return Scenario{
		Name:     "selective-forwarding/wsn",
		Attack:   attack.SelectiveForwarding,
		Medium:   "802.15.4",
		Episodes: DefaultEpisodes,
		Build: func(seed int64, episodes int) *Run {
			sim, sniffer, motes, nodes := buildWSN(seed, 6)
			sched := attacks.Schedule{
				Start:    sim.Now().Add(60 * time.Second),
				Count:    episodes,
				Every:    75 * time.Second,
				Duration: 30 * time.Second,
			}
			inj := &attacks.SelectiveForwarding{
				Relay: motes[1],
				Rand:  rand.New(rand.NewSource(seed + 1)),
			}
			insts := inj.Inject(sim, sched)
			return wsnRun(sim, sniffer, nodes, insts, []packet.NodeID{identityOf(motes[1])})
		},
	}
}

func blackholeScenario() Scenario {
	return Scenario{
		Name:     "blackhole/wsn",
		Attack:   attack.Blackhole,
		Medium:   "802.15.4",
		Episodes: DefaultEpisodes,
		Build: func(seed int64, episodes int) *Run {
			sim, sniffer, motes, nodes := buildWSN(seed, 6)
			sched := attacks.Schedule{
				Start:    sim.Now().Add(60 * time.Second),
				Count:    episodes,
				Every:    75 * time.Second,
				Duration: 30 * time.Second,
			}
			inj := &attacks.Blackhole{Relay: motes[1]}
			insts := inj.Inject(sim, sched)
			return wsnRun(sim, sniffer, nodes, insts, []packet.NodeID{identityOf(motes[1])})
		},
	}
}

func replicationScenario() Scenario {
	return Scenario{
		Name:     "replication/static-mobile",
		Attack:   attack.Replication,
		Medium:   "802.15.4",
		Episodes: DefaultEpisodes,
		Build: func(seed int64, episodes int) *Run {
			sim, sniffer, motes, nodes := buildWSN(seed, 6)
			// Mobility substrate: every non-base mote jitters around
			// its home position during mobile phases.
			var movable []*netsim.Node
			for _, m := range motes[1:] {
				movable = append(movable, m.Node())
			}
			mover := netsim.NewJitterMover(sim, movable, 12)
			mover.Start(sim.Now().Add(5*time.Second), 2*time.Second)

			sched := attacks.Schedule{
				Start:    sim.Now().Add(90 * time.Second),
				Count:    episodes,
				Every:    60 * time.Second,
				Duration: 30 * time.Second,
			}
			clone := motes[3]
			inj := &attacks.Replication{
				Clone:    clone,
				Position: netsim.Position{X: clone.Node().Pos.X + 30, Y: 28},
			}
			insts := inj.Inject(sim, sched)
			// "The network randomly changes between a static and
			// mobile behavior" (§VI-B2): toggle before each episode,
			// leaving time for Mobility Awareness to settle.
			phaseRng := rand.New(rand.NewSource(seed + 2))
			for _, inst := range insts {
				mobile := phaseRng.Intn(2) == 1
				sim.At(inst.Start.Add(-25*time.Second), func() { mover.SetActive(mobile) })
			}
			r := wsnRun(sim, sniffer, nodes, insts, []packet.NodeID{identityOf(clone)})
			r.Mover = mover
			return r
		},
	}
}

func sybilScenario() Scenario {
	return Scenario{
		Name:     "sybil/wsn",
		Attack:   attack.Sybil,
		Medium:   "802.15.4",
		Episodes: DefaultEpisodes,
		Build: func(seed int64, episodes int) *Run {
			sim, sniffer, _, nodes := buildWSN(seed, 6)
			attacker := sim.AddNode(&netsim.Node{Name: "sybil-platform", Pos: netsim.Position{X: 70, Y: 30}})
			sched := attacks.Schedule{
				Start:    sim.Now().Add(60 * time.Second),
				Count:    episodes,
				Every:    30 * time.Second,
				Duration: 5 * time.Second,
			}
			inj := &attacks.Sybil{Attacker: attacker}
			insts := inj.Inject(sim, sched)
			r := wsnRun(sim, sniffer, nodes, insts, []packet.NodeID{packet.NodeID(attacker.Name)})
			// The sybil identities are fabrications of the platform;
			// count any of them as the attacker for scoring/revocation.
			for ei := 0; ei < episodes; ei++ {
				base := 0x0500 + uint16(ei*5)
				for i := uint16(0); i < 5; i++ {
					r.Attackers[stack.ShortID(base+i)] = true
					r.Nodes[stack.ShortID(base+i)] = attacker
				}
			}
			return r
		},
	}
}

func sinkholeScenario() Scenario {
	return Scenario{
		Name:     "sinkhole/wsn",
		Attack:   attack.Sinkhole,
		Medium:   "802.15.4",
		Episodes: DefaultEpisodes,
		Build: func(seed int64, episodes int) *Run {
			sim, sniffer, motes, nodes := buildWSN(seed, 6)
			sched := attacks.Schedule{
				Start:    sim.Now().Add(90 * time.Second),
				Count:    episodes,
				Every:    30 * time.Second,
				Duration: 5 * time.Second,
			}
			inj := &attacks.Sinkhole{Advertiser: motes[4].Node()}
			insts := inj.Inject(sim, sched)
			return wsnRun(sim, sniffer, nodes, insts, []packet.NodeID{identityOf(motes[4])})
		},
	}
}

func dataAlterationScenario() Scenario {
	return Scenario{
		Name:     "data-alteration/wsn",
		Attack:   attack.DataAlteration,
		Medium:   "802.15.4",
		Episodes: DefaultEpisodes,
		Build: func(seed int64, episodes int) *Run {
			sim, sniffer, motes, nodes := buildWSN(seed, 6)
			sched := attacks.Schedule{
				Start:    sim.Now().Add(60 * time.Second),
				Count:    episodes,
				Every:    30 * time.Second,
				Duration: 10 * time.Second,
			}
			inj := &attacks.DataAlteration{Relay: motes[2]}
			insts := inj.Inject(sim, sched)
			return wsnRun(sim, sniffer, nodes, insts, []packet.NodeID{identityOf(motes[2])})
		},
	}
}

func rplSinkholeScenario() Scenario {
	return Scenario{
		Name:     "sinkhole-rpl/6lowpan",
		Attack:   attack.Sinkhole,
		Medium:   "802.15.4",
		Episodes: DefaultEpisodes,
		Build: func(seed int64, episodes int) *Run {
			sim := netsim.New(seed)
			sniffer := sim.AddSniffer("kalis", netsim.Position{X: 40, Y: 15}, packet.MediumIEEE802154)
			// A 5-node RPL DODAG: root (rank 256) and a line of
			// routers at increasing rank.
			nodes := make(map[packet.NodeID]*netsim.Node, 5)
			for i := 0; i < 5; i++ {
				addr := uint16(i + 1)
				n := sim.AddNode(&netsim.Node{
					Name:   fmt.Sprintf("rpl-%d", i+1),
					Addr16: addr,
					Pos:    netsim.Position{X: float64(i) * 20},
				})
				parent := addr - 1
				if i == 0 {
					parent = addr
				}
				r := devices.NewRPLNode(n, parent, uint16(256*(i+1)), i == 0)
				r.Start(sim.Now().Add(time.Second))
				nodes[stack.ShortID(addr)] = n
			}
			sched := attacks.Schedule{
				Start:    sim.Now().Add(90 * time.Second),
				Count:    episodes,
				Every:    30 * time.Second,
				Duration: 5 * time.Second,
			}
			inj := &attacks.RPLSinkhole{Advertiser: sim.Node("rpl-4")}
			insts := inj.Inject(sim, sched)
			return wsnRun(sim, sniffer, nodes, insts, []packet.NodeID{stack.ShortID(4)})
		},
	}
}

// Scenarios returns the eight attack scenarios of the breadth
// evaluation (Fig. 8). Wormhole (§VI-D) is a two-node experiment and
// lives in the knowledge-sharing driver; data alteration is available
// via AllScenarios.
func Scenarios() []Scenario {
	return []Scenario{
		icmpFloodScenario(),
		smurfScenario(),
		synFloodScenario(),
		selectiveForwardingScenario(),
		blackholeScenario(),
		replicationScenario(),
		sybilScenario(),
		sinkholeScenario(),
	}
}

// AllScenarios additionally includes the data-alteration and
// RPL-sinkhole scenarios.
func AllScenarios() []Scenario {
	return append(Scenarios(), dataAlterationScenario(), rplSinkholeScenario())
}

// ScenarioByName finds a scenario by its Name prefix.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range AllScenarios() {
		if sc.Name == name || sc.Attack == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// Record builds and runs the scenario, writing every overheard frame to
// w in the Kalis trace format: raw bytes re-encoded from the frame's
// outermost decoded layer, with its ground truth (the record half of
// §VI-A's record/replay methodology). Frames whose outermost layer
// cannot re-encode are skipped. It returns the number of frames
// written.
func (sc Scenario) Record(seed int64, episodes int, w io.Writer) (int, error) {
	run := sc.Build(seed, episodes)
	tw := trace.NewWriter(w)
	var werr error
	run.Sniffer.Subscribe(func(c *packet.Captured) {
		raw := reencode(c)
		if raw == nil || werr != nil {
			return
		}
		werr = tw.Write(&trace.Record{Time: c.Time, Medium: c.Medium, RSSI: c.RSSI, Raw: raw, Truth: c.Truth})
	})
	run.Sim.Run(run.End)
	if werr != nil {
		return tw.Count(), werr
	}
	return tw.Count(), tw.Flush()
}

// reencode rebuilds the raw frame from the outermost decoded layer.
func reencode(c *packet.Captured) []byte {
	if len(c.Layers) == 0 {
		return nil
	}
	type encoder interface{ Encode() []byte }
	if e, ok := c.Layers[0].(encoder); ok {
		return e.Encode()
	}
	return nil
}
