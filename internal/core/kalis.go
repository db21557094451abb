// Package core assembles a complete Kalis node from its components
// (Fig. 4): the Communication System hands each captured packet to
// HandleCapture, which dispatches it to the Data Store, the flow table
// and the Module Manager; sensing modules distill knowggets into the
// Knowledge Base; the Knowledge Base drives dynamic activation of
// detection modules; alerts flow to subscribers (dashboards,
// countermeasures, the smart firewall) and collective knowledge
// synchronizes with peer Kalis nodes. Every event is delivered inline by
// the component that produces it: alerts by the Module Manager,
// knowledge changes by the Knowledge Base, flow records by the flow
// table.
package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"kalis/internal/core/collective"
	"kalis/internal/core/datastore"
	"kalis/internal/core/detection"
	"kalis/internal/core/kconfig"
	"kalis/internal/core/knowledge"
	"kalis/internal/core/module"
	"kalis/internal/core/sensing"
	"kalis/internal/flow"
	"kalis/internal/packet"
	"kalis/internal/persist"
	"kalis/internal/telemetry"
)

// Config configures a Kalis node.
type Config struct {
	// NodeID identifies this Kalis node (the knowgget creator field).
	NodeID string
	// KnowledgeDriven enables adaptive module activation; disabling it
	// yields the paper's traditional-IDS baseline (all installed
	// modules always active, no knowledge use).
	KnowledgeDriven bool
	// WindowSize is the Data Store sliding-window capacity (packets);
	// 0 selects the default.
	WindowSize int
	// ConfigText is an optional configuration file in the Fig. 6
	// grammar: module activations and a-priori knowggets.
	ConfigText string
	// InstallAll installs every registered module (the usual Kalis
	// deployment: the whole module library is available and the
	// Knowledge Base decides what runs). Modules listed in ConfigText
	// are installed with their parameters either way.
	InstallAll bool
	// StateDir, when non-empty, enables durable state: the Knowledge
	// Base and Data Store window are recovered from this directory at
	// startup (warm restart) and persisted across the node's lifetime
	// via a write-ahead journal and periodic snapshots. Empty disables
	// persistence entirely.
	StateDir string
	// PersistInterval is the snapshot-compaction interval on the
	// capture clock; 0 selects persist.DefaultInterval. Ignored without
	// StateDir.
	PersistInterval time.Duration
}

// Kalis is one IDS node. One Data Store, one flow table and one
// Module Manager own all module state; packets are dispatched inside
// HandleCapture.
type Kalis struct {
	id       string
	kb       *knowledge.Base
	store    *datastore.Store
	registry *module.Registry
	manager  *module.Manager
	flows    *flow.Table
	coll     *collective.Node
	tel      *telemetry.Registry
	persist  *persist.Manager

	// packetPubs counts dispatched packets on the
	// kalis_bus_publishes_total{topic="packet"} child, resolved once at
	// wiring time.
	packetPubs *telemetry.Counter

	// dispatchMu gives module state a single owner at a time. Knowledge
	// Base subscriptions run module callbacks on the writer's
	// goroutine, so packet dispatch, a-priori knowledge writes,
	// module installs and the collective's application of gossiped
	// knowledge (which runs on the transport's socket goroutine) must
	// not interleave. It also guards closed: an in-flight dispatch
	// holds the lock, so Close waits for it.
	dispatchMu sync.Mutex
	closed     bool
}

// New builds a Kalis node.
func New(cfg Config) (*Kalis, error) {
	if cfg.NodeID == "" {
		cfg.NodeID = "K1"
	}
	kb := knowledge.NewBase(cfg.NodeID)
	registry := module.NewRegistry()
	sensing.Register(registry)
	detection.Register(registry)
	store := datastore.New(cfg.WindowSize)
	table := flow.NewTable(flow.Config{})
	manager := module.NewManager(kb, store, table, cfg.KnowledgeDriven)
	tel := telemetry.NewRegistry()
	packetPubs := wireTelemetry(tel, kb, manager, store, table)

	k := &Kalis{
		id:         cfg.NodeID,
		kb:         kb,
		store:      store,
		registry:   registry,
		manager:    manager,
		flows:      table,
		tel:        tel,
		packetPubs: packetPubs,
	}
	// Durable state recovers BEFORE modules are installed and before
	// any traffic flows: knowledge-driven activation at install time
	// must see the recovered Knowledge Base, and recovery bulk-loads
	// without firing knowledge events.
	if cfg.StateDir != "" {
		pm, err := persist.Open(persist.Config{
			Dir:      cfg.StateDir,
			Interval: cfg.PersistInterval,
			Metrics: persist.Metrics{
				Snapshots: tel.Counter("kalis_persist_snapshot_total",
					"Durable snapshots written (periodic compaction and shutdown flush)."),
				JournalBytes: tel.Gauge("kalis_persist_journal_bytes",
					"Current size of the KB write-ahead journal in bytes."),
				Recoveries: tel.CounterVec("kalis_persist_recoveries_total", "outcome",
					"State recoveries at startup, by outcome (warm, truncated, cold)."),
			},
		}, kb, store)
		if err != nil {
			return nil, fmt.Errorf("kalis: persist: %w", err)
		}
		k.persist = pm
	}
	installed := make(map[string]bool)
	if cfg.ConfigText != "" {
		parsed, err := kconfig.Parse(cfg.ConfigText)
		if err != nil {
			return nil, fmt.Errorf("kalis: config: %w", err)
		}
		for _, kg := range parsed.Knowggets {
			kb.PutStatic(kg.Label, kg.Entity, kg.Value)
		}
		for _, def := range parsed.Modules {
			if err := k.Install(def.Name, def.Params); err != nil {
				return nil, fmt.Errorf("kalis: config: %w", err)
			}
			installed[def.Name] = true
		}
	}
	if cfg.InstallAll {
		for _, name := range registry.Names() {
			if installed[name] {
				continue
			}
			if err := k.Install(name, nil); err != nil {
				return nil, fmt.Errorf("kalis: install %s: %w", name, err)
			}
		}
	}
	return k, nil
}

// wireTelemetry registers the node's runtime metrics and installs the
// hooks into every instrumented component. Metric names are documented
// in the "Runtime telemetry" section of README.md. It returns the
// packet child of kalis_bus_publishes_total, which HandleCapture
// increments; the other children count where their events are
// delivered.
func wireTelemetry(tel *telemetry.Registry, kb *knowledge.Base, manager *module.Manager, store *datastore.Store, table *flow.Table) *telemetry.Counter {
	pubs := tel.CounterVec("kalis_bus_publishes_total", "topic",
		"Events dispatched, by topic (packet, knowledge, detection, flow.records).")
	packetPubs := pubs.With("packet")
	knowledgePubs := pubs.With("knowledge")
	detectionPubs := pubs.With("detection")
	flowPubs := pubs.With("flow.records")
	kb.SubscribeAll(func(knowledge.Knowgget) { knowledgePubs.Inc() })
	table.OnExport(func(flow.Record) { flowPubs.Inc() })
	alerts := tel.CounterVec("kalis_alerts_total", "attack",
		"Detection alerts raised, by canonical attack name.")
	manager.OnAlert(func(a module.Alert) {
		//lint:ignore hotpath alerts are rare and cooldown-gated; one label lookup per alert is off the per-packet budget
		alerts.With(a.Attack).Inc()
		detectionPubs.Inc()
	})
	manager.SetMetrics(module.ManagerMetrics{
		Packets: tel.Counter("kalis_packets_total",
			"Packets dispatched to the module pipeline."),
		ActiveModules: tel.Gauge("kalis_modules_active",
			"Currently active modules (knowledge-driven adaptation)."),
		PacketLatency: tel.HistogramVec("kalis_module_packet_seconds", "module",
			"Per-module packet-handling latency.", nil),
		Panics: tel.CounterVec("kalis_module_panics_total", "module",
			"Module panics recovered by the supervisor, by module."),
		Quarantined: tel.Gauge("kalis_module_quarantined",
			"Modules currently withheld from dispatch after a panic."),
		FlowLatency: tel.Histogram("kalis_flow_update_seconds",
			"Per-packet flow-table and feature update latency.", nil),
	})
	store.SetMetrics(datastore.StoreMetrics{
		Appended: tel.Counter("kalis_store_appended_total",
			"Packets ever appended to the Data Store."),
		Occupancy: tel.Gauge("kalis_store_window_occupancy",
			"Packets currently held in the Data Store sliding window."),
	})
	tel.GaugeFunc("kalis_store_window_capacity",
		"Data Store sliding-window capacity in packets.",
		func() float64 { return float64(store.Capacity()) })
	table.SetMetrics(flow.Metrics{
		Expirations: tel.Counter("kalis_flow_expirations_total",
			"Flows exported after idle or active timeout (incl. shutdown flush)."),
		Evictions: tel.Counter("kalis_flow_evictions_total",
			"Flows exported early because the table hit its capacity bound."),
		Active: tel.Gauge("kalis_flow_active",
			"Flows currently tracked in the flow table."),
	})
	telemetry.RegisterRuntimeMetrics(tel)
	return packetPubs
}

// ID returns the node identifier.
func (k *Kalis) ID() string { return k.id }

// Telemetry returns the node's runtime-metrics registry, always
// populated: instrumentation is cheap enough to stay on (see
// BenchmarkTelemetryHotPath in internal/telemetry).
func (k *Kalis) Telemetry() *telemetry.Registry { return k.tel }

// KB returns the node's Knowledge Base.
func (k *Kalis) KB() *knowledge.Base { return k.kb }

// Store returns the node's Data Store.
func (k *Kalis) Store() *datastore.Store { return k.store }

// Manager returns the node's Module Manager.
func (k *Kalis) Manager() *module.Manager { return k.manager }

// Registry returns the node's module registry (for installing custom
// modules).
func (k *Kalis) Registry() *module.Registry { return k.registry }

// Install instantiates a registered module by name and installs it.
// Installing may activate the module, so it takes the dispatch lock:
// it must not be called from inside an alert, knowledge or flow-record
// consumer, which already runs under that lock.
func (k *Kalis) Install(name string, params map[string]string) error {
	mod, err := k.registry.New(name, params)
	if err != nil {
		return err
	}
	k.dispatchMu.Lock()
	defer k.dispatchMu.Unlock()
	k.manager.Install(mod, params)
	return nil
}

// PutKnowledge stores an a-priori (static) knowgget. Knowledge Base
// subscribers activate and deactivate modules on the writing
// goroutine, so the write takes the dispatch lock: it must not be
// called from inside an alert, knowledge or flow-record consumer,
// which already runs under that lock.
func (k *Kalis) PutKnowledge(label, entity, value string) {
	k.dispatchMu.Lock()
	defer k.dispatchMu.Unlock()
	k.kb.PutStatic(label, entity, value)
}

// HandleCapture feeds one captured packet into the node — the entry
// point wired to sniffers and trace replay. Every module has seen the
// packet when it returns. After Close it dispatches nothing.
func (k *Kalis) HandleCapture(c *packet.Captured) {
	k.dispatchMu.Lock()
	defer k.dispatchMu.Unlock()
	if k.closed {
		return
	}
	k.packetPubs.Inc()
	//lint:ignore lockorder dispatchMu is the module-state owner lock: only HandleCapture, PutKnowledge, Install, Close and the collective's KB writes take it, and no alert, knowledge or flow-record consumer does, so inline delivery under it never re-enters it
	k.manager.HandlePacket(c)
	if k.persist != nil {
		// Compaction runs on the capture clock, like every other
		// time-driven behavior in the pipeline.
		k.persist.Tick(c.Time)
	}
}

// OnAlert registers a detection-event consumer. The Module Manager
// calls it inline, in registration order, for every raised alert.
func (k *Kalis) OnAlert(fn func(module.Alert)) { k.manager.OnAlert(fn) }

// OnKnowledge registers a knowledge-event consumer. The Knowledge Base
// calls it inline for every change.
func (k *Kalis) OnKnowledge(fn func(knowledge.Knowgget)) { k.kb.SubscribeAll(fn) }

// Alerts returns every alert collected so far.
func (k *Kalis) Alerts() []module.Alert { return k.manager.Alerts() }

// ActiveModules returns the names of currently active modules.
func (k *Kalis) ActiveModules() []string { return k.manager.Active() }

// QuarantinedModules returns the modules the supervisor currently
// withholds from dispatch after a panic.
func (k *Kalis) QuarantinedModules() []string { return k.manager.Quarantined() }

// ModuleHealth reports every installed module's activation and
// supervision state ("inactive", "healthy", "quarantined", "probing").
func (k *Kalis) ModuleHealth() map[string]string { return k.manager.Health() }

// Flows returns the node's flow table.
func (k *Kalis) Flows() *flow.Table { return k.flows }

// OnFlowRecord registers a consumer for exported flow records (flows
// that expired, were evicted, or were flushed at shutdown). The flow
// table calls it inline.
func (k *Kalis) OnFlowRecord(fn func(flow.Record)) { k.flows.OnExport(fn) }

// SetLog enables traffic logging to w in the Kalis trace format.
func (k *Kalis) SetLog(w io.Writer) { k.store.SetLog(w) }

// EnableCollective attaches collective knowledge management over the
// given transport with a pre-shared passphrase.
func (k *Kalis) EnableCollective(t collective.Transport, passphrase string) error {
	n, err := collective.NewNode(k.kb, t, passphrase, &k.dispatchMu)
	if err != nil {
		return err
	}
	n.SetMetrics(collective.Metrics{
		SyncSent: k.tel.Counter("kalis_collective_sync_sent_total",
			"Knowgget updates pushed to peer Kalis nodes."),
		SyncReceived: k.tel.Counter("kalis_collective_sync_received_total",
			"Creator-verified knowgget updates accepted from peers."),
		SyncRejected: k.tel.Counter("kalis_collective_sync_rejected_total",
			"Knowgget updates refused (creator mismatch)."),
		Peers: k.tel.Gauge("kalis_collective_peers",
			"Discovered peer Kalis nodes."),
		Evictions: k.tel.Counter("kalis_collective_peer_evictions_total",
			"Peers evicted for silence (TTL) or to respect the table bound."),
		SendRetries: k.tel.Counter("kalis_collective_send_retries_total",
			"Retransmissions after transient peer-send failures."),
		Malformed: k.tel.Counter("kalis_collective_malformed_total",
			"Datagrams discarded as malformed (failed decrypt or parse)."),
		DigestsSent: k.tel.Counter("kalis_collective_digests_sent_total",
			"Anti-entropy gossip digests sent to fan-out peers."),
		DigestsReceived: k.tel.Counter("kalis_collective_digests_received_total",
			"Anti-entropy gossip digests received from peers."),
		DeltasSent: k.tel.Counter("kalis_collective_deltas_sent_total",
			"Delta messages sent (piggybacked flushes, pulls, bootstraps)."),
		DeltasReceived: k.tel.Counter("kalis_collective_deltas_received_total",
			"Delta sections applied from peers."),
		BytesSent: k.tel.Counter("kalis_collective_bytes_sent_total",
			"Sealed collective wire bytes sent."),
		BytesReceived: k.tel.Counter("kalis_collective_bytes_received_total",
			"Sealed collective wire bytes received."),
	})
	k.coll = n
	return nil
}

// Collective returns the collective-knowledge manager, or nil.
func (k *Kalis) Collective() *collective.Node { return k.coll }

// SuggestConfig distills the node's current knowledge into a fixed
// configuration file — the paper's envisioned compile-time deployment
// for very small devices (§VIII): "selecting a specific module
// configuration — based on the knowledge collected by Kalis in a
// network — and ... deploy that configuration at compile-time". The
// output lists the detection modules the current knowledge requires
// (with their installed parameters) and pins the discovered network
// features as a-priori knowggets, so a constrained node skips
// discovery entirely. The result parses back with kconfig.Parse.
func (k *Kalis) SuggestConfig() string {
	cfg := &kconfig.Config{}
	for _, name := range k.manager.Active() {
		if kind, ok := k.manager.ModuleKind(name); !ok || kind != module.KindDetection {
			continue
		}
		def := kconfig.ModuleDef{Name: name}
		if params := k.manager.ParamsOf(name); len(params) > 0 {
			def.Params = params
		}
		cfg.Modules = append(cfg.Modules, def)
	}
	for _, label := range []string{
		knowledge.LabelMultihop, knowledge.LabelMobility, knowledge.LabelEncrypted,
	} {
		if v, ok := k.kb.Value(label); ok {
			cfg.Knowggets = append(cfg.Knowggets, kconfig.KnowggetDef{Label: label, Value: v})
		}
	}
	for _, kg := range k.kb.QueryPrefix(knowledge.EscapeComponent(k.id) + "$" + knowledge.LabelMediums + ".") {
		cfg.Knowggets = append(cfg.Knowggets, kconfig.KnowggetDef{Label: kg.Label, Value: kg.Value})
	}
	return kconfig.Generate(cfg)
}

// Persistence returns the durable-state manager, or nil when the node
// runs without a state directory.
func (k *Kalis) Persistence() *persist.Manager { return k.persist }

// Close shuts the node down: it waits for an in-flight HandleCapture
// and stops further dispatch, the flow table flushes its remaining
// flows as records, the traffic log flushes and closes, durable state
// takes its final snapshot, and the collective layer closes. A second
// Close returns nil. Close must not be called from inside a consumer.
func (k *Kalis) Close() error {
	k.dispatchMu.Lock()
	closed := k.closed
	k.closed = true
	k.dispatchMu.Unlock()
	if closed {
		return nil
	}
	k.flows.Flush()
	err := k.store.CloseLog()
	if k.persist != nil {
		if perr := k.persist.Stop(); err == nil {
			err = perr
		}
	}
	if k.coll != nil {
		if cerr := k.coll.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
