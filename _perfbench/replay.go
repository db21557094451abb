package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"kalis"
	"kalis/internal/trace"
)

// recoverySamples is how many warm restarts the persist pass times at
// least, spread evenly over its state dirs: single restarts vary
// widely (9–37 ms within one run).
const recoverySamples = 30

// runner executes one run's phases and collects its samples.
type runner struct {
	cfg       config
	sets      []*traceSet
	stateRoot string

	// tr records spans while tracing is set (traced closed-loop passes).
	tr      *tracer
	tracing bool
	frameID int64
	idx     struct{ readAll, decode, dispatch uint16 }

	// ref holds the reference replay's alerts per trace; every other
	// node that sees the same trace must raise exactly these.
	ref        [][]kalis.Alert
	violations []string
	attempted  int64
	failed     int64

	// End-to-end samples.
	setup    []float64 // s per node
	passPPS  []float64 // closed-loop frames/s per pass
	cpu      time.Duration
	mallocs  uint64
	measured int64     // closed-loop frames behind cpu and mallocs
	heapPass []float64 // max retained MB over a pass's nodes
	svc      []float64 // open-loop µs from send (decode start) to HandleCapture return
	sojourn  []float64 // open-loop µs from due time to HandleCapture return
	late     []float64 // open-loop µs from due time to send

	// Per-layer accounting over traced closed-loop passes.
	layer        layerCounts
	tracedPasses int
	tracedNs     []float64 // per traced pass, ns per frame
	untracedNs   []float64 // per untraced pass (traced mode), ns per frame
	rtStart      runtimeSample
	rtEnd        runtimeSample
	rtFrames     int64
	isolated     isolatedCosts
	persist      persistCosts
	score        scoreSummary
}

// layerCounts are counts taken at the layer boundaries during traced
// closed-loop passes.
type layerCounts struct {
	frames      int64
	modAlerts   map[string]int64
	kbChanges   int64
	kbSignal    int64
	kbTraffic   int64
	flowExports int64
	publishes   map[string]float64
}

// persistCosts are measured on the persist pass's durable nodes.
type persistCosts struct {
	frames       int64
	replay       time.Duration
	snapshots    float64
	journalBytes float64
	closeNs      []float64
	recoveryNs   []float64
}

func newRunner(cfg config, sets []*traceSet, stateRoot string) *runner {
	r := &runner{cfg: cfg, sets: sets, stateRoot: stateRoot}
	r.layer.modAlerts = make(map[string]int64)
	r.layer.publishes = make(map[string]float64)
	if cfg.traced {
		r.tr = newTracer()
		r.idx.readAll = r.tr.id(spanReadAll)
		r.idx.decode = r.tr.id(spanDecode)
		r.idx.dispatch = r.tr.id(spanDispatch)
	}
	return r
}

func (r *runner) violate(format string, args ...interface{}) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// execute runs the reference replay and the measured passes; traced
// runs add the persist pass and the isolated layer loops.
func (r *runner) execute() error {
	if err := r.reference(); err != nil {
		return err
	}
	r.rtStart = readRuntime()
	if err := r.measure(time.Duration(r.cfg.seconds * float64(time.Second))); err != nil {
		return err
	}
	r.rtEnd = readRuntime()
	if !r.cfg.traced {
		return nil
	}
	for i := range r.sets {
		if err := r.persistTrace(i); err != nil {
			return err
		}
	}
	return r.measureIsolated()
}

// reference replays every trace once through a default node; its
// alerts are the ground every other replay is checked against.
func (r *runner) reference() error {
	r.ref = make([][]kalis.Alert, len(r.sets))
	for i, ts := range r.sets {
		n, err := kalis.New()
		if err != nil {
			return err
		}
		replayed, skipped, err := n.ReplayTrace(bytes.NewReader(ts.raw))
		if err != nil {
			return err
		}
		r.checkFrames(ts, n, replayed, skipped, "reference")
		r.ref[i] = n.Alerts()
		if err := n.Close(); err != nil {
			return err
		}
	}
	return nil
}

// measure interleaves whole closed-loop and open-loop passes over the
// workload's traces until the budget is spent, keeping the open loop's
// share of the elapsed time near its target (a quarter; three quarters
// on live workloads). Interleaving lets both loops sample the whole
// window, so a slow spell of the shared machine moves both alike. Each
// loop runs at least one pass. Traced runs alternate untraced and
// traced closed-loop passes (at least one of each) so the tracing
// overhead is measured in-run.
func (r *runner) measure(budget time.Duration) error {
	openShare := 0.25
	if r.cfg.workload.live {
		openShare = 0.75
	}
	minClosed := 1
	if r.cfg.traced {
		minClosed = 2
	}
	var closedTime, openTime time.Duration
	closed, open := 0, 0
	for closed < minClosed || open < 1 || closedTime+openTime < budget {
		start := time.Now()
		if (open == 0 && closed > 0) ||
			(closed >= minClosed && float64(openTime) < openShare*float64(closedTime+openTime)) {
			if err := r.openPass(); err != nil {
				return err
			}
			open++
			openTime += time.Since(start)
			continue
		}
		r.tracing = r.cfg.traced && closed%2 == 1
		err := r.closedPass()
		r.tracing = false
		if err != nil {
			return err
		}
		closed++
		closedTime += time.Since(start)
	}
	return nil
}

// closedPass feeds every trace once, each through a fresh node as fast
// as it takes it.
func (r *runner) closedPass() error {
	var frames int64
	var busy time.Duration
	heapMax := 0.0
	for i := range r.sets {
		o, err := r.closedTrace(i)
		if err != nil {
			return err
		}
		frames += int64(o.frames)
		busy += o.busy
		heapMax = max(heapMax, o.retainedMB)
	}
	nsPerFrame := float64(busy) / float64(frames)
	switch {
	case r.tracing:
		r.tracedNs = append(r.tracedNs, nsPerFrame)
		r.tracedPasses++
	case r.cfg.traced:
		r.untracedNs = append(r.untracedNs, nsPerFrame)
	default:
		r.passPPS = append(r.passPPS, float64(frames)/busy.Seconds())
		r.heapPass = append(r.heapPass, heapMax)
	}
	r.rtFrames += frames
	return nil
}

type traceOutcome struct {
	frames     int
	busy       time.Duration
	retainedMB float64
}

// closedTrace replays trace i through a fresh node in closed loop.
func (r *runner) closedTrace(i int) (traceOutcome, error) {
	ts := r.sets[i]
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapBase := ms.HeapAlloc
	n, setup, err := r.newNode()
	if err != nil {
		return traceOutcome{}, err
	}
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	cpu0 := cpuTime()
	start := time.Now()
	replayed, skipped, err := r.feedClosed(n, ts)
	n.DrainIngest()
	busy := time.Since(start)
	cpu := cpuTime() - cpu0
	if err != nil {
		return traceOutcome{}, err
	}
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs - mallocs0
	runtime.GC()
	runtime.ReadMemStats(&ms)
	retained := float64(int64(ms.HeapAlloc)-int64(heapBase)) / (1 << 20)

	r.checkFrames(ts, n, replayed, skipped, "closed loop")
	r.checkAlerts(i, n.Alerts(), "closed loop")
	if r.tracing {
		r.countLayers(n, replayed)
	}
	if err := n.Close(); err != nil {
		return traceOutcome{}, err
	}
	if !r.cfg.traced {
		r.setup = append(r.setup, setup)
		r.cpu += cpu
		r.mallocs += mallocs
		r.measured += int64(replayed)
	}
	return traceOutcome{frames: replayed, busy: busy, retainedMB: retained}, nil
}

// persistTrace replays trace i through a default node with durable
// state in a fresh directory, then reopens the node over the state it
// left behind, timing each restart and checking it recovers warm.
func (r *runner) persistTrace(i int) error {
	ts := r.sets[i]
	dir := filepath.Join(r.stateRoot, fmt.Sprintf("node%d", i))
	n, err := kalis.New(kalis.WithStateDir(dir))
	if err != nil {
		return err
	}
	start := time.Now()
	replayed, skipped, err := n.ReplayTrace(bytes.NewReader(ts.raw))
	r.persist.replay += time.Since(start)
	if err != nil {
		return err
	}
	r.persist.frames += int64(replayed)
	r.checkFrames(ts, n, replayed, skipped, "persist pass")
	r.checkAlerts(i, n.Alerts(), "persist pass")
	snap := n.Telemetry().Snapshot()
	r.persist.snapshots += toFloat(snap["kalis_persist_snapshot_total"].Value)
	r.persist.journalBytes += toFloat(snap["kalis_persist_journal_bytes"].Value)
	start = time.Now()
	err = n.Close()
	r.persist.closeNs = append(r.persist.closeNs, float64(time.Since(start)))
	if err != nil {
		return err
	}
	restarts := (recoverySamples + len(r.sets) - 1) / len(r.sets)
	for k := 0; k < restarts; k++ {
		if err := r.restart(dir); err != nil {
			return err
		}
	}
	return os.RemoveAll(dir)
}

// restart reopens a durable node over dir and times it until ready.
func (r *runner) restart(dir string) error {
	start := time.Now()
	n, err := kalis.New(kalis.WithStateDir(dir))
	d := time.Since(start)
	if err != nil {
		return err
	}
	if got := n.RecoveryOutcome(); got != "warm" {
		r.violate("recovery over %s: outcome %q, want warm", dir, got)
	}
	r.persist.recoveryNs = append(r.persist.recoveryNs, float64(d))
	return n.Close()
}

// newNode builds a default node, or in a traced pass one with the
// module library wrapped in span recorders, and returns its kalis.New
// wall time in seconds (modules installed and ready for traffic).
func (r *runner) newNode() (*kalis.Node, float64, error) {
	var opts []kalis.Option
	if r.tracing {
		opts = append(opts, kalis.WithoutDefaultModules())
	}
	start := time.Now()
	n, err := kalis.New(opts...)
	if err == nil && r.tracing {
		err = installTraced(n, r.tr)
	}
	setup := time.Since(start).Seconds()
	if err != nil {
		return nil, 0, err
	}
	if r.tracing {
		n.OnKnowledge(func(k kalis.Knowgget) {
			r.layer.kbChanges++
			// Multilevel labels are dot-flattened
			// ("TrafficFrequency.TCPSYN"); count by the top level.
			top, _, _ := strings.Cut(k.Label, ".")
			switch top {
			case "SignalStrength":
				r.layer.kbSignal++
			case "TrafficFrequency":
				r.layer.kbTraffic++
			}
		})
		n.OnFlowRecord(func(kalis.FlowRecord) { r.layer.flowExports++ })
	}
	return n, setup, nil
}

// feedClosed feeds a whole trace to n as fast as it takes it.
func (r *runner) feedClosed(n *kalis.Node, ts *traceSet) (replayed, skipped int, err error) {
	switch {
	case r.tracing:
		start := r.tr.now()
		recs, err := trace.ReadAll(bytes.NewReader(ts.raw))
		r.tr.root(r.idx.readAll, -1, start, r.tr.now())
		if err != nil {
			return 0, 0, err
		}
		if r.cfg.workload.live {
			// The live path feeds the records it pre-parsed; the parse
			// above only measures trace.ReadAll.
			recs = ts.records
		}
		for _, rec := range recs {
			if r.feedOne(n, rec) {
				replayed++
			} else {
				skipped++
			}
		}
		return replayed, skipped, nil
	case r.cfg.workload.live:
		for _, rec := range ts.records {
			if r.feedOne(n, rec) {
				replayed++
			} else {
				skipped++
			}
		}
		return replayed, skipped, nil
	default:
		return n.ReplayTrace(bytes.NewReader(ts.raw))
	}
}

// feedOne decodes one record as a live sniffer would and hands it to
// the node; false when the frame does not decode.
func (r *runner) feedOne(n *kalis.Node, rec *trace.Record) bool {
	if !r.tracing {
		c, err := rec.Decode()
		if err != nil {
			return false
		}
		n.HandleCapture(c)
		return true
	}
	t := r.tr
	r.frameID++
	start := t.now()
	c, err := rec.Decode()
	t.root(r.idx.decode, r.frameID, start, t.now())
	if err != nil {
		return false
	}
	start = t.begin(r.idx.dispatch, r.frameID)
	n.HandleCapture(c)
	t.end(r.idx.dispatch, start)
	return true
}

// openPass offers every trace once at the workload's fixed rate, one
// fresh node per trace. Each frame is due at start + j/rate; the feeder
// spins until then, so a stall also makes the frames behind it late.
func (r *runner) openPass() error {
	for i := range r.sets {
		if err := r.openTrace(i); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) openTrace(i int) error {
	ts := r.sets[i]
	n, setup, err := r.newNode()
	if err != nil {
		return err
	}
	interval := float64(time.Second) / openRate
	replayed, skipped := 0, 0
	start := time.Now()
	for j, rec := range ts.records {
		due := start.Add(time.Duration(float64(j) * interval))
		now := time.Now()
		for now.Before(due) {
			now = time.Now()
		}
		if !r.feedOne(n, rec) {
			skipped++
			continue
		}
		replayed++
		done := time.Now()
		r.late = append(r.late, float64(now.Sub(due))/1e3)
		r.svc = append(r.svc, float64(done.Sub(now))/1e3)
		r.sojourn = append(r.sojourn, float64(done.Sub(due))/1e3)
	}
	r.rtFrames += int64(len(ts.records))
	r.checkFrames(ts, n, replayed, skipped, "open loop")
	r.checkAlerts(i, n.Alerts(), "open loop")
	if !r.cfg.traced {
		r.setup = append(r.setup, setup)
	}
	return n.Close()
}

// checkFrames enforces that every offered frame was decoded and
// dispatched: none skipped, and the node's kalis_packets_total counts
// each one.
func (r *runner) checkFrames(ts *traceSet, n *kalis.Node, replayed, skipped int, phase string) {
	offered := len(ts.records)
	r.attempted += int64(offered)
	dispatched := int(scrapeScalar(n, "kalis_packets_total"))
	failed := offered - min(replayed, dispatched)
	if failed > 0 || skipped > 0 {
		r.failed += int64(max(failed, skipped))
		r.violate("%s %s: %d frames offered, %d replayed, %d undecodable, %d dispatched",
			phase, ts.name, offered, replayed, skipped, dispatched)
	}
}

// checkAlerts enforces that a node raised exactly the reference
// replay's alerts on the same trace.
func (r *runner) checkAlerts(i int, got []kalis.Alert, phase string) {
	want := r.ref[i]
	if !slices.EqualFunc(got, want, sameAlert) {
		r.violate("%s %s: %d alerts differ from the reference replay's %d",
			phase, r.sets[i].name, len(got), len(want))
	}
}

// sameAlert compares the identity of two alerts: attack, victim,
// suspects and capture time.
func sameAlert(a, b kalis.Alert) bool {
	return a.Attack == b.Attack && a.Victim == b.Victim &&
		a.Time.Equal(b.Time) && slices.Equal(a.Suspects, b.Suspects)
}

// countLayers adds a traced node's layer counts after its replay.
func (r *runner) countLayers(n *kalis.Node, frames int) {
	r.layer.frames += int64(frames)
	for _, a := range n.Alerts() {
		r.layer.modAlerts[a.Module]++
	}
	snap := n.Telemetry().Snapshot()
	if ms, ok := snap["kalis_bus_publishes_total"]; ok {
		if byTopic, ok := ms.Value.(map[string]interface{}); ok {
			for topic, v := range byTopic {
				r.layer.publishes[topic] += toFloat(v)
			}
		}
	}
}

// scrapeScalar reads one scalar telemetry metric (0 when absent).
func scrapeScalar(n *kalis.Node, name string) float64 {
	ms, ok := n.Telemetry().Snapshot()[name]
	if !ok {
		return 0
	}
	return toFloat(ms.Value)
}

func toFloat(v interface{}) float64 {
	switch x := v.(type) {
	case uint64:
		return float64(x)
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
