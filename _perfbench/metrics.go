package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"

	"kalis"
	"kalis/internal/attacks"
	"kalis/internal/core/datastore"
	"kalis/internal/flow"
	"kalis/internal/metrics"
	"kalis/internal/packet"
)

// endToEnd lists the end-to-end metrics with their units, in report
// order; BENCHMARK.json declares the same names.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"replay_pps", "frames/s"},
	{"latency_p50_us", "us"},
	{"latency_p95_us", "us"},
	{"cpu_us_per_pkt", "us"},
	{"allocs_per_pkt", "count"},
	{"heap_live_mb", "MB"},
	{"detection_rate", "ratio"},
	{"alert_precision", "ratio"},
}

// busTopics are the event-bus topics whose publishes are reported.
var busTopics = []string{"packet", "knowledge", "detection", "flow.records"}

// layerMetricUnits returns every per-layer metric name with its unit.
func layerMetricUnits() [][2]string {
	out := [][2]string{
		{"trace.read_ns_per_frame", "ns"},
		{"stack.decode_ns_per_frame", "ns"},
		{"stack.decode_allocs_per_frame", "count"},
		{"module.dispatch_ns_per_frame", "ns"},
		{"module.dispatch_self_ns_per_frame", "ns"},
		{"module.invocations_per_frame", "count"},
		{"module.activations", "count"},
	}
	for _, m := range moduleNames() {
		out = append(out, [2]string{"module." + m + ".ns_per_frame", "ns"},
			[2]string{"module." + m + ".alerts", "count"})
	}
	out = append(out,
		[2]string{"knowledge.changes_per_frame", "count"},
		[2]string{"knowledge.SignalStrength.share", "ratio"},
		[2]string{"knowledge.TrafficFrequency.share", "ratio"},
		[2]string{"persist.replay_ns_per_frame", "ns"},
		[2]string{"persist.recovery_ns", "ns"},
		[2]string{"persist.snapshots", "count"},
		[2]string{"persist.journal_bytes", "bytes"},
		[2]string{"persist.close_ns", "ns"},
		[2]string{"flow.update_ns_isolated", "ns"},
		[2]string{"flow.exports", "count"},
		[2]string{"datastore.append_ns_isolated", "ns"},
	)
	for _, t := range busTopics {
		out = append(out, [2]string{"event.publishes_per_frame." + t, "count"})
	}
	return append(out,
		[2]string{"runtime.gc_cycles_per_kframe", "count"},
		[2]string{"runtime.gc_cpu_frac", "ratio"},
		[2]string{"runtime.gc_pause_p99_us", "us"},
		[2]string{"gen.service_p99_us", "us"},
		[2]string{"gen.late_p99_us", "us"},
		[2]string{"tracing.overhead_frac", "ratio"},
	)
}

func (r *runner) endToEndMetrics() map[string]metric {
	rate, precision := r.detection()
	v := map[string]float64{
		"setup_s":         median(r.setup),
		"replay_pps":      median(r.passPPS),
		"latency_p50_us":  quantile(r.svc, 0.50),
		"latency_p95_us":  quantile(r.svc, 0.95),
		"cpu_us_per_pkt":  float64(r.cpu) / 1e3 / float64(r.measured),
		"allocs_per_pkt":  float64(r.mallocs) / float64(r.measured),
		"heap_live_mb":    median(r.heapPass),
		"detection_rate":  rate,
		"alert_precision": precision,
	}
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metric{Value: v[m.name], Unit: m.unit}
	}
	return out
}

// detection scores the reference alerts (which every other node
// reproduces exactly) against the injected instances as Fig. 8 does.
func (r *runner) detection() (rate, precision float64) {
	var instances, detected, falseAlerts, alerts int
	var delays []float64
	for i, ts := range r.sets {
		attrs := attributions(r.ref[i])
		sc := metrics.ScoreAlerts(ts.instances, attrs, r.cfg.seed)
		instances += sc.Instances
		detected += sc.Detected
		falseAlerts += sc.FalsePositives
		alerts += len(attrs)
		for _, inst := range ts.instances {
			first, ok := firstMatch(inst, attrs)
			if !ok {
				continue
			}
			symptom, ok := ts.firstSymptom[inst.ID]
			if !ok {
				symptom = inst.Start
			}
			delays = append(delays, first.Sub(symptom).Seconds())
		}
	}
	if instances > 0 {
		rate = float64(detected) / float64(instances)
	}
	if alerts > 0 {
		precision = 1 - float64(falseAlerts)/float64(alerts)
	}
	r.score = scoreSummary{instances, detected, falseAlerts, alerts, delays}
	return rate, precision
}

type scoreSummary struct {
	instances, detected, falseAlerts, alerts int
	// delays are capture-clock seconds from each detected instance's
	// first symptom (its start, for drop attacks that label no frame)
	// to its first matching alert.
	delays []float64
}

func attributions(as []kalis.Alert) []metrics.Attribution {
	out := make([]metrics.Attribution, len(as))
	for i, a := range as {
		out[i] = metrics.Attribution{Time: a.Time, Attack: a.Attack, Victim: a.Victim,
			Suspects: a.Suspects, Confidence: a.Confidence}
	}
	return out
}

// matchGrace mirrors internal/metrics: threshold detectors may fire
// shortly after an episode ends.
const matchGrace = 10 * time.Second

// firstMatch returns the earliest alert attributable to inst under the
// match rule of metrics.ScoreAlerts.
func firstMatch(inst attacks.Instance, attrs []metrics.Attribution) (time.Time, bool) {
	var first time.Time
	found := false
	for _, a := range attrs {
		if a.Time.Before(inst.Start) || a.Time.After(inst.End.Add(matchGrace)) {
			continue
		}
		hit := (inst.Victim != "" && a.Victim == inst.Victim) || a.Attack == inst.Attack
		for _, s := range a.Suspects {
			hit = hit || s == inst.Attacker
		}
		if hit && (!found || a.Time.Before(first)) {
			first, found = a.Time, true
		}
	}
	return first, found
}

func (r *runner) layerMetrics() map[string]metric {
	t := r.tr
	frames := float64(r.layer.frames)
	perFrame := func(name string) float64 { return float64(t.total[t.id(name)]) / frames }
	passes := float64(r.tracedPasses)
	v := map[string]float64{
		"trace.read_ns_per_frame":           perFrame(spanReadAll),
		"stack.decode_ns_per_frame":         perFrame(spanDecode),
		"stack.decode_allocs_per_frame":     r.isolated.decodeAllocs,
		"module.dispatch_ns_per_frame":      perFrame(spanDispatch),
		"module.dispatch_self_ns_per_frame": float64(t.self[t.id(spanDispatch)]) / frames,
		"module.invocations_per_frame":      float64(t.invocations) / frames,
		"module.activations":                float64(t.activations) / passes,
		"knowledge.changes_per_frame":       float64(r.layer.kbChanges) / frames,
		"persist.replay_ns_per_frame":       float64(r.persist.replay) / float64(r.persist.frames),
		"persist.recovery_ns":               median(r.persist.recoveryNs),
		"persist.snapshots":                 r.persist.snapshots,
		"persist.journal_bytes":             r.persist.journalBytes,
		"persist.close_ns":                  median(r.persist.closeNs),
		"flow.update_ns_isolated":           r.isolated.flowNs,
		"flow.exports":                      float64(r.layer.flowExports) / passes,
		"datastore.append_ns_isolated":      r.isolated.appendNs,
		"gen.service_p99_us":                quantile(r.svc, 0.99),
		"gen.late_p99_us":                   quantile(r.late, 0.99),
		"tracing.overhead_frac":             median(r.tracedNs)/median(r.untracedNs) - 1,
	}
	if r.layer.kbChanges > 0 {
		v["knowledge.SignalStrength.share"] = float64(r.layer.kbSignal) / float64(r.layer.kbChanges)
		v["knowledge.TrafficFrequency.share"] = float64(r.layer.kbTraffic) / float64(r.layer.kbChanges)
	}
	for _, m := range moduleNames() {
		v["module."+m+".ns_per_frame"] = perFrame("module." + m)
		v["module."+m+".alerts"] = float64(r.layer.modAlerts[m]) / passes
	}
	for _, topic := range busTopics {
		v["event.publishes_per_frame."+topic] = r.layer.publishes[topic] / frames
	}
	gc := r.rtEnd.sub(r.rtStart)
	v["runtime.gc_cycles_per_kframe"] = gc.cycles / (float64(r.rtFrames) / 1e3)
	if gc.cpuTotal > 0 {
		v["runtime.gc_cpu_frac"] = gc.cpuGC / gc.cpuTotal
	}
	v["runtime.gc_pause_p99_us"] = gc.pauseP99 * 1e6

	out := make(map[string]metric)
	for _, nu := range layerMetricUnits() {
		out[nu[0]] = metric{Value: v[nu[0]], Unit: nu[1]}
	}
	return out
}

// runtimeSample is a reading of the Go runtime's GC metrics.
type runtimeSample struct {
	at                      time.Time
	cycles, cpuGC, cpuTotal float64
}

var runtimeNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]rtmetrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	out := runtimeSample{at: time.Now()}
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		out.cycles = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64 {
		out.cpuGC = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == rtmetrics.KindFloat64 {
		out.cpuTotal = s[2].Value.Float64()
	}
	return out
}

// gcDelta is the GC activity between two runtime samples.
type gcDelta struct{ cycles, cpuGC, cpuTotal, pauseP99 float64 }

// sub returns the GC activity since a. The pause percentile comes from
// the exact pause history the runtime keeps (its last 256 cycles),
// restricted to pauses that ended after a was taken.
func (b runtimeSample) sub(a runtimeSample) gcDelta {
	d := gcDelta{cycles: b.cycles - a.cycles, cpuGC: b.cpuGC - a.cpuGC, cpuTotal: b.cpuTotal - a.cpuTotal}
	var st debug.GCStats
	debug.ReadGCStats(&st)
	var pauses []float64
	for i, p := range st.Pause {
		if i < len(st.PauseEnd) && st.PauseEnd[i].After(a.at) && !st.PauseEnd[i].After(b.at) {
			pauses = append(pauses, p.Seconds())
		}
	}
	d.pauseP99 = quantile(pauses, 0.99)
	return d
}

// isolatedCosts are layer costs measured outside the node on the
// workload's own decoded frames.
type isolatedCosts struct {
	decodeAllocs float64 // allocations per frame of stack decoding
	flowNs       float64 // ns per frame of a standalone flow.Table.Update
	appendNs     float64 // ns per frame of a standalone Store.Append
}

// isolatedRepeats is how many times each isolated loop is timed; the
// median is reported.
const isolatedRepeats = 3

func (r *runner) measureIsolated() error {
	var caps [][]*packet.Captured
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	frames := 0
	for _, ts := range r.sets {
		cs := make([]*packet.Captured, 0, len(ts.records))
		for _, rec := range ts.records {
			c, err := rec.Decode()
			if err != nil {
				return err
			}
			cs = append(cs, c)
		}
		frames += len(cs)
		caps = append(caps, cs)
	}
	runtime.ReadMemStats(&ms)
	// One slice append per trace is the loop's own allocation.
	r.isolated.decodeAllocs = float64(ms.Mallocs-mallocs0-uint64(len(r.sets))) / float64(frames)

	var flowNs, appendNs []float64
	for k := 0; k < isolatedRepeats; k++ {
		var flowT, appendT time.Duration
		for _, cs := range caps {
			tbl := flow.NewTable(flow.Config{})
			start := time.Now()
			for _, c := range cs {
				tbl.Update(c)
			}
			flowT += time.Since(start)
			st := datastore.New(datastore.DefaultWindow)
			start = time.Now()
			for _, c := range cs {
				if err := st.Append(c); err != nil {
					return err
				}
			}
			appendT += time.Since(start)
		}
		flowNs = append(flowNs, float64(flowT)/float64(frames))
		appendNs = append(appendNs, float64(appendT)/float64(frames))
	}
	r.isolated.flowNs = median(flowNs)
	r.isolated.appendNs = median(appendNs)
	return nil
}

// fsName names the filesystem holding dir, for the report.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x794C7630: "overlayfs", 0x01021994: "tmpfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("fs type 0x%x", st.Type)
}

func (r *runner) frames() int {
	n := 0
	for _, ts := range r.sets {
		n += len(ts.records)
	}
	return n
}

func (r *runner) reportHeader(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d: %d traces, %d frames per pass, %d CPUs\n",
		r.cfg.workload.name, r.cfg.seed, len(r.sets), r.frames(), runtime.NumCPU())
	if r.cfg.traced {
		fmt.Fprintf(w, "persist pass: state dirs under %s on %s\n", r.stateRoot, fsName(r.cfg.outDir))
	}
}

func (r *runner) reportEndToEnd(w io.Writer, m map[string]metric) {
	r.reportHeader(w)
	fmt.Fprintf(w, "closed loop: %d passes at %.0f/%.0f/%.0f frames/s (min/median/max); %d setups\n",
		len(r.passPPS), quantile(r.passPPS, 0), median(r.passPPS), quantile(r.passPPS, 1), len(r.setup))
	fmt.Fprintf(w, "open loop: %d frames at %.0f frames/s; service p50 %.1f us, p90 %.1f us, p95 %.1f us, p99 %.1f us, p99.9 %.1f us, max %.1f us\n",
		len(r.svc), float64(openRate), quantile(r.svc, 0.5), quantile(r.svc, 0.9), quantile(r.svc, 0.95),
		quantile(r.svc, 0.99), quantile(r.svc, 0.999), quantile(r.svc, 1))
	fmt.Fprintf(w, "  from due time: p50 %.1f us, p99 %.1f us; generator late p99 %.1f us\n",
		quantile(r.sojourn, 0.5), quantile(r.sojourn, 0.99), quantile(r.late, 0.99))
	s := r.score
	fmt.Fprintf(w, "detection: %d/%d instances, %d alerts, %d false alerts; delay from first symptom p50 %.3f s, mean %.3f s (capture clock)\n",
		s.detected, s.instances, s.alerts, s.falseAlerts, median(s.delays), mean(s.delays))
	for _, e := range endToEnd {
		fmt.Fprintf(w, "  %-20s %14.6g %s\n", e.name, m[e.name].Value, m[e.name].Unit)
	}
}

// reportLayers prints the per-layer self-time table and the tracing
// overhead of a traced run.
func (r *runner) reportLayers(w io.Writer, spanFile string) {
	r.reportHeader(w)
	t := r.tr
	frames := float64(r.layer.frames)
	fmt.Fprintf(w, "traced: %d passes, %.0f frames, %d spans (%d kept in %s)\n",
		r.tracedPasses, frames, sum(t.count), len(t.kept), spanFile)
	type row struct {
		name       string
		total, sel float64
		calls      int64
	}
	var rows []row
	var selfSum float64
	for i, n := range t.names {
		if t.count[i] == 0 {
			continue
		}
		rows = append(rows, row{n, float64(t.total[i]), float64(t.self[i]), t.count[i]})
		selfSum += float64(t.self[i])
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].sel > rows[j].sel })
	fmt.Fprintf(w, "  %-42s %10s %12s %12s %7s\n", "layer span", "calls", "ns/frame", "self ns/fr", "self %")
	for _, x := range rows {
		fmt.Fprintf(w, "  %-42s %10d %12.1f %12.1f %6.1f%%\n", x.name, x.calls, x.total/frames, x.sel/frames, 100*x.sel/selfSum)
	}
	fmt.Fprintf(w, "tracing overhead: traced %.1f ns/frame vs untraced %.1f ns/frame (%+.1f%%)\n",
		median(r.tracedNs), median(r.untracedNs), 100*(median(r.tracedNs)/median(r.untracedNs)-1))
	fmt.Fprintf(w, "knowledge changes: %d over %.0f frames (%.3f per frame)\n",
		r.layer.kbChanges, frames, float64(r.layer.kbChanges)/frames)
	p := r.persist
	fmt.Fprintf(w, "persist pass: %.0f ns/frame durable replay (%d frames, %.0f snapshots); %d warm restarts at %.1f/%.1f/%.1f ms (min/median/max)\n",
		float64(p.replay)/float64(p.frames), p.frames, p.snapshots, len(p.recoveryNs),
		quantile(p.recoveryNs, 0)/1e6, median(p.recoveryNs)/1e6, quantile(p.recoveryNs, 1)/1e6)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
