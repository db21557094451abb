// Command perfbench is the Kalis end-to-end benchmark. It records the
// paper's scenario traces (§VI-A record/replay) from a seed, replays
// them from raw trace bytes through kalis.Node, checks every output
// against ground truth and against the reference replay, and prints
// the end-to-end metrics (--trace 0) or the per-layer metrics derived
// from spans around each layer's public calls (--trace 1).
//
//	bash _perfbench/run.sh --workload wsn-replay --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The human-readable
// report goes to standard error. A correctness-gate violation exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// workload is one traffic set and the ingest path it is fed through.
type workload struct {
	name     string
	families []string
	// live workloads feed pre-parsed records through stack.Decode and
	// HandleCapture per frame and give the open loop the larger share
	// of the run; the others replay raw trace bytes with ReplayTrace.
	live bool
}

// openRate is the fixed open-loop offered rate in frames/s, about a
// fifth of a default node's closed-loop capacity on a 2-CPU machine.
const openRate = 20_000

var workloads = []workload{
	{name: "wsn-replay", families: []string{"wsn"}},
	{name: "wifi-replay", families: []string{"wifi"}},
	{name: "live-mixed", families: []string{"wsn", "wifi"}, live: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: wsn-replay, wifi-replay or live-mixed")
		seed    = flag.Int64("seed", 1, "seed of the generated scenario traces")
		seconds = flag.Float64("seconds", 10, "measured time budget in seconds")
		traced  = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		outDir  = flag.String("out", ".bench_build", "directory for state dirs and the span file")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(config{workload: w, seed: *seed, seconds: *seconds, traced: *traced == 1, outDir: *outDir}, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

type config struct {
	workload workload
	seed     int64
	seconds  float64
	traced   bool
	outDir   string
}

// run executes one benchmark run and returns its result; the report
// goes to log.
func run(cfg config, log io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	stateRoot, err := os.MkdirTemp(cfg.outDir, "state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(stateRoot)

	sets, err := generateAll(cfg.workload.families, cfg.seed)
	if err != nil {
		return nil, err
	}
	r := newRunner(cfg, sets, stateRoot)
	if err := r.execute(); err != nil {
		return nil, err
	}
	res := &result{
		Correct:   len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
	}
	if cfg.traced {
		res.Metrics = r.layerMetrics()
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload.name, cfg.seed))
		if err := r.tr.writeSpans(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		r.reportLayers(log, path)
	} else {
		res.Metrics = r.endToEndMetrics()
		r.reportEndToEnd(log, res.Metrics)
	}
	for _, v := range r.violations {
		fmt.Fprintln(log, "CORRECTNESS:", v)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a number", name)
		}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no frames attempted")
	}
	return res, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile (nearest rank) of xs; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
