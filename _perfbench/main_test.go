package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"testing"

	"kalis"
)

// replayAlerts replays a trace through a default node.
func replayAlerts(t *testing.T, ts *traceSet) []kalis.Alert {
	t.Helper()
	n, err := kalis.New()
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, skipped, err := n.ReplayTrace(bytes.NewReader(ts.raw)); err != nil || skipped != 0 {
		t.Fatalf("%s: replay: skipped %d, err %v", ts.name, skipped, err)
	}
	return n.Alerts()
}

func TestSameSeedSameTracesAndAlerts(t *testing.T) {
	a, err := generateAll([]string{"wsn", "wifi"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateAll([]string{"wsn", "wifi"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i].raw, b[i].raw) {
			t.Errorf("%s: seed 1 recorded two different traces (%d vs %d bytes)", a[i].name, len(a[i].raw), len(b[i].raw))
			continue
		}
		if !slices.EqualFunc(replayAlerts(t, a[i]), replayAlerts(t, b[i]), sameAlert) {
			t.Errorf("%s: identical traces raised different alerts", a[i].name)
		}
	}
}

func TestDifferentSeedDifferentTraces(t *testing.T) {
	a, err := generateAll([]string{"wsn", "wifi"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generateAll([]string{"wsn", "wifi"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if bytes.Equal(a[i].raw, b[i].raw) {
			t.Errorf("%s: seeds 1 and 2 recorded the same trace", a[i].name)
		}
	}
}

// declared is the part of BENCHMARK.json the benchmark must match.
type declared struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWorkloadsDeclared(t *testing.T) {
	var got, want []string
	for _, w := range workloads {
		got = append(got, w.name)
	}
	for _, w := range readDeclared(t).Workloads {
		want = append(want, w.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", got, want)
	}
}

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestEmittedNamesDeclared runs a short untraced and traced run and
// checks every emitted metric against BENCHMARK.json.
func TestEmittedNamesDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark")
	}
	d := readDeclared(t)
	w, _ := workloadByName("wifi-replay")
	for _, traced := range []bool{false, true} {
		res, err := run(config{workload: w, seed: 1, seconds: 0.5, traced: traced, outDir: t.TempDir()}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("traced=%v: correct %v, attempted %d, failed %d", traced, res.Correct, res.Attempted, res.Failed)
		}
		want := map[string]string{}
		if traced {
			for _, m := range d.PerLayer {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range d.EndToEnd {
				want[m.Name] = m.Unit
			}
		}
		var names []string
		for name, m := range res.Metrics {
			names = append(names, name)
			if !validName.MatchString(name) {
				t.Errorf("emitted name %q does not match %s", name, validName)
			}
			unit, ok := want[name]
			if !ok {
				t.Errorf("emitted metric %q is not declared in BENCHMARK.json", name)
			} else if unit != m.Unit {
				t.Errorf("metric %q: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
			}
		}
		sort.Strings(names)
		if len(names) != len(want) {
			t.Errorf("traced=%v: emitted %d metrics, BENCHMARK.json declares %d", traced, len(names), len(want))
		}
	}
}
