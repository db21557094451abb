package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4), metrics sorted by name and
// vec children sorted by label value.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, e := range r.sorted() {
		fmt.Fprintf(bw, "# HELP %s %s\n", e.name, strings.ReplaceAll(e.help, "\n", " "))
		fmt.Fprintf(bw, "# TYPE %s %s\n", e.name, e.kind)
		writePromEntry(bw, e)
	}
	return bw.Flush()
}

func writePromEntry(w io.Writer, e *entry) {
	switch impl := e.impl.(type) {
	case *Counter:
		fmt.Fprintf(w, "%s %d\n", e.name, impl.Value())
	case *Gauge:
		fmt.Fprintf(w, "%s %d\n", e.name, impl.Value())
	case func() float64:
		fmt.Fprintf(w, "%s %s\n", e.name, formatFloat(impl()))
	case *Histogram:
		writePromHistogram(w, e.name, "", impl.Snapshot())
	case *CounterVec:
		for _, kv := range sortedChildren(&impl.children) {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", e.name, e.label, kv.key, kv.val.(*Counter).Value())
		}
	case *HistogramVec:
		for _, kv := range sortedChildren(&impl.children) {
			pair := fmt.Sprintf("%s=%q", e.label, kv.key)
			writePromHistogram(w, e.name, pair, kv.val.(*Histogram).Snapshot())
		}
	}
}

// writePromHistogram renders one histogram's cumulative buckets, sum
// and count. labelPair is an optional `name="value"` to include in
// every sample (the vec label), or "".
func writePromHistogram(w io.Writer, name, labelPair string, s HistogramSnapshot) {
	join := func(extra string) string {
		switch {
		case labelPair == "" && extra == "":
			return ""
		case labelPair == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + labelPair + "}"
		default:
			return "{" + labelPair + "," + extra + "}"
		}
	}
	for _, b := range s.Buckets {
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, join(`le="`+formatFloat(b.LE)+`"`), b.Count)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, join(`le="+Inf"`), s.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, join(""), formatFloat(s.SumSeconds))
	fmt.Fprintf(w, "%s_count%s %d\n", name, join(""), s.Count)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

type childKV struct {
	key string
	val interface{}
}

func sortedChildren(m interface {
	Range(func(k, v interface{}) bool)
}) []childKV {
	var out []childKV
	m.Range(func(k, v interface{}) bool {
		out = append(out, childKV{k.(string), v})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// MetricSnapshot is one metric in a JSON snapshot. Value holds a number
// for scalar metrics, a HistogramSnapshot for histograms, or a
// map[label value]→(number | HistogramSnapshot) for vecs.
type MetricSnapshot struct {
	Type  string      `json:"type"`
	Help  string      `json:"help,omitempty"`
	Label string      `json:"label,omitempty"`
	Value interface{} `json:"value"`
}

// Snapshot captures every registered metric's current value, keyed by
// metric name.
func (r *Registry) Snapshot() map[string]MetricSnapshot {
	out := make(map[string]MetricSnapshot)
	for _, e := range r.sorted() {
		out[e.name] = MetricSnapshot{Type: e.kind, Help: e.help, Label: e.label, Value: e.snap()}
	}
	return out
}

// WriteJSON renders the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
