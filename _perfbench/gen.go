package main

import (
	"bytes"
	"fmt"
	"time"

	"kalis/internal/attacks"
	"kalis/internal/eval"
	"kalis/internal/packet"
	"kalis/internal/trace"
)

// episodes is the per-scenario symptom-instance count (§VI-A: 50).
const episodes = eval.DefaultEpisodes

// families lists the scenario builders behind each traffic family.
// replication/static-mobile is left out: its mobility model draws
// jitter from the simulation RNG in map-iteration order
// (netsim.JitterMover), so one seed does not give one trace.
var families = map[string][]string{
	"wsn": {
		"selective-forwarding/wsn", "blackhole/wsn", "sybil/wsn",
		"sinkhole/wsn", "data-alteration/wsn", "sinkhole-rpl/6lowpan",
	},
	"wifi": {"icmp-flood/single-hop", "smurf/multi-hop", "syn-flood/single-hop"},
}

// traceSet is one recorded scenario: the raw trace bytes a replay
// parses, the same records pre-parsed for the live path, and the
// ground truth they are scored against.
type traceSet struct {
	name      string
	raw       []byte
	records   []*trace.Record
	instances []attacks.Instance
	// firstSymptom is each instance's first labelled frame, by ID.
	firstSymptom map[int]time.Time
}

// generate builds a scenario from the eval builders and records it the
// way `kalis-trace -record` does: every sniffed frame re-encoded from
// its outermost decoded layer into the Kalis trace format.
func generate(name string, seed int64) (*traceSet, error) {
	sc, ok := eval.ScenarioByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q", name)
	}
	run := sc.Build(seed, episodes)
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	var werr error
	run.Sniffer.Subscribe(func(c *packet.Captured) {
		raw := reencode(c)
		if raw == nil {
			return
		}
		rec := &trace.Record{Time: c.Time, Medium: c.Medium, RSSI: c.RSSI, Raw: raw, Truth: c.Truth}
		if err := w.Write(rec); err != nil && werr == nil {
			werr = err
		}
	})
	run.Sim.Run(run.End)
	if werr != nil {
		return nil, fmt.Errorf("record %s: %w", name, werr)
	}
	if err := w.Flush(); err != nil {
		return nil, fmt.Errorf("record %s: %w", name, err)
	}
	recs, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	ts := &traceSet{
		name:         name,
		raw:          buf.Bytes(),
		records:      recs,
		instances:    run.Instances,
		firstSymptom: make(map[int]time.Time),
	}
	for _, r := range recs {
		if r.Truth == nil {
			continue
		}
		if _, seen := ts.firstSymptom[r.Truth.Instance]; !seen {
			ts.firstSymptom[r.Truth.Instance] = r.Time
		}
	}
	return ts, nil
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

// generateAll records every scenario of the given families.
func generateAll(fams []string, seed int64) ([]*traceSet, error) {
	var out []*traceSet
	for _, fam := range fams {
		for _, name := range families[fam] {
			ts, err := generate(name, seed)
			if err != nil {
				return nil, err
			}
			out = append(out, ts)
		}
	}
	return out, nil
}
