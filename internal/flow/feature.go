package flow

import (
	"math"

	"kalis/internal/packet"
	"kalis/internal/proto/ctp"
)

// Value is one emitted feature value.
type Value struct {
	// Name is the exported feature-value name (e.g. "iat_mean_s").
	Name string
	// V is the value. Durations are emitted in seconds.
	V float64
}

// Export names are concatenated once here, not per emit: flows export
// continuously under load, and per-export name building was a measurable
// allocation source (hotalloc).
var (
	iatNames  = makeWelfordNames("iat")
	rssiNames = makeWelfordNames("rssi")
	thlNames  = makeRangeNames("thl")
	etxNames  = makeRangeNames("etx")
)

// maxFeatureValues is the most values one record emits: the rate, two
// Welford groups of four and two range groups of three.
const maxFeatureValues = 1 + 2*4 + 2*3

// features is the fixed per-flow feature set, held by value in every
// Flow: mean packet rate, inter-arrival and RSSI statistics, and the
// ranges of the CTP time-has-lived and path-cost (ETX) fields that
// betray routing manipulation. update does O(1) work per packet and
// never allocates.
type features struct {
	iat, rssi welford
	thl, etx  valueRange
}

// update folds one packet into the features. It runs before the table
// advances the flow's Last/Packets/Bytes counters (see Flow), so the
// first packet (Packets == 0) has no inter-arrival time.
func (ft *features) update(f *Flow, c *packet.Captured) {
	if f.Packets > 0 {
		ft.iat.add(c.Time.Sub(f.Last).Seconds())
	}
	// Wired captures carry no signal strength.
	if c.Medium != packet.MediumWired {
		ft.rssi.add(c.RSSI)
	}
	// One pass over the layer stack finds the CTP header: data frames
	// carry both THL and ETX, beacons only ETX.
	for _, l := range c.Layers {
		switch h := l.(type) {
		case *ctp.Data:
			ft.thl.add(float64(h.THL))
			ft.etx.add(float64(h.ETX))
			return
		case *ctp.Beacon:
			ft.etx.add(float64(h.ETX))
			return
		}
	}
}

// emit appends the final feature values in their fixed order: rate,
// then the inter-arrival, RSSI, THL and ETX groups, each omitted when
// it saw no sample.
func (ft *features) emit(f *Flow, out []Value) []Value {
	dur := f.Last.Sub(f.First).Seconds()
	rate := 0.0
	if dur > 0 && f.Packets > 1 {
		rate = float64(f.Packets-1) / dur
	}
	out = append(out, Value{Name: "rate_pps", V: rate})
	out = ft.iat.emit(iatNames, out)
	out = ft.rssi.emit(rssiNames, out)
	out = ft.thl.emit(thlNames, out)
	return ft.etx.emit(etxNames, out)
}

// welford is numerically stable streaming mean/variance with min/max.
type welford struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

func (w *welford) add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

func (w *welford) stddev() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// emit appends mean/stddev/min/max, or nothing without samples.
func (w *welford) emit(names welfordNames, out []Value) []Value {
	if w.n == 0 {
		return out
	}
	return append(out,
		Value{Name: names.mean, V: w.mean},
		Value{Name: names.stddev, V: w.stddev()},
		Value{Name: names.min, V: w.min},
		Value{Name: names.max, V: w.max},
	)
}

// welfordNames are a Welford group's precomputed export names.
type welfordNames struct {
	mean, stddev, min, max string
}

func makeWelfordNames(base string) welfordNames {
	return welfordNames{
		mean:   base + "_mean",
		stddev: base + "_stddev",
		min:    base + "_min",
		max:    base + "_max",
	}
}

// valueRange tracks first/last/min/max of a header field and emits the
// last value plus the range and total drift.
type valueRange struct {
	seen     bool
	first    float64
	last     float64
	min, max float64
}

func (r *valueRange) add(x float64) {
	if !r.seen {
		r.seen = true
		r.first, r.min, r.max = x, x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.last = x
}

// emit appends last/range/delta, or nothing without samples.
func (r *valueRange) emit(names rangeNames, out []Value) []Value {
	if !r.seen {
		return out
	}
	return append(out,
		Value{Name: names.last, V: r.last},
		Value{Name: names.rng, V: r.max - r.min},
		Value{Name: names.delta, V: r.last - r.first},
	)
}

// rangeNames are a range group's precomputed export names.
type rangeNames struct {
	last, rng, delta string
}

func makeRangeNames(base string) rangeNames {
	return rangeNames{
		last:  base + "_last",
		rng:   base + "_range",
		delta: base + "_delta",
	}
}
