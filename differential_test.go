package kalis

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"kalis/internal/eval"
)

// diffEpisodes keeps the differential runs short while still covering
// every scenario's discovery phase and several attack episodes.
const diffEpisodes = 5

// recordTrace simulates one scenario and returns its raw-byte trace.
func recordTrace(t *testing.T, sc eval.Scenario, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := sc.Record(seed, diffEpisodes, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayAlerts replays a recorded trace through a fresh node and
// returns its alert multiset as sorted (capture time, attack, victim,
// suspects) keys.
func replayAlerts(t *testing.T, raw []byte, opts ...Option) []string {
	t.Helper()
	node, err := New(append([]Option{WithNodeID("K1")}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := node.ReplayTrace(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	node.DrainIngest()
	var keys []string
	for _, a := range node.Alerts() {
		keys = append(keys, fmt.Sprintf("%s %s victim=%s suspects=%v",
			a.Time.Format(time.RFC3339Nano), a.Attack, a.Victim, a.Suspects))
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	return keys
}

// TestScenarioTracesDeterministic: one scenario and one seed give one
// byte-identical trace, on every scenario (including the mobility
// phases of replication/static-mobile).
func TestScenarioTracesDeterministic(t *testing.T) {
	for _, sc := range eval.AllScenarios() {
		a, b := recordTrace(t, sc, 1), recordTrace(t, sc, 1)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two builds with seed 1 recorded different traces (%d vs %d bytes)", sc.Name, len(a), len(b))
		}
	}
}

// TestDurableReplayMatchesReference replays every scenario's recorded
// trace, for three seeds, through the two node configurations the CLI
// runs — the default node and one with durable state — and requires
// identical alert multisets.
func TestDurableReplayMatchesReference(t *testing.T) {
	for _, sc := range eval.AllScenarios() {
		for _, seed := range []int64{1, 2, 3} {
			raw := recordTrace(t, sc, seed)
			ref := replayAlerts(t, raw)
			durable := replayAlerts(t, raw, WithStateDir(t.TempDir()))
			if len(ref) == 0 {
				t.Errorf("%s seed %d: reference replay raised no alert; the comparison is vacuous", sc.Name, seed)
			}
			if strings.Join(ref, "\n") != strings.Join(durable, "\n") {
				t.Errorf("%s seed %d: durable node raised %d alerts, reference %d:\nreference:\n%s\ndurable:\n%s",
					sc.Name, seed, len(durable), len(ref), strings.Join(ref, "\n"), strings.Join(durable, "\n"))
			}
		}
	}
}
