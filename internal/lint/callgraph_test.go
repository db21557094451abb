package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCallGraphGolden pins the devirtualized packet-path call graph:
// every method named HandlePacket rooted in internal/core, walked
// through internal/flow exactly as the hot-path rules walk it. A
// wiring change that adds, drops or reroutes an edge shows up as a
// golden diff in review instead of a silent analysis gap.
//
// Regenerate after intentional graph changes with either
//
//	go run ./cmd/kalislint -callgraph HandlePacket > internal/lint/testdata/callgraph_handlepacket.golden
//	UPDATE_GOLDEN=1 go test ./internal/lint -run TestCallGraphGolden
func TestCallGraphGolden(t *testing.T) {
	// Load the bare module, not the shared fixture-augmented target:
	// fixture packages implement in-module interfaces (flow.Tracker,
	// callback function types) and would leak class-hierarchy edges into
	// the dump that `kalislint -callgraph` never sees.
	target, err := Load(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	got := DumpMethodGraph(target, "HandlePacket",
		PathScope("kalis/internal/core"),
		PathScope("kalis/internal/core", "kalis/internal/flow"))
	if got == "" {
		t.Fatal("empty HandlePacket call graph: roots not found")
	}

	golden := filepath.Join("testdata", "callgraph_handlepacket.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("HandlePacket call graph drifted from %s\n"+
			"diff it against `go run ./cmd/kalislint -callgraph HandlePacket` and, "+
			"if the wiring change is intentional, regenerate with UPDATE_GOLDEN=1",
			golden)
	}
}
