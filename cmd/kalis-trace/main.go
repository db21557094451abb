// Command kalis-trace records built-in scenarios into Kalis trace
// files and inspects existing traces — the record/replay half of the
// paper's evaluation methodology (§VI-A).
//
// Usage:
//
//	kalis-trace -record icmp-flood -o flood.ktrc -episodes 5
//	kalis-trace -inspect flood.ktrc
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"kalis/internal/eval"
	"kalis/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kalis-trace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		record   = flag.String("record", "", "scenario to record (see kalis -list)")
		out      = flag.String("o", "capture.ktrc", "output trace file for -record/-merge")
		inspect  = flag.String("inspect", "", "trace file to summarize")
		mergeA   = flag.String("merge", "", "first trace to merge (with -with) by timestamp")
		mergeB   = flag.String("with", "", "second trace to merge")
		episodes = flag.Int("episodes", 5, "attack episodes to record")
		seed     = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()

	switch {
	case *record != "":
		return recordScenario(*record, *out, *seed, *episodes)
	case *inspect != "":
		return inspectTrace(*inspect)
	case *mergeA != "" && *mergeB != "":
		return mergeTraces(*mergeA, *mergeB, *out)
	default:
		return fmt.Errorf("pass -record <scenario>, -inspect <file>, or -merge <a> -with <b>")
	}
}

// mergeTraces interleaves two traces by timestamp — the §VI-A
// methodology of enhancing a clean capture with attack symptoms.
func mergeTraces(pathA, pathB, out string) error {
	read := func(path string) ([]*trace.Record, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadAll(f)
	}
	a, err := read(pathA)
	if err != nil {
		return err
	}
	b, err := read(pathB)
	if err != nil {
		return err
	}
	merged := trace.Merge(a, b)
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := trace.NewWriter(f)
	for _, rec := range merged {
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("merged %d + %d records into %s\n", len(a), len(b), out)
	return nil
}

func recordScenario(name, out string, seed int64, episodes int) error {
	sc, ok := eval.ScenarioByName(name)
	if !ok {
		return fmt.Errorf("unknown scenario %q", name)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := sc.Record(seed, episodes, f)
	if err != nil {
		return err
	}
	fmt.Printf("recorded %d frames of %s into %s\n", n, sc.Name, out)
	return nil
}

func inspectTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := trace.ReadAll(f)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		fmt.Println("empty trace")
		return nil
	}
	kinds := map[string]int{}
	attacks := map[string]int{}
	decodeErrs := 0
	for _, r := range recs {
		c, err := r.Decode()
		if err != nil {
			decodeErrs++
			continue
		}
		kinds[c.Kind.String()]++
		if r.Truth != nil {
			attacks[r.Truth.Attack]++
		}
	}
	first, last := recs[0].Time, recs[len(recs)-1].Time
	fmt.Printf("%s: %d frames, %v span, %d undecodable\n", path, len(recs), last.Sub(first), decodeErrs)
	fmt.Println("traffic by kind:")
	for _, k := range sortedKeys(kinds) {
		fmt.Printf("  %-20s %6d\n", k, kinds[k])
	}
	if len(attacks) > 0 {
		fmt.Println("labelled attack symptoms:")
		for _, a := range sortedKeys(attacks) {
			fmt.Printf("  %-20s %6d\n", a, attacks[a])
		}
	}
	return nil
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
