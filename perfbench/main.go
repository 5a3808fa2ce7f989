// Command perfbench is the repository's benchmark. One invocation measures
// one named workload for a fixed time: every repetition runs in a fresh
// child process (so no study, layout, stream or result cache survives from
// one repetition to the next), every rendered result is checked against the
// digests recorded for the seed, and the last line of standard output is a
// JSON object with the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a traced repetition).
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload grid --seed 1995 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads, the metrics and the
// layer-to-end-to-end mapping.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", defaultSeed, "kernel generation seed the workload's inputs are made from (0 selects 1995)")
		seconds = flag.Int("seconds", 25, "how long to keep starting measured repetitions")
		trace   = flag.Int("trace", 0, "0 reports end-to-end metrics; 1 reports per-layer metrics from a traced repetition")
		child   = flag.Bool("child", false, "run one repetition in this process and print its JSON result (used by the parent)")
		traced  = flag.Bool("traced", false, "with -child: attach tracing and run the layer probes")
		record  = flag.Bool("record", false, "run one repetition in this process and print its digests as JSON, for digests.json")
	)
	flag.Parse()
	rep, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seed == 0 {
		*seed = defaultSeed
	}
	var err error
	switch {
	case *child:
		err = runChild(rep, *seed, *traced)
	case *record:
		err = runRecord(*name, rep, *seed)
	default:
		if *trace != 0 && *trace != 1 {
			err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
			break
		}
		if *seconds < 1 {
			err = fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
			break
		}
		err = runParent(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// runChild executes one repetition and writes its result as one JSON line.
func runChild(rep repFunc, seed int64, traced bool) error {
	r, err := rep(seed, traced)
	if err != nil {
		return err
	}
	r.finish()
	return json.NewEncoder(os.Stdout).Encode(r)
}

// runRecord prints one repetition's digests in the shape of one
// digests.json entry.
func runRecord(name string, rep repFunc, seed int64) error {
	r, err := rep(seed, false)
	if err != nil {
		return err
	}
	if r.Failed > 0 {
		return fmt.Errorf("repetition failed: %s", strings.Join(r.Failures, "; "))
	}
	out, err := json.MarshalIndent(map[string]map[string]map[string]string{
		fmt.Sprint(seed): {name: r.Digests},
	}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
