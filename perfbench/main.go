// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the program's public entry points, checks every
// output it measures, and prints its metrics as one JSON object on the last
// line of standard output:
//
//	go run . --workload label --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it makes
// a separate traced run and prints the per-layer breakdown. See README.md
// for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"metaopt/internal/par"
)

// defaultSeed is the seed cmd/experiments uses by default; at this seed the
// learn workload's outputs must equal the recorded cmd/experiments output.
const defaultSeed = 2005

// maxProcs bounds GOMAXPROCS, the par pool width and the client count: the
// benchmark targets a two-core box and must not oversubscribe it.
const maxProcs = 2

// setupRepeats is how many times each run builds its set-up from scratch;
// setup_s is the median, so one slow set-up does not move the metric.
const setupRepeats = 3

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", defaultSeed, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 makes a traced run that prints the per-layer metrics")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload one of %s, seconds ≥ 1, trace 0 or 1)\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	width := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(width)
	par.SetLimit(width)

	dir, err := os.MkdirTemp(".", ".perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	w := mk(*seed, dir)
	cfg := runConfig{seconds: time.Duration(*seconds) * time.Second,
		traceOut: fmt.Sprintf(".perfbench-trace-%s.json", *name)}
	var res *result
	if *trace == 1 {
		res, err = traced(w, cfg)
	} else {
		res, err = untraced(w, cfg)
	}
	w.close()
	if rmErr := os.RemoveAll(dir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, l := range res.notes {
		fmt.Println(l)
	}
	line, err := json.Marshal(res.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
