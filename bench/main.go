// Command bench is the repository's benchmark: six closed-loop
// workloads over the public Engine interface, checked against an
// in-memory oracle, reporting the end-to-end metrics of BENCHMARK.json
// (--trace 0) or the per-layer ladder (--trace 1). See README.md.
//
//	bench --workload scan_local --seed 42 --seconds 12 --trace 0
//	bench --all [--seed N] [--quick] [--trace 0]   # every workload, own process each
//	bench --compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	out      string
	all      bool
	results  string
	compare  bool
	spec     bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (one of BENCHMARK.json's)")
	flag.Int64Var(&o.seed, "seed", 42, "seed the table and the operation lists derive from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long to measure")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics, spans off; 1: per-layer metrics from the traced run (--all: 0 skips the traced pass)")
	flag.BoolVar(&o.quick, "quick", false, "2 000-row table and short rounds (what go test runs)")
	flag.StringVar(&o.out, "out", "", "also write the result as JSON to this file")
	flag.BoolVar(&o.all, "all", false, "run every workload, each in its own process, and write latest.json")
	flag.StringVar(&o.results, "results", filepath.Join("bench", "results"), "directory for latest.json and trace files")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: bench --compare a.json b.json")
	flag.BoolVar(&o.spec, "spec", false, "print BENCHMARK.json")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

var errFailed = errors.New("operations failed or mismatched the oracle")

func run(o options) error {
	sc := fullScale
	if o.quick {
		sc = quickScale
	}
	switch {
	case o.spec:
		data, err := json.MarshalIndent(benchmarkJSON(), "", "  ")
		if err != nil {
			return err
		}
		_, err = fmt.Printf("%s\n", data)
		return err
	case o.compare:
		if flag.NArg() != 2 {
			return errors.New("--compare takes two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case o.all:
		return runAll(o.seed, o.seconds, o.quick, o.trace != 0, o.results)
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds %v", o.seconds)
	}
	var res *runResult
	var err error
	if o.trace == 1 {
		res, err = runTraced(w, sc, o.seed, o.seconds, filepath.Join(o.results, "trace-"+w.Name+".json"))
	} else {
		res, err = runEndToEnd(w, sc, o.seed, o.seconds)
	}
	if err != nil {
		return err
	}
	if miss := res.missing(); len(miss) > 0 {
		return fmt.Errorf("metrics not emitted: %v", miss)
	}
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			return err
		}
	}
	if err := res.print(os.Stdout); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%w: %d of %d (%s)", errFailed, res.Failed, res.Attempted, res.Error)
	}
	return nil
}

// benchmarkJSON renders the spec in the shape of BENCHMARK.json.
func benchmarkJSON() any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.Name, w.Why})
	}
	var e2e []bounded
	for _, m := range endToEnd {
		e2e = append(e2e, bounded{m.Name, m.Unit, m.Better, m.Bound})
	}
	var pl []layer
	for _, m := range perLayer {
		pl = append(pl, layer{m.Name, m.Unit, m.Better})
	}
	return struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []wl      `json:"workloads"`
		EndToEnd   []bounded `json:"end_to_end"`
		PerLayer   []layer   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  ws,
		EndToEnd:   e2e,
		PerLayer:   pl,
	}
}
