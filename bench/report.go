package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// machine records where numbers were measured, so a committed result
// says which class of box it binds on.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func thisMachine() machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     os.Getenv("BENCH_COMMIT"), // run.sh asks git
	}
	if m.Commit == "" {
		m.Commit = "unknown"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// runResult is one run of one workload: the contract's four keys plus
// what -compare and the full run's report need.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Quick     bool                   `json:"quick,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Error     string                 `json:"first_error,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`

	// SpeedIndex is the median of the rounds' speed indexes: every
	// time above was divided by its round's (see calib.go), so
	// multiplying back gives roughly what the clock read.
	SpeedIndex float64 `json:"speed_index,omitempty"`
	// Rounds is how many rounds the time allowed; PerRound keeps each
	// timing metric's per-round values, whose spread tells -compare
	// whether a difference can be resolved at all.
	Rounds   int                  `json:"rounds,omitempty"`
	PerRound map[string][]float64 `json:"per_round,omitempty"`
	// PrefixDigest folds the results of the round's leading queries,
	// the ones sibling workloads replay too.
	PrefixDigest string `json:"prefix_digest,omitempty"`
}

func newRunResult(w workload, sc scale, seed int64, trace bool) *runResult {
	return &runResult{
		Workload: w.Name, Seed: seed, Trace: trace, Quick: sc.rows == quickScale.rows,
		Metrics: make(map[string]metricValue),
	}
}

var (
	endToEndSet = metricSet(endToEnd)
	perLayerSet = metricSet(perLayer)
)

// set stores a metric under its declared unit; a name the spec does
// not know is a bug in the benchmark.
func (res *runResult) set(name string, v float64) {
	spec, ok := endToEndSet[name]
	if !ok {
		if spec, ok = perLayerSet[name]; !ok {
			panic("bench: metric " + name + " is not in the spec")
		}
	}
	res.Metrics[name] = metricValue{Value: v, Unit: spec.Unit}
}

// finish copies the runner's operation tally into the result.
func (res *runResult) finish(r *runner) {
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Correct = r.failed == 0
	if r.firstErr != nil {
		res.Error = r.firstErr.Error()
	}
}

// missing lists the spec'd metrics the result lacks.
func (res *runResult) missing() []string {
	specs := endToEnd
	if res.Trace {
		specs = perLayer
	}
	var out []string
	for _, s := range specs {
		if _, ok := res.Metrics[s.Name]; !ok {
			out = append(out, s.Name)
		}
	}
	return out
}

// print writes every metric by name with its unit, in spec order, and
// then the contract's result object as the last line.
func (res *runResult) print(w io.Writer) error {
	specs := endToEnd
	if res.Trace {
		specs = perLayer
	}
	fmt.Fprintf(w, "# %s seed=%d trace=%v rounds=%d attempted=%d failed=%d speed_index=%.3f (times are divided by it)\n",
		res.Workload, res.Seed, res.Trace, res.Rounds, res.Attempted, res.Failed, res.SpeedIndex)
	if res.Error != "" {
		fmt.Fprintf(w, "# first error: %s\n", res.Error)
	}
	for _, s := range specs {
		if m, ok := res.Metrics[s.Name]; ok {
			fmt.Fprintf(w, "%-36s %16.4f %s\n", s.Name, m.Value, m.Unit)
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
