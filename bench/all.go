package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// fullReport is results/latest.json: every workload's end-to-end run
// and, when the traced pass ran, its per-layer run, with the machine
// they were measured on.
type fullReport struct {
	Machine   machine          `json:"machine"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Quick     bool             `json:"quick,omitempty"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name     string     `json:"name"`
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer,omitempty"`
}

// runAll runs every workload in a process of its own (so no workload
// inherits another's heap, pool or scheduler state), untraced first
// and then traced, and writes the combined report.
func runAll(seed int64, seconds float64, quick, traced bool, results string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rep := fullReport{Machine: thisMachine(), Seed: seed, Seconds: seconds, Quick: quick}
	failed := false
	for _, w := range workloads {
		wr := workloadReport{Name: w.Name}
		for pass := 0; pass <= 1; pass++ {
			if pass == 1 && !traced {
				break
			}
			tmp := filepath.Join(results, fmt.Sprintf(".run-%s-%d.json", w.Name, pass))
			args := []string{
				"--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64),
				"--trace", strconv.Itoa(pass), "--results", results, "--out", tmp,
			}
			if quick {
				args = append(args, "--quick")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			var res runResult
			readErr := readJSON(tmp, &res)
			os.Remove(tmp)
			if readErr != nil {
				return fmt.Errorf("%s --trace %d: %v (no result: %v)", w.Name, pass, runErr, readErr)
			}
			if runErr != nil || !res.Correct {
				failed = true
			}
			if pass == 0 {
				wr.EndToEnd = &res
			} else {
				wr.PerLayer = &res
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if err := familiesAgree(rep.Workloads); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		failed = true
	}
	path := filepath.Join(results, "latest.json")
	if err := writeJSON(path, rep); err != nil {
		return err
	}
	fmt.Printf("# wrote %s\n", path)
	if failed {
		return errFailed
	}
	return nil
}

// familiesAgree checks that workloads replaying the same query prefix
// on different engines (scan_local / scan_wire / scan_sharded, and the
// two point workloads) delivered the same results for it.
func familiesAgree(ws []workloadReport) error {
	want := map[string]string{} // family -> digest
	for _, wr := range ws {
		family, _, _ := strings.Cut(wr.Name, "_")
		d := wr.EndToEnd.PrefixDigest
		if prev, ok := want[family]; ok && prev != d {
			return fmt.Errorf("%s disagrees with its siblings on the shared query prefix: digest %s, want %s", wr.Name, d, prev)
		}
		want[family] = d
	}
	return nil
}
