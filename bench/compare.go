package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

// quartileSpread is the distance between the first and the third
// quartile of v as a share of its median, quartiles taken the way
// Python's statistics.quantiles(v, n=4) takes them. Fewer than two
// values have no spread.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quart := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (quart(3) - quart(1)) / med
}

// verdict judges one end-to-end metric of run b against baseline a.
// worse is the change in the bad direction as a share of a's value.
// A metric whose rounds spread wider than its bound cannot tell a
// regression from noise, so it is unresolved whatever the medians say.
func verdict(spec metricSpec, a, b float64, spread float64) (worse float64, v string) {
	if a != 0 {
		worse = (b - a) / a
		if spec.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case spread > spec.Bound:
		return worse, "unresolved"
	case worse > spec.Bound:
		return worse, "regressed"
	}
	return worse, "within-bound"
}

var errRegressed = errors.New("at least one metric regressed")

// compareFiles prints, per workload and end-to-end metric, both
// values, the relative change with its base, the metric's bound and a
// verdict; a is the baseline. It fails when any cell regressed.
func compareFiles(w io.Writer, pathA, pathB string) error {
	var a, b fullReport
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	fmt.Fprintf(w, "# a: %s  commit %s seed %d  %d cpu  %s\n", pathA, a.Machine.Commit, a.Seed, a.Machine.NumCPU, a.Machine.CPUModel)
	fmt.Fprintf(w, "# b: %s  commit %s seed %d  %d cpu  %s\n", pathB, b.Machine.Commit, b.Seed, b.Machine.NumCPU, b.Machine.CPUModel)
	byName := map[string]*runResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr.EndToEnd
	}
	counts := map[string]int{}
	for _, wr := range a.Workloads {
		ra, rb := wr.EndToEnd, byName[wr.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "\n%s: missing from one side\n", wr.Name)
			counts["unresolved"]++
			continue
		}
		fmt.Fprintf(w, "\n%s (rounds %d vs %d; failed %d/%d vs %d/%d)\n", wr.Name,
			ra.Rounds, rb.Rounds, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		fmt.Fprintf(w, "  %-20s %14s %14s %-5s %22s %7s %7s  %s\n", "metric", "a", "b", "unit", "change (of a)", "bound", "spread", "verdict")
		for _, spec := range endToEnd {
			va, vb := ra.Metrics[spec.Name].Value, rb.Metrics[spec.Name].Value
			spread := quartileSpread(ra.PerRound[spec.Name])
			if s := quartileSpread(rb.PerRound[spec.Name]); s > spread {
				spread = s
			}
			worse, v := verdict(spec, va, vb, spread)
			if rb.Failed > ra.Failed {
				v = "regressed"
			}
			counts[v]++
			change := fmt.Sprintf("%+.2f%% of %.4g", 100*(vb-va)/nonZero(va), va)
			fmt.Fprintf(w, "  %-20s %14.4f %14.4f %-5s %22s %6.0f%% %6.1f%%  %s", spec.Name, va, vb, spec.Unit, change, 100*spec.Bound, 100*spread, v)
			if v == "regressed" {
				fmt.Fprintf(w, " (%.1f%% worse)", 100*worse)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "\n%d within-bound, %d regressed, %d unresolved\n", counts["within-bound"], counts["regressed"], counts["unresolved"])
	if counts["regressed"] > 0 {
		return errRegressed
	}
	return nil
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}
