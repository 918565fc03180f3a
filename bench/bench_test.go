package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// quickSeconds keeps the whole suite within a few seconds: at the
// quick scale a round takes milliseconds.
const quickSeconds = 0.15

// TestSpecMatchesJSON keeps BENCHMARK.json and the names this binary
// emits identical, and within the driver's limits.
func TestSpecMatchesJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, fromSpec any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	rendered, err := json.Marshal(benchmarkJSON())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rendered, &fromSpec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, fromSpec) {
		t.Errorf("BENCHMARK.json differs from the spec in spec.go/workload.go; regenerate it with `bench/run.sh --spec > BENCHMARK.json`")
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		name(m.Name)
	}
}

// checkEmitted asserts the result carries exactly the spec'd metrics
// and that no operation failed.
func checkEmitted(t *testing.T, res *runResult, specs []metricSpec) {
	t.Helper()
	if miss := res.missing(); len(miss) > 0 {
		t.Errorf("%s trace=%v: metrics not emitted: %v", res.Workload, res.Trace, miss)
	}
	want := metricSet(specs)
	for n := range res.Metrics {
		if _, ok := want[n]; !ok {
			t.Errorf("%s trace=%v: emitted %q, which BENCHMARK.json does not list", res.Workload, res.Trace, n)
		}
	}
	if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
		t.Errorf("%s trace=%v: %d of %d operations failed: %s", res.Workload, res.Trace, res.Failed, res.Attempted, res.Error)
	}
}

// TestQuickWorkloads runs all six workloads and the traced ladder at
// the quick scale: every name in BENCHMARK.json is emitted, nothing
// else is, and the oracle agrees with every result.
func TestQuickWorkloads(t *testing.T) {
	digests := map[string]string{}
	for _, w := range workloads {
		res, err := runEndToEnd(w, quickScale, 42, quickSeconds)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkEmitted(t, res, endToEnd)
		for n, m := range res.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v; the driver needs it above zero", w.Name, n, m.Value)
			}
		}
		var out bytes.Buffer
		if err := res.print(&out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last map[string]any
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("%s: last line is not JSON: %v", w.Name, err)
		}
		if len(last) != 4 || last["correct"] != true {
			t.Errorf("%s: last line has keys %v", w.Name, last)
		}
		digests[w.Name] = res.PrefixDigest
	}
	if digests["scan_local"] != digests["scan_wire"] || digests["scan_local"] != digests["scan_sharded"] {
		t.Errorf("scan workloads disagree on the shared prefix: %v", digests)
	}
	if digests["point_local"] != digests["point_wire"] {
		t.Errorf("point workloads disagree on the shared prefix: %v", digests)
	}

	dir := t.TempDir()
	for _, w := range workloads {
		path := filepath.Join(dir, "trace-"+w.Name+".json")
		res, err := runTraced(w, quickScale, 42, 4*quickSeconds, path)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		checkEmitted(t, res, perLayer)
		var tr struct {
			Spans []span `json:"spans"`
		}
		if err := readJSON(path, &tr); err != nil || len(tr.Spans) == 0 {
			t.Errorf("%s: trace file: %v, %d spans", w.Name, err, len(tr.Spans))
		}
	}
}

// TestDeterminism: one seed gives one operation list, one simulated
// cost, one cache hit ratio and one set of digests; another seed gives
// other lists and the same metric set.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		a := w.ops(generate(7, quickScale.rows), 7, quickScale)
		b := w.ops(generate(7, quickScale.rows), 7, quickScale)
		c := w.ops(generate(8, quickScale.rows), 8, quickScale)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different operation lists", w.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds, same operation list", w.Name)
		}
	}
	for _, name := range []string{"scan_local", "mixed_rw"} {
		w, _ := findWorkload(name)
		a, err := runEndToEnd(w, quickScale, 7, quickSeconds)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runEndToEnd(w, quickScale, 7, quickSeconds)
		if err != nil {
			t.Fatal(err)
		}
		c, err := runEndToEnd(w, quickScale, 8, quickSeconds)
		if err != nil {
			t.Fatal(err)
		}
		if x, y := a.Metrics["simcost_per_query"].Value, b.Metrics["simcost_per_query"].Value; x != y {
			t.Errorf("%s: simcost_per_query %v vs %v with one seed", name, x, y)
		}
		if a.PrefixDigest != b.PrefixDigest {
			t.Errorf("%s: prefix digest %s vs %s with one seed", name, a.PrefixDigest, b.PrefixDigest)
		}
		if len(c.Metrics) != len(a.Metrics) || c.Failed != 0 {
			t.Errorf("%s: seed 8 emitted %d metrics (seed 7: %d), %d failed", name, len(c.Metrics), len(a.Metrics), c.Failed)
		}
	}
	hitRatio := func(seed int64) float64 {
		w, _ := findWorkload("mixed_rw")
		r := newRunner(w, quickScale, seed)
		defer r.close()
		if _, err := r.setup(); err != nil {
			t.Fatal(err)
		}
		rr := r.round()
		if r.failed > 0 {
			t.Fatalf("mixed_rw seed %d: %v", seed, r.firstErr)
		}
		return float64(rr.hits) / float64(rr.queries)
	}
	if a, b := hitRatio(7), hitRatio(7); a != b || a == 0 {
		t.Errorf("result-cache hit ratio %v vs %v with one seed", a, b)
	}
}

// TestOracle checks the prefix-sum oracle against a scan of the rows.
func TestOracle(t *testing.T) {
	ds := generate(3, 500)
	for i := 0; i < 5; i++ {
		ds.noteInsert([]int64{int64(500 + i), int64(1000 * i), 0, 0, 0, 0, 0, 0, 0, 0})
	}
	for _, q := range [][2]int64{{0, domain}, {0, 1}, {999, 1001}, {5000, 25000}, {70000, 70000}, {-5, 10}, {domain - 3, domain + 9}} {
		var rows int64
		var digest uint64
		for i := 0; i < ds.n; i++ {
			if r := ds.row(i); r[1] >= q[0] && r[1] < q[1] {
				rows++
				digest += rowHash(r)
			}
		}
		for _, e := range ds.extra {
			if e.val >= q[0] && e.val < q[1] {
				rows++
				digest += e.hash
			}
		}
		if gr, gd := ds.expect(q[0], q[1], len(ds.extra)); gr != rows || gd != digest {
			t.Errorf("expect(%d,%d) = %d rows %016x, scan says %d rows %016x", q[0], q[1], gr, gd, rows, digest)
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartileSpread(v); got != 1.0 {
		t.Errorf("quartileSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("quartileSpread of one value = %v", got)
	}
}

// TestCompare builds two reports and checks the three verdicts.
func TestCompare(t *testing.T) {
	report := func(p50 float64, rounds []float64) fullReport {
		res := &runResult{Workload: "scan_local", Correct: true, Attempted: 10, Metrics: map[string]metricValue{}, PerRound: map[string][]float64{}}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{Value: 100, Unit: m.Unit}
		}
		res.Metrics["query_p50_us"] = metricValue{Value: p50, Unit: "us"}
		res.PerRound["query_p50_us"] = rounds
		return fullReport{Workloads: []workloadReport{{Name: "scan_local", EndToEnd: res}}}
	}
	dir := t.TempDir()
	write := func(name string, r fullReport) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, r); err != nil {
			t.Fatal(err)
		}
		return p
	}
	steady := []float64{100, 101, 99, 100, 100, 101}
	noisy := []float64{60, 100, 140, 80, 120, 100}
	base := write("a.json", report(100, steady))

	var out bytes.Buffer
	if err := compareFiles(&out, base, write("same.json", report(103, steady))); err != nil {
		t.Errorf("a 3%% change within a 10%% bound: %v", err)
	}
	if !strings.Contains(out.String(), "11 within-bound, 0 regressed, 0 unresolved") {
		t.Errorf("want every cell within-bound:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, write("worse.json", report(130, steady))); err != errRegressed {
		t.Errorf("a 30%% worse p50 returned %v", err)
	}
	if !strings.Contains(out.String(), "query_p50_us") || !strings.Contains(out.String(), "regressed (30.0% worse)") {
		t.Errorf("want query_p50_us regressed:\n%s", out.String())
	}
	out.Reset()
	if err := compareFiles(&out, base, write("noisy.json", report(130, noisy))); err != nil {
		t.Errorf("an unresolved cell must not fail the comparison: %v", err)
	}
	if !strings.Contains(out.String(), "10 within-bound, 0 regressed, 1 unresolved") {
		t.Errorf("want query_p50_us unresolved:\n%s", out.String())
	}
}

func TestFamiliesAgree(t *testing.T) {
	ws := func(d ...string) []workloadReport {
		var out []workloadReport
		for i, n := range []string{"scan_local", "scan_wire", "point_local"} {
			out = append(out, workloadReport{Name: n, EndToEnd: &runResult{PrefixDigest: d[i]}})
		}
		return out
	}
	if err := familiesAgree(ws("aa", "aa", "bb")); err != nil {
		t.Error(err)
	}
	if err := familiesAgree(ws("aa", "ab", "bb")); err == nil {
		t.Error("scan_wire's differing digest went unnoticed")
	}
}
