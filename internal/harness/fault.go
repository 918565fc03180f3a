package harness

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"smoothscan/internal/disk"
	"smoothscan/internal/exec"
	"smoothscan/internal/plan"
	"smoothscan/internal/tuple"
)

// FaultExp is the chaos experiment: the same 10%-selectivity Smooth
// Scan re-run under deterministic injected fault schedules. Recoverable
// schedules (transient failures, corrupted pages caught by checksum,
// latency spikes) must produce a result digest byte-identical to the
// fault-free oracle — the retry layer hides the faults and only the
// simulated time moves. A permanent schedule must surface as a typed
// error, never a panic or a wrong answer. Everything is simulated cost
// under fixed seeds, so the table is deterministic and lives in the
// ssbench golden like any other experiment.
func (r *Runner) FaultExp() (*Table, error) {
	tab, dev, err := r.micro(disk.HDD)
	if err != nil {
		return nil, err
	}
	pool := r.poolFor(dev, tab.File.NumPages())

	run := func(policy *disk.FaultPolicy) (uint64, int64, disk.Stats, error) {
		dev.SetFaultPolicy(policy)
		defer dev.SetFaultPolicy(nil)
		pool.Reset()
		dev.ResetStats()
		built, err := plan.Build(plan.ScanSpec{
			File: tab.File, Pool: pool, Tree: tab.Index,
			Pred: tab.PredForSelectivity(0.10),
			Path: plan.PathSmooth,
		})
		if err != nil {
			return 0, 0, disk.Stats{}, err
		}
		rows, err := exec.Drain(built.Op)
		if err != nil {
			return 0, 0, dev.Stats(), err
		}
		return digestRows(rows), int64(len(rows)), dev.Stats(), nil
	}

	oracle, oracleN, oracleSt, err := run(nil)
	if err != nil {
		return nil, fmt.Errorf("harness: fault-free oracle failed: %w", err)
	}

	type scenario struct {
		name   string
		policy *disk.FaultPolicy
	}
	seed := r.cfg.Seed
	scenarios := []scenario{
		{"clean", nil},
		{"transient r=0.05", disk.NewFaultPolicy(seed, disk.FaultRule{
			Space: disk.AnySpace, Kind: disk.FaultTransient, Rate: 0.05})},
		{"transient r=0.15", disk.NewFaultPolicy(seed, disk.FaultRule{
			Space: disk.AnySpace, Kind: disk.FaultTransient, Rate: 0.15})},
		{"corrupt r=0.05", disk.NewFaultPolicy(seed, disk.FaultRule{
			Space: disk.AnySpace, Kind: disk.FaultCorrupt, Rate: 0.05})},
		{"latency r=0.50 +50u", disk.NewFaultPolicy(seed, disk.FaultRule{
			Space: disk.AnySpace, Kind: disk.FaultLatency, Rate: 0.50, ExtraCost: 50})},
		{"permanent heap r=1", disk.NewFaultPolicy(seed, disk.FaultRule{
			Space: tab.File.Space(), Kind: disk.FaultPermanent, Rate: 1})},
	}

	rows := make([][]string, 0, len(scenarios))
	for _, sc := range scenarios {
		digest, n, st, err := run(sc.policy)
		result := "match oracle"
		switch {
		case err != nil:
			switch {
			case errors.Is(err, disk.ErrPermanentFault):
				result = "typed error (permanent)"
			case disk.IsFault(err):
				result = "typed error (fault)"
			default:
				return nil, fmt.Errorf("harness: scenario %q: unexpected error %w", sc.name, err)
			}
			n = 0
		case digest != oracle || n != oracleN:
			result = "MISMATCH"
		}
		rows = append(rows, []string{
			sc.name,
			fmt.Sprintf("%d", n),
			result,
			fmt.Sprintf("%d", st.Faults+st.Corruptions+st.LatencySpikes),
			fmt.Sprintf("%d", st.Retries),
			fmtTime(st.Time()),
			fmt.Sprintf("%.2fx", st.Time()/oracleSt.Time()),
		})
	}

	return &Table{
		Title:  "Fault injection: Smooth Scan under deterministic fault schedules (HDD, 10% sel)",
		Header: []string{"schedule", "rows", "result", "faults", "retries", "time", "vs clean"},
		Rows:   rows,
		Notes: []string{
			"Recoverable schedules (transient, corrupt, latency) must match the fault-free",
			"oracle digest exactly: checksums catch corruption before it enters the buffer",
			"pool and page-granular retry re-reads the flaky page, so only simulated time",
			"moves. The permanent schedule must surface a typed error, never a panic.",
		},
	}, nil
}

// digestRows hashes drained rows into one order-sensitive digest.
func digestRows(rows []tuple.Row) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, row := range rows {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
