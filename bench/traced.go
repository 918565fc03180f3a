package main

import (
	"time"
)

// workloadShare is the part of a traced run's time the workload's own
// rounds get; the ladder takes the rest.
const workloadShare = 0.4

// runTraced is the per-layer run. It replays the workload's rounds
// alternately with spans off and on — the spans give the facade's
// phases, the pairing gives the tracing overhead — then climbs the
// ladder for everything below and beside the facade, and writes the
// spans out at the end.
func runTraced(w workload, sc scale, seed int64, seconds float64, tracePath string) (*runResult, error) {
	rec := newRecorder()
	r := newRunner(w, sc, seed)
	defer r.close()
	var setups []float64
	budget := time.Duration(seconds * float64(time.Second))
	rounds, err := r.runRounds(time.Duration(workloadShare*float64(budget)), &setups, rec)
	if err != nil {
		return nil, err
	}
	var plain, traced []roundResult
	for _, rr := range rounds {
		if rr.traced {
			traced = append(traced, rr)
		} else {
			plain = append(plain, rr)
		}
	}
	r.close()

	res := newRunResult(w, sc, seed, true)
	res.Rounds = len(rounds)

	// client.*: the harness's own health on this workload.
	p50s := overRounds(plain, func(rr roundResult) float64 { return rr.p50 })
	res.set("client.query_p99_us", median(overRounds(plain, func(rr roundResult) float64 { return rr.p99 })))
	lo, hi := p50s[0], p50s[0]
	for _, v := range p50s {
		lo, hi = min(lo, v), max(hi, v)
	}
	res.set("client.round_spread", (hi-lo)/median(p50s))
	res.set("client.gc_cycles", median(overRounds(plain, func(rr roundResult) float64 { return float64(rr.gcCycles) })))
	res.set("client.gc_pause_ms", median(overRounds(plain, func(rr roundResult) float64 { return float64(rr.gcPauseNs) / 1e6 })))
	res.set("client.trace_overhead_ratio",
		median(overRounds(traced, func(rr roundResult) float64 { return rr.p50 }))/median(p50s))

	// facade.*: the spans around Builder.Run, the first Next, the drain
	// loop and Close, as this workload's engine shows them.
	// The trace file keeps the clock's readings; the metrics are at
	// nominal speed like every other time.
	speed := median(overRounds(traced, func(rr roundResult) float64 { return rr.speed }))
	res.SpeedIndex = speed
	res.set("facade.run_ns", median(rec.durations("run"))/speed)
	res.set("facade.first_row_ns", median(rec.durations("first_row"))/speed)
	res.set("facade.close_ns", median(rec.durations("close"))/speed)
	res.set("facade.drain_ns_per_tuple", float64(r.tracedDrainNs)/float64(max(r.tracedDrainTuple, 1))/speed)

	// disk.*: the device's view of this workload's first round.
	first := rounds[0]
	res.set("disk.pages_read_per_query", float64(first.pagesRead)/float64(max(first.queries, 1)))
	res.set("disk.rand_access_ratio", float64(first.randAcc)/float64(max(first.randAcc+first.seqAcc, 1)))

	ladder, tried, failed, ladderErr := runLadder(seed, sc, budget-time.Duration(workloadShare*float64(budget)), rec)
	for name, v := range ladder {
		res.set(name, v)
	}
	res.finish(r)
	res.Attempted += tried
	res.Failed += failed
	res.Correct = res.Failed == 0
	if res.Error == "" && ladderErr != nil {
		res.Error = ladderErr.Error()
	}
	if err := rec.write(tracePath); err != nil {
		return nil, err
	}
	return res, nil
}
