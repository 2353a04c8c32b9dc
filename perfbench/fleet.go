package main

import (
	"encoding/json"
	"fmt"
	"time"

	"capuchin/internal/bench"
	"capuchin/internal/hw"
)

// fleet is the multi-tenant scheduling workload: bench.FleetScenarios on
// the paper's 16 GiB P100 over arrival streams of fleetJobs jobs and
// fleetDevices devices. One repetition profiles the job menu on a fresh
// runner, as the experiment does, then runs the three scenarios over
// each of fleetStreams streams seeded from the benchmark seed.
type fleet struct {
	workers int
	fos     []bench.FleetOptions
	oracle  *oracle
	last    *fleetState
}

type fleetState struct {
	fcs     []bench.FleetComparison
	results []bench.Result // the profiling cells
	stats   bench.RunnerStats
}

// fleetJobs and fleetDevices size each arrival stream: a sixth of the
// experiment's 1200 jobs over 48 devices, at the same offered load (the
// experiment tunes arrivals to 1.4x the fleet's capacity at any size).
// A stream's scheduling cost varies widely with its seed: on a 2-vCPU
// Xeon a full-size stream takes about 7 s and varies 1.8x, a 300 x 12
// stream 0.04-0.2 s. At this size one stream takes about 0.04 s, so a
// repetition averages fleetStreams of them and still fits several
// times in a run.
const (
	fleetJobs    = 200
	fleetDevices = 8
)

func fleetOptions(r *bench.Runner) bench.Options {
	return bench.Options{Device: hw.P100(), Runner: r}
}

// setupFleet profiles the menu once on a throwaway runner, through a
// one-job fleet run.
func setupFleet(seed uint64, workers int) (instance, error) {
	w := &fleet{workers: workers, oracle: newOracle()}
	for _, s := range fleetSeeds(seed) {
		w.fos = append(w.fos, bench.FleetOptions{Jobs: fleetJobs, Devices: fleetDevices, Seed: s})
	}
	warm := w.fos[0]
	warm.Jobs = 1
	if _, err := bench.FleetScenarios(fleetOptions(bench.NewRunner(workers)), warm); err != nil {
		return nil, fmt.Errorf("fleet warm-up: %w", err)
	}
	return w, nil
}

func (w *fleet) rep() repResult {
	w.last = nil
	var cells []bench.RunConfig
	r := observed(w.workers, &cells)
	st := &fleetState{}
	res := repResult{sim: make(map[string]float64)}
	d := newDigest()
	var goodput float64
	start := time.Now()
	for _, fo := range w.fos {
		t0 := time.Now()
		fc, err := bench.FleetScenarios(fleetOptions(r), fo)
		res.opMS = append(res.opMS, msOf(time.Since(t0).Nanoseconds()))
		res.ops += fo.Jobs * 3
		if err != nil {
			res.failures = append(res.failures, fmt.Sprintf("fleet.Run (seed %d): %v", fo.Seed, err))
			continue
		}
		st.fcs = append(st.fcs, fc)
		b, jerr := json.Marshal(fc)
		if jerr != nil {
			res.failures = append(res.failures, fmt.Sprintf("encoding fleet report: %v", jerr))
		}
		d.write(b)
		if len(fc.Runs) == 3 {
			goodput += fc.Runs[2].GoodputPct / float64(len(w.fos))
		}
	}
	res.wall = time.Since(start)
	st.stats = r.Stats()
	st.results = cachedResults(r, cells)
	for _, cr := range st.results {
		res.simIters += len(cr.Stats)
		if f := failure(cr); f != "" {
			res.failures = append(res.failures, f)
		}
		if cr.OK {
			res.samplesPerS = append(res.samplesPerS, cr.Throughput)
		}
	}
	res.digest = d.sum()
	res.sim["fleet.sim_goodput_pct"] = goodput
	w.last = st
	res.heapMiB = heapMiB()
	return res
}

// check applies the fingerprint oracle to the completed profiling cells.
func (w *fleet) check() checks {
	var c checks
	for _, res := range w.last.results {
		if res.OK {
			c.add(w.oracle.check(res))
		}
	}
	return c
}

// trace schedules the first stream twice on one shared runner: the first
// call profiles and schedules, the second finds every profile cached, so
// its time is the scheduling loop alone and the difference is profiling.
// The remaining streams follow on the same runner. Every call must
// reproduce the untraced repetition's report.
func (w *fleet) trace(l *layers) time.Duration {
	r := bench.NewRunner(w.workers)
	cell := l.rec.cell()
	var traced, loop, profile time.Duration
	for i, fo := range append([]bench.FleetOptions{w.fos[0]}, w.fos...) {
		name := fmt.Sprintf("bench.FleetScenarios seed %d", fo.Seed)
		if i == 0 {
			name += " (profile and schedule)"
		}
		sp := l.rec.start(cell, 0, "fleet", name)
		fc, err := bench.FleetScenarios(fleetOptions(r), fo)
		took := time.Duration(l.rec.finish(sp))
		k := max(i-1, 0)
		why := ""
		if err != nil || k >= len(w.last.fcs) || fmt.Sprint(fc) != fmt.Sprint(w.last.fcs[k]) {
			why = fmt.Sprintf("fleet seed %d: traced call differs from the untraced repetition (err %v)", fo.Seed, err)
		}
		l.check(why)
		switch i {
		case 0:
			traced += took
			profile = took
		case 1:
			profile -= took
			loop += took
		default:
			traced += took
			loop += took
		}
	}
	l.mu.Lock()
	l.fleetLoopS += loop.Seconds()
	l.fleetProfileS += profile.Seconds()
	for _, fc := range w.last.fcs {
		l.fleetJobs += fc.Jobs * len(fc.Runs)
		for _, rep := range fc.Runs {
			l.fleetCounts.admissions += rep.Admissions
			l.fleetCounts.preemptions += rep.Preemptions
			l.fleetCounts.kills += rep.Kills
			l.fleetCounts.requeues += rep.Requeues
			l.fleetCounts.capAbsorbs += rep.CapAbsorbs
		}
	}
	l.runner = w.last.stats
	l.mu.Unlock()
	traceCells(l, w.last.results, w.workers)
	return traced
}
