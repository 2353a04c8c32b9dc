package main

import (
	"sync"

	"capuchin/internal/bench"
	"capuchin/internal/hw"
	"capuchin/internal/sim"
)

// metric is one reported number with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// layers accumulates what a traced run measures at each layer boundary.
// A layer no call of the workload reaches reports zero.
type layers struct {
	rec *recorder

	mu     sync.Mutex
	cells  []cellTrace // static cells re-executed by decompose
	whole  []int64     // host ns of dynamic and cluster cells, timed as whole bench.Run calls
	replay replayStats // BFC replay of one cell per policy
	runner bench.RunnerStats
	sim    map[string]float64 // simulated outcomes reported under a layer's name

	fleetProfileS, fleetLoopS float64
	fleetJobs                 int
	fleetCounts               struct{ admissions, preemptions, kills, requeues, capAbsorbs int }

	serveMS    map[string][]float64 // per-phase request latencies
	serveStats struct {
		dedupRatio               float64
		shed, stored, queuedPeak int
	}
	overheadPct []float64
	// pairs counts traced passes; counts summed over passes are reported
	// per pass.
	pairs int

	checks checks // decomposition-vs-bench.Run equality
}

func newLayers() *layers {
	return &layers{rec: newRecorder(), sim: make(map[string]float64), serveMS: make(map[string][]float64)}
}

func (l *layers) addCell(ct cellTrace) {
	l.mu.Lock()
	l.cells = append(l.cells, ct)
	l.mu.Unlock()
}

func (l *layers) addWhole(ns int64) {
	l.mu.Lock()
	l.whole = append(l.whole, ns)
	l.mu.Unlock()
}

func (l *layers) check(why string) {
	l.mu.Lock()
	l.checks.add(why)
	l.mu.Unlock()
}

// perLayerNames lists every per-layer metric in report order with its
// unit; exec.iter_ms.<system> expands to one entry per registered system.
func perLayerNames() []metric {
	ms := []metric{
		{Name: "graph.builds", Unit: "count"},
		{Name: "graph.build_ms_p50", Unit: "ms"},
		{Name: "graph.build_share", Unit: "ratio"},
		{Name: "exec.init_ms_p50", Unit: "ms"},
	}
	for _, sys := range bench.SystemNames() {
		ms = append(ms, metric{Name: "exec.iter_ms." + sys, Unit: "ms"})
	}
	return append(ms, []metric{
		{Name: "exec.ns_per_node", Unit: "ns"},
		{Name: "exec.swap_out_gib", Unit: "GiB"},
		{Name: "exec.recompute_count", Unit: "count"},
		{Name: "exec.passive_evicts", Unit: "count"},
		{Name: "exec.stall_share", Unit: "ratio"},
		{Name: "core.plan_iter_ms", Unit: "ms"},
		{Name: "core.plan_builds", Unit: "count"},
		{Name: "core.swap_tensors", Unit: "count"},
		{Name: "core.recompute_tensors", Unit: "count"},
		{Name: "core.adjustments", Unit: "count"},
		{Name: "memory.allocs", Unit: "count"},
		{Name: "memory.frees", Unit: "count"},
		{Name: "memory.alloc_ns", Unit: "ns"},
		{Name: "memory.free_ns", Unit: "ns"},
		{Name: "memory.largest_free_ns", Unit: "ns"},
		{Name: "bench.runner_hits", Unit: "count"},
		{Name: "bench.runner_misses", Unit: "count"},
		{Name: "bench.hit_ratio", Unit: "ratio"},
		{Name: "bench.cached_entries", Unit: "count"},
		{Name: "bench.miss_ms_p50", Unit: "ms"},
		{Name: "bench.sim_maxbatch_gmean", Unit: "samples"},
		{Name: "bench.sim_tf_maxbatch_err_pct", Unit: "%"},
		{Name: "fleet.profile_s", Unit: "s"},
		{Name: "fleet.loop_s", Unit: "s"},
		{Name: "fleet.loop_us_per_job", Unit: "us"},
		{Name: "fleet.admissions", Unit: "count"},
		{Name: "fleet.preemptions", Unit: "count"},
		{Name: "fleet.kills", Unit: "count"},
		{Name: "fleet.requeues", Unit: "count"},
		{Name: "fleet.cap_absorbs", Unit: "count"},
		{Name: "fleet.sim_goodput_pct", Unit: "%"},
		{Name: "serve.submit_ms_p50", Unit: "ms"},
		{Name: "serve.wait_ms_p50", Unit: "ms"},
		{Name: "serve.fetch_ms_p50", Unit: "ms"},
		{Name: "serve.read_ms_p50", Unit: "ms"},
		{Name: "serve.cold_ms_p50", Unit: "ms"},
		{Name: "serve.cold_ms_tail", Unit: tailUnit(serveTracePasses * serveSessions)},
		{Name: "serve.hit_ms_p50", Unit: "ms"},
		{Name: "serve.hit_ms_tail", Unit: tailUnit(serveTracePasses * serveHits)},
		{Name: "serve.dedup_ratio", Unit: "ratio"},
		{Name: "serve.shed", Unit: "count"},
		{Name: "serve.store_entries", Unit: "count"},
		{Name: "serve.queued_peak", Unit: "count"},
		{Name: "obs.trace_overhead_pct", Unit: "%"},
	}...)
}

// metrics computes every per-layer metric from what was recorded.
func (l *layers) metrics() []metric {
	l.mu.Lock()
	defer l.mu.Unlock()
	v := make(map[string]float64)

	var buildMS, initMS, missMS, planMS []float64
	var buildNS, cellNS, iterNS int64
	var nodes int
	var swapOut int64
	var stall, dur sim.Time
	iterMS := make(map[string][]float64)
	for _, ct := range l.cells {
		buildMS = append(buildMS, msOf(ct.BuildNS))
		buildNS += ct.BuildNS
		cellNS += ct.TotalNS
		missMS = append(missMS, msOf(ct.TotalNS))
		if ct.InitNS > 0 {
			initMS = append(initMS, msOf(ct.InitNS))
		}
		for i, st := range ct.Stats {
			iterNS += ct.IterNS[i]
			nodes += st.Nodes
			swapOut += st.SwapOutBytes
			v["exec.recompute_count"] += float64(st.RecomputeCount)
			v["exec.passive_evicts"] += float64(st.PassiveEvicts)
			stall += st.StallTime
			dur += st.Duration
		}
		if ct.Err == nil && len(ct.IterNS) > 0 {
			sys := string(ct.Config.System)
			iterMS[sys] = append(iterMS[sys], msOf(ct.IterNS[len(ct.IterNS)-1]))
		}
		if ct.PlanIter >= 0 {
			planMS = append(planMS, msOf(ct.IterNS[ct.PlanIter]))
		}
		if ct.Capuchin {
			builds := ct.Plan.PlanBuilds
			if builds == 0 && ct.Plan.Planned {
				builds = 1
			}
			v["core.plan_builds"] += float64(builds)
			v["core.swap_tensors"] += float64(ct.Plan.SwapTensors)
			v["core.recompute_tensors"] += float64(ct.Plan.RecomputeCount)
			v["core.adjustments"] += float64(ct.Plan.Adjustments)
		}
		v["memory.allocs"] += float64(ct.Pool.Allocs)
		v["memory.frees"] += float64(ct.Pool.Frees)
	}
	for _, ns := range l.whole {
		missMS = append(missMS, msOf(ns))
	}
	v["graph.builds"] = float64(len(buildMS))
	v["graph.build_ms_p50"] = median(buildMS)
	if cellNS > 0 {
		v["graph.build_share"] = float64(buildNS) / float64(cellNS)
	}
	v["exec.init_ms_p50"] = median(initMS)
	for sys, xs := range iterMS {
		v["exec.iter_ms."+sys] = median(xs)
	}
	if nodes > 0 {
		v["exec.ns_per_node"] = float64(iterNS) / float64(nodes)
	}
	v["exec.swap_out_gib"] = float64(swapOut) / float64(hw.GiB)
	if dur > 0 {
		v["exec.stall_share"] = float64(stall) / float64(dur)
	}
	v["core.plan_iter_ms"] = median(planMS)

	if r := l.replay; r.Allocs > 0 {
		v["memory.alloc_ns"] = float64(r.AllocNS) / float64(r.Allocs)
		if r.Frees > 0 {
			v["memory.free_ns"] = float64(r.FreeNS) / float64(r.Frees)
		}
		v["memory.largest_free_ns"] = float64(r.LargestNS) / float64(r.Largest)
	}

	v["bench.runner_hits"] = float64(l.runner.Hits)
	v["bench.runner_misses"] = float64(l.runner.Misses)
	if n := l.runner.Hits + l.runner.Misses; n > 0 {
		v["bench.hit_ratio"] = float64(l.runner.Hits) / float64(n)
	}
	v["bench.cached_entries"] = float64(l.runner.Cached)
	v["bench.miss_ms_p50"] = median(missMS)

	v["fleet.profile_s"] = l.fleetProfileS
	v["fleet.loop_s"] = l.fleetLoopS
	if l.fleetJobs > 0 {
		v["fleet.loop_us_per_job"] = l.fleetLoopS * 1e6 / float64(l.fleetJobs)
	}
	v["fleet.admissions"] = float64(l.fleetCounts.admissions)
	v["fleet.preemptions"] = float64(l.fleetCounts.preemptions)
	v["fleet.kills"] = float64(l.fleetCounts.kills)
	v["fleet.requeues"] = float64(l.fleetCounts.requeues)
	v["fleet.cap_absorbs"] = float64(l.fleetCounts.capAbsorbs)

	for _, phase := range []string{"submit", "wait", "fetch", "read", "cold", "hit"} {
		v["serve."+phase+"_ms_p50"] = median(l.serveMS[phase])
	}
	v["serve.cold_ms_tail"] = tailOf(l.serveMS["cold"]).Value
	v["serve.hit_ms_tail"] = tailOf(l.serveMS["hit"]).Value
	v["serve.dedup_ratio"] = l.serveStats.dedupRatio
	v["serve.shed"] = float64(l.serveStats.shed)
	v["serve.store_entries"] = float64(l.serveStats.stored)
	v["serve.queued_peak"] = float64(l.serveStats.queuedPeak)
	v["obs.trace_overhead_pct"] = median(l.overheadPct)

	per := float64(max(l.pairs, 1))
	for _, k := range []string{"graph.builds", "exec.swap_out_gib", "exec.recompute_count",
		"exec.passive_evicts", "core.plan_builds", "core.swap_tensors", "core.recompute_tensors",
		"core.adjustments", "memory.allocs", "memory.frees", "fleet.profile_s", "fleet.loop_s", "fleet.admissions",
		"fleet.preemptions", "fleet.kills", "fleet.requeues", "fleet.cap_absorbs"} {
		v[k] /= per
	}
	for k, x := range l.sim {
		v[k] = x
	}
	out := perLayerNames()
	for i := range out {
		out[i].Value = v[out[i].Name]
	}
	return out
}
