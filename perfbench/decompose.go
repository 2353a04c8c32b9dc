package main

import (
	"fmt"
	"reflect"

	"capuchin/internal/bench"
	"capuchin/internal/core"
	"capuchin/internal/exec"
	"capuchin/internal/graph"
	"capuchin/internal/memory"
	"capuchin/internal/models"
	"capuchin/internal/obs"
)

// cellTrace is one static cell re-executed layer by layer.
type cellTrace struct {
	Config bench.RunConfig
	Stats  []exec.IterStats
	Err    error

	TotalNS, BuildNS, InitNS int64
	// IterNS is the host time of each iteration; PlanIter is the index of
	// the iteration in which Capuchin built its plan (-1 when none).
	IterNS   []int64
	PlanIter int

	Pool     memory.Stats
	Plan     core.PlanSummary
	Capuchin bool
}

// decompose re-executes a static (single-device, fixed-shape) cell the
// way bench.Run does, one public call at a time, recording a span
// around each call: models.Spec.Build (graph), the registered policy's
// Build and exec.NewSession (exec), and Session.RunIteration (exec, or
// core for the iteration in which Capuchin builds its plan). tr, when
// non-nil, receives the session's event stream.
func decompose(cfg bench.RunConfig, rec *recorder, tr obs.Tracer) (ct cellTrace) {
	ct = cellTrace{Config: cfg, PlanIter: -1}
	iters := cfg.Iterations
	if iters == 0 {
		iters = 3
	}
	cell := rec.cell()
	root := rec.start(cell, 0, "bench", "cell "+cellLabel(cfg))
	defer func() { ct.TotalNS = rec.finish(root) }()

	sp := rec.start(cell, root, "graph", "models.Spec.Build")
	var g *graph.Graph
	spec, err := models.Get(cfg.Model)
	if err == nil {
		opts := graph.GraphModeOptions()
		if cfg.Mode == exec.EagerMode {
			opts = graph.EagerModeOptions()
		}
		g, err = spec.Build(cfg.Batch, opts)
	}
	ct.BuildNS = rec.finish(sp)
	if err != nil {
		ct.Err = err
		return ct
	}

	sp = rec.start(cell, root, "exec", "PolicySpec.Build")
	ps, ok := exec.LookupPolicy(string(cfg.System))
	if !ok {
		rec.finish(sp)
		ct.Err = fmt.Errorf("unknown system %q", cfg.System)
		return ct
	}
	pol, err := ps.Build(exec.BuildContext{Graph: g, Device: cfg.Device})
	rec.finish(sp)
	if err != nil {
		ct.Err = err
		return ct
	}
	ec := exec.Config{
		Device: cfg.Device, Mode: cfg.Mode, Allocator: cfg.Allocator,
		RecordSpans: cfg.RecordSpans, HostMemory: cfg.HostMemory, Faults: cfg.Faults,
		Policy: pol, CoupledSwap: ps.CoupledSwap || cfg.ForceCoupledSwap,
		CollectiveRecompute: ps.CollectiveRecompute, Tracer: tr,
	}

	sp = rec.start(cell, root, "exec", "exec.NewSession")
	s, err := exec.NewSession(g, ec)
	ct.InitNS = rec.finish(sp)
	if err != nil {
		ct.Err = err
		return ct
	}
	capu, _ := pol.(*core.Capuchin)
	for i := 0; i < iters; i++ {
		planned := capu != nil && capu.Planned()
		sp = rec.start(cell, root, "exec", "Session.RunIteration")
		st, err := s.RunIteration()
		ns := rec.finish(sp)
		if capu != nil && !planned && capu.Planned() {
			ct.PlanIter = i
			rec.relabel(sp, "core", "Session.RunIteration (Capuchin plan build)")
		}
		ct.IterNS = append(ct.IterNS, ns)
		ct.Stats = append(ct.Stats, st)
		if err != nil {
			ct.Err = err
			break
		}
	}
	if p, ok := s.Pool().(interface{ Stats() memory.Stats }); ok {
		ct.Pool = p.Stats()
	}
	if capu != nil {
		ct.Plan, ct.Capuchin = capu.Summary(), true
	}
	return ct
}

// sameOutcome reports why a decomposed cell differs from bench.Run's
// result for the same configuration, or "" when the iteration
// statistics and the error agree exactly.
func sameOutcome(ct cellTrace, res bench.Result) string {
	if (ct.Err == nil) != (res.Err == nil) {
		return fmt.Sprintf("error differs: decomposed %v, bench.Run %v", ct.Err, res.Err)
	}
	if ct.Err != nil && ct.Err.Error() != res.Err.Error() {
		return fmt.Sprintf("error differs: decomposed %q, bench.Run %q", ct.Err, res.Err)
	}
	if len(ct.Stats) != len(res.Stats) {
		return fmt.Sprintf("iteration count differs: decomposed %d, bench.Run %d", len(ct.Stats), len(res.Stats))
	}
	for i := range ct.Stats {
		if !reflect.DeepEqual(ct.Stats[i], res.Stats[i]) {
			return fmt.Sprintf("iteration %d statistics differ", i)
		}
	}
	return ""
}

// static reports whether cfg runs bench.Run's static path, the one
// decompose mirrors.
func static(cfg bench.RunConfig) bool { return cfg.Schedule == "" && cfg.Devices <= 1 }

func cellLabel(cfg bench.RunConfig) string {
	s := fmt.Sprintf("%s/%s b%d %dMiB x%d", cfg.Model, cfg.System, cfg.Batch, cfg.Device.MemoryBytes/mib, cfg.Iterations)
	if cfg.Schedule != "" {
		s += " sched=" + cfg.Schedule
	}
	if cfg.Devices > 1 {
		s += fmt.Sprintf(" dev=%d", cfg.Devices)
	}
	return s
}
