package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"capuchin/internal/fleet"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
)

// fleetWorkloads is the fleet experiment's job menu: heterogeneous model
// families (plain CNNs, depthwise-separable CNNs, a transformer, a
// recurrent net) at batch ladders whose peaks span a wide range, so
// bin-packing faces genuinely mixed footprints.
func fleetWorkloads(quick bool) []fleet.Workload {
	if quick {
		// Sized to the goldens' 4 GiB device slice: peaks well under the
		// device, so contention comes from packing, not single-job fit.
		return []fleet.Workload{
			{Model: "resnet50", Batch: 16},
			{Model: "mobilenetv2", Batch: 32},
			{Model: "lstm", Batch: 4},
		}
	}
	return []fleet.Workload{
		{Model: "resnet50", Batch: 32},
		{Model: "resnet50", Batch: 96},
		{Model: "vgg16", Batch: 32},
		{Model: "inceptionv3", Batch: 48},
		{Model: "mobilenetv2", Batch: 64},
		{Model: "lstm", Batch: 32},
		{Model: "bert", Batch: 8},
		{Model: "alexnet", Batch: 128},
	}
}

// ExecProfiler implements fleet.Profiler on the real executor: the
// sandbox warmup is an instrumented run whose allocator high-water mark
// (exec.IterStats.PeakBytes) is the prediction input, the steady profile
// a longer run, and the Capuchin cap anchor a run under a capped device.
// All cells go through the shared Runner, so repeated workloads across
// the three fleet scenarios simulate once.
type ExecProfiler struct {
	Runner *Runner
	// Device is the fleet's device model; profiling runs on an uncapped
	// (256 GiB) variant so the sandbox never OOMs.
	Device hw.DeviceSpec
	// WarmupIters and SteadyIters are the instrumented run lengths
	// (defaults 2 and 4).
	WarmupIters, SteadyIters int

	mu    sync.Mutex
	cache map[fleet.Workload]fleet.Profile
}

var _ fleet.Profiler = (*ExecProfiler)(nil)

// Profile implements fleet.Profiler.
func (p *ExecProfiler) Profile(w fleet.Workload) (fleet.Profile, error) {
	p.mu.Lock()
	if prof, ok := p.cache[w]; ok {
		p.mu.Unlock()
		return prof, nil
	}
	p.mu.Unlock()

	warmIters := p.WarmupIters
	if warmIters == 0 {
		warmIters = 2
	}
	steadyIters := p.SteadyIters
	if steadyIters == 0 {
		steadyIters = 4
	}
	big := p.Device.WithMemory(256 * hw.GiB)

	runs := p.Runner.RunAll([]RunConfig{
		{Model: w.Model, Batch: w.Batch, System: SystemTF, Device: big, Iterations: warmIters},
		{Model: w.Model, Batch: w.Batch, System: SystemTF, Device: big, Iterations: steadyIters},
	})
	warm, steady := runs[0], runs[1]
	if !warm.OK || !steady.OK {
		return fleet.Profile{}, fmt.Errorf("bench: profiling %v failed: warm=%v steady=%v", w, warm.Err, steady.Err)
	}
	prof := fleet.Profile{
		WarmupPeak: warm.Steady.PeakBytes,
		SteadyPeak: steady.Steady.PeakBytes,
		IterTime:   steady.Steady.Duration,
		// Until a cap run succeeds, the workload reports as uncappable.
		MinCapRatio:       1,
		CapAnchorRatio:    1,
		CapAnchorSlowdown: 1,
	}

	// Cap anchor: run Capuchin under a capped device at descending
	// ratios; the first that survives anchors the managed-slowdown
	// model, and feasibility extends a step below it.
	for _, ratio := range []float64{0.7, 0.85} {
		capBytes := int64(float64(prof.SteadyPeak) * ratio)
		res := p.Runner.Run(RunConfig{
			Model: w.Model, Batch: w.Batch, System: SystemCapuchin,
			Device: p.Device.WithMemory(capBytes), Iterations: steadyIters,
		})
		if !res.OK {
			continue
		}
		slow := float64(res.Steady.Duration) / float64(prof.IterTime)
		if slow < 1 {
			slow = 1
		}
		prof.CapAnchorRatio = ratio
		prof.CapAnchorSlowdown = slow
		prof.MinCapRatio = ratio - 0.15
		break
	}

	p.mu.Lock()
	if p.cache == nil {
		p.cache = make(map[fleet.Workload]fleet.Profile)
	}
	p.cache[w] = prof
	p.mu.Unlock()
	return prof, nil
}

// FleetOptions parameterizes the fleet experiment beyond the shared
// bench Options.
type FleetOptions struct {
	// Jobs is the arrival-stream length (0 = 1200; quick 250).
	Jobs int
	// Devices is the simulated device count (0 = 48; quick 8).
	Devices int
	// Seed drives the arrival stream (0 = 1).
	Seed uint64
}

func (fo FleetOptions) fill(quick bool) FleetOptions {
	if fo.Jobs == 0 {
		fo.Jobs = 1200
		if quick {
			fo.Jobs = 250
		}
	}
	if fo.Devices == 0 {
		fo.Devices = 48
		if quick {
			fo.Devices = 8
		}
	}
	if fo.Seed == 0 {
		fo.Seed = 1
	}
	return fo
}

// FleetComparison is the fleet experiment's machine-readable result: the
// three scenarios (admit-all baseline, predictive admission, predictive
// plus Capuchin-managed jobs) over one identical arrival stream. It is
// fully determined by (Options.Device, Options.Quick, FleetOptions) and
// marshals to stable JSON. FleetArtifact is its gated view, the shape
// of BENCH_fleet.json.
type FleetComparison struct {
	// Meta is the run's provenance block. It is deterministic for a
	// fixed checkout (no wall-clock unless explicitly stamped), so the
	// artifact's byte-stability contract extends over it.
	Meta    RunMeta        `json:"meta"`
	Device  string         `json:"device"`
	Jobs    int            `json:"jobs"`
	Devices int            `json:"devices"`
	Seed    uint64         `json:"seed"`
	Menu    []string       `json:"menu"`
	Runs    []fleet.Report `json:"runs"`
}

// WriteJSON writes the comparison as indented JSON.
func (fc FleetComparison) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(fc)
}

// fleetSetup is the scenario assembly shared by FleetScenarios and
// FleetObserved: profile the menu on the real executor (fanned out on
// the runner) and tune the arrival rate to the profiled workloads so the
// fleet is genuinely contended at any size — offered load ≈ 1.4×
// capacity.
func fleetSetup(o Options, fo FleetOptions) (menu []fleet.Workload, prof *ExecProfiler, mean sim.Time, err error) {
	menu = fleetWorkloads(o.Quick)
	prof = &ExecProfiler{Runner: o.Runner, Device: o.Device}

	// Resolve the whole menu concurrently before the (serial) fleet
	// runs: RunAll fans the warm/steady cells out on the runner.
	cfgs := make([]RunConfig, 0, 2*len(menu))
	big := o.Device.WithMemory(256 * hw.GiB)
	for _, w := range menu {
		cfgs = append(cfgs,
			RunConfig{Model: w.Model, Batch: w.Batch, System: SystemTF, Device: big, Iterations: 2},
			RunConfig{Model: w.Model, Batch: w.Batch, System: SystemTF, Device: big, Iterations: 4})
	}
	o.Runner.RunAll(cfgs)

	var work float64 // mean job demand in byte-seconds
	for _, w := range menu {
		pr, perr := prof.Profile(w)
		if perr != nil {
			return nil, nil, 0, perr
		}
		work += float64(pr.SteadyPeak) * (70 * pr.IterTime).Seconds() // 70 = mean iters
	}
	work /= float64(len(menu))
	fleetBytes := float64(fo.Devices) * float64(o.Device.MemoryBytes)
	mean = sim.Time(work / fleetBytes / 1.4 * float64(sim.Second))
	if mean < sim.Millisecond {
		mean = sim.Millisecond
	}
	return menu, prof, mean, nil
}

// fleetConfig assembles one scenario's fleet.Config over the shared
// setup.
func fleetConfig(o Options, fo FleetOptions, menu []fleet.Workload, prof fleet.Profiler, mean sim.Time,
	mode fleet.AdmissionMode, mgr fleet.Manager) fleet.Config {
	return fleet.Config{
		Seed:             fo.Seed,
		Jobs:             fo.Jobs,
		Devices:          fo.Devices,
		DeviceMemory:     o.Device.MemoryBytes,
		Admission:        mode,
		Manager:          mgr,
		Profiler:         prof,
		Workloads:        menu,
		MeanInterarrival: mean,
		JitterFrac:       0.25,
	}
}

// fleetMeta is the deterministic provenance block of a fleet artifact.
func fleetMeta(o Options, fo FleetOptions) RunMeta {
	return NewRunMeta(ToolFleet, fo.Seed, o.Quick,
		fmt.Sprintf("device=%s", o.Device.Name),
		fmt.Sprintf("mem-gib=%d", o.Device.MemoryBytes/hw.GiB),
		fmt.Sprintf("fleet-jobs=%d", fo.Jobs),
		fmt.Sprintf("fleet-devices=%d", fo.Devices),
		fmt.Sprintf("fleet-seed=%d", fo.Seed))
}

// FleetScenarios profiles the menu on the real executor and runs the
// three fleet scenarios over one identical seeded arrival stream.
func FleetScenarios(o Options, fo FleetOptions) (FleetComparison, error) {
	o = o.fill()
	fo = fo.fill(o.Quick)
	menu, prof, mean, err := fleetSetup(o, fo)
	if err != nil {
		return FleetComparison{}, err
	}

	fc := FleetComparison{
		Meta:    fleetMeta(o, fo),
		Device:  fmt.Sprintf("%s @ %d GiB x%d", o.Device.Name, o.Device.MemoryBytes/hw.GiB, fo.Devices),
		Jobs:    fo.Jobs,
		Devices: fo.Devices,
		Seed:    fo.Seed,
	}
	for _, w := range menu {
		fc.Menu = append(fc.Menu, w.String())
	}
	for _, sc := range []struct {
		mode fleet.AdmissionMode
		mgr  fleet.Manager
	}{
		{fleet.AdmitAll, fleet.ManagerNone},
		{fleet.Predictive, fleet.ManagerNone},
		{fleet.Predictive, fleet.ManagerCapuchin},
	} {
		f, err := fleet.New(fleetConfig(o, fo, menu, prof, mean, sc.mode, sc.mgr))
		if err != nil {
			return FleetComparison{}, err
		}
		rep, err := f.Run()
		if err != nil {
			return FleetComparison{}, err
		}
		fc.Runs = append(fc.Runs, rep)
	}
	return fc, nil
}

// FleetObserved runs the flagship scenario — predictive admission with
// Capuchin-managed jobs — over the same setup as FleetScenarios with the
// full observability stack attached: tracer receives the fleet timeline
// and decision audit, and met (when non-nil) a merge of the run's
// registry. Tracing is outcome-neutral: the returned report is
// byte-identical to the corresponding FleetScenarios run.
func FleetObserved(o Options, fo FleetOptions, tracer obs.Tracer, met *obs.Metrics) (fleet.Report, error) {
	o = o.fill()
	fo = fo.fill(o.Quick)
	menu, prof, mean, err := fleetSetup(o, fo)
	if err != nil {
		return fleet.Report{}, err
	}
	cfg := fleetConfig(o, fo, menu, prof, mean, fleet.Predictive, fleet.ManagerCapuchin)
	cfg.Tracer = tracer
	cfg.Metrics = met
	f, err := fleet.New(cfg)
	if err != nil {
		return fleet.Report{}, err
	}
	return f.Run()
}

// Fleet runs the multi-tenant fleet experiment: a seeded stochastic
// stream of training jobs over simulated devices, comparing admit-all
// scheduling, OOM-prediction admission control, and predictive admission
// with Capuchin-managed jobs. Rows are assembled serially from one
// deterministic simulation, so the table is byte-identical at any -jobs.
func Fleet(o Options) *Table {
	return FleetTable(o, FleetOptions{})
}

// FleetTable is Fleet with explicit fleet parameters (the CLI's
// -fleet-jobs / -fleet-devices / -fleet-seed flags).
func FleetTable(o Options, fo FleetOptions) *Table {
	fc, err := FleetScenarios(o, fo)
	if err != nil {
		t := fleetTableShell()
		t.AddNote("fleet experiment failed: %v", err)
		return t
	}
	return FleetTableFrom(fc)
}

func fleetTableShell() *Table {
	return &Table{
		Title: "Fleet: multi-tenant scheduling, OOM-prediction admission vs admit-all",
		Header: []string{"scenario", "completed", "rejected", "kills", "kill rate",
			"preempt", "absorbs", "pred err", "util", "goodput", "p50 JCT", "p99 JCT"},
	}
}

// FleetTableFrom renders an already-computed comparison, so a caller
// needing both the table and the JSON artifact simulates once.
func FleetTableFrom(fc FleetComparison) *Table {
	t := fleetTableShell()
	for _, r := range fc.Runs {
		name := r.Mode
		if r.Manager != "none" {
			name += "+" + r.Manager
		}
		t.AddRow(name,
			fmt.Sprintf("%d", r.Completed),
			fmt.Sprintf("%d", r.Rejected),
			fmt.Sprintf("%d", r.Kills),
			fmt.Sprintf("%.1f%%", r.KillRatePct),
			fmt.Sprintf("%d", r.Preemptions),
			fmt.Sprintf("%d", r.CapAbsorbs),
			fmt.Sprintf("%.1f%%", r.MeanAbsPredErrPct),
			fmt.Sprintf("%.1f%%", r.UtilizationPct),
			fmt.Sprintf("%.1f%%", r.GoodputPct),
			fmt.Sprintf("%.0fms", r.P50JCTMillis),
			fmt.Sprintf("%.0fms", r.P99JCTMillis))
	}
	t.AddNote("%d jobs over %d devices (%s), one identical seeded arrival stream per scenario", fc.Jobs, fc.Devices, fc.Device)
	if len(fc.Runs) == 3 {
		base, pred, cap := fc.Runs[0], fc.Runs[1], fc.Runs[2]
		if base.Completed > 0 {
			t.AddNote("capacity uplift: %.2fx the admit-all baseline's completions (%d vs %d jobs on the same fleet)",
				float64(cap.Completed)/float64(base.Completed), cap.Completed, base.Completed)
		}
		t.AddNote("predictive admission cuts the OOM-kill rate %.1f%% -> %.1f%% (capuchin-managed: %.1f%%)",
			base.KillRatePct, pred.KillRatePct, cap.KillRatePct)
	}
	return t
}
