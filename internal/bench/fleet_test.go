package bench

import (
	"testing"

	"capuchin/internal/fleet"
	"capuchin/internal/hw"
)

// fleetTestOpts mirrors goldenOpts: quick sweeps on a 4 GiB P100 slice.
func fleetTestOpts(jobs int) Options {
	return Options{Device: hw.P100().WithMemory(4 * hw.GiB), Quick: true, Iterations: 2, Jobs: jobs}
}

// TestExecProfilerAccuracy bounds the warmup-based predictor's error per
// model family on the real executor: the warmup peak is a lower bound on
// the steady peak (the pool high-water mark is monotone in iterations)
// and must land within a family-specific band of it — the property the
// admission controller's safety margin is sized against.
func TestExecProfilerAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles real simulations")
	}
	o := fleetTestOpts(4).fill()
	p := &ExecProfiler{Runner: o.Runner, Device: o.Device}
	cases := []struct {
		family  string
		load    fleet.Workload
		maxFrac float64 // max tolerated (steady-warmup)/steady shortfall
	}{
		{"cnn", fleet.Workload{Model: "resnet50", Batch: 32}, 0.35},
		{"cnn-depthwise", fleet.Workload{Model: "mobilenetv2", Batch: 64}, 0.35},
		{"rnn", fleet.Workload{Model: "lstm", Batch: 16}, 0.40},
	}
	for _, tc := range cases {
		prof, err := p.Profile(tc.load)
		if err != nil {
			t.Fatalf("%s: %v", tc.family, err)
		}
		if prof.WarmupPeak <= 0 || prof.SteadyPeak <= 0 || prof.IterTime <= 0 {
			t.Fatalf("%s: degenerate profile %+v", tc.family, prof)
		}
		if prof.WarmupPeak > prof.SteadyPeak {
			t.Errorf("%s: warmup peak %d exceeds steady peak %d (pool peak must be monotone)",
				tc.family, prof.WarmupPeak, prof.SteadyPeak)
		}
		err1 := float64(prof.SteadyPeak-prof.WarmupPeak) / float64(prof.SteadyPeak)
		if err1 > tc.maxFrac {
			t.Errorf("%s: predictor shortfall %.1f%% exceeds the %.0f%% family bound",
				tc.family, 100*err1, 100*tc.maxFrac)
		}
	}
}

// TestFleetScenariosAcceptance is the experiment-level acceptance: on the
// default seed, predictive admission has a strictly lower kill rate than
// admit-all at equal-or-better goodput, and the Capuchin-managed scenario
// completes at least as many jobs as the baseline.
func TestFleetScenariosAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	fc, err := FleetScenarios(fleetTestOpts(4), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fc.Runs) != 3 {
		t.Fatalf("got %d runs", len(fc.Runs))
	}
	base, pred, capu := fc.Runs[0], fc.Runs[1], fc.Runs[2]
	if pred.KillRatePct >= base.KillRatePct {
		t.Errorf("predictive kill rate %.2f%% not strictly below admit-all %.2f%%",
			pred.KillRatePct, base.KillRatePct)
	}
	if pred.GoodputPct < base.GoodputPct-5 {
		t.Errorf("predictive goodput %.2f%% materially below admit-all %.2f%%",
			pred.GoodputPct, base.GoodputPct)
	}
	if capu.Completed < base.Completed {
		t.Errorf("capuchin-managed completed %d < admit-all %d", capu.Completed, base.Completed)
	}
	for _, r := range fc.Runs {
		if got := r.Completed + r.Rejected; got != fc.Jobs {
			t.Errorf("%s/%s: %d terminal jobs, want %d", r.Mode, r.Manager, got, fc.Jobs)
		}
	}
}

// TestGoldenFleetQuick pins the quick fleet table byte-for-byte.
func TestGoldenFleetQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick fleet takes a few seconds")
	}
	checkGolden(t, "fleet_quick", Fleet(goldenOpts()))
}
