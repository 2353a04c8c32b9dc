package bench

import (
	"errors"
	"reflect"
	"testing"

	"capuchin/internal/exec"
	"capuchin/internal/hw"
	"capuchin/internal/models"
	"capuchin/internal/obs"
)

// profiledCfg is a small memory-pressured Capuchin cell: cheap enough for
// unit tests, tight enough that the profile has swap traffic to show.
func profiledCfg() RunConfig {
	return RunConfig{
		Model:  "alexnet",
		Batch:  256,
		System: SystemCapuchin,
		Device: hw.P100().WithMemory(2 * hw.GiB),
	}
}

// TestProfileNeutrality pins the bench-level half of the zero-overhead
// contract on every engine — static, dynamic (constant schedule) and a
// 2-device cluster: Run, RunTraced into a Collector and a Profile:true
// run report identical outcomes, and an OOM run still returns its
// profile and partial statistics.
func TestProfileNeutrality(t *testing.T) {
	dynamic := profiledCfg()
	dynamic.Schedule = models.ScheduleConstant
	cluster := profiledCfg()
	cluster.Devices = 2
	for _, tc := range []struct {
		name string
		cfg  RunConfig
	}{
		{"static", profiledCfg()},
		{"dynamic", dynamic},
		{"cluster", cluster},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oom := tc.cfg
			oom.System = SystemTF // unmanaged: this batch cannot fit
			oom.Batch *= 4
			for _, cfg := range []RunConfig{tc.cfg, oom} {
				base := Run(cfg)
				col := obs.NewCollector()
				traced := RunTraced(cfg, col)
				pcfg := cfg
				pcfg.Profile = true
				prof := Run(pcfg)

				if cfg.System == SystemTF {
					if base.OK || !errors.Is(base.Err, exec.ErrIterationOOM) {
						t.Fatalf("%s: want an iteration OOM, got ok=%v err=%v", cfg.System, base.OK, base.Err)
					}
					if len(prof.Stats) == 0 {
						t.Errorf("%s: failed run lost its partial Stats", cfg.System)
					}
				} else if !base.OK {
					t.Fatalf("%s: baseline run failed: %v", cfg.System, base.Err)
				}
				if col.Len() == 0 {
					t.Errorf("%s: RunTraced delivered no events", cfg.System)
				}
				if prof.Profile == nil {
					t.Fatalf("%s: profiled run returned no ProfileReport", cfg.System)
				}
				if base.Profile != nil || traced.Profile != nil {
					t.Errorf("%s: unprofiled run carries a ProfileReport", cfg.System)
				}
				for _, r := range []struct {
					name string
					res  Result
				}{{"traced", traced}, {"profiled", prof}} {
					if !reflect.DeepEqual(outcome(base), outcome(r.res)) {
						t.Errorf("%s: %s run changed outcomes:\n base %+v\n %s %+v",
							cfg.System, r.name, outcome(base), r.name, outcome(r.res))
					}
				}
			}
		})
	}
}

// outcome is the part of a Result that tracing must not change.
func outcome(r Result) []any {
	return []any{r.OK, r.Stats, r.Steady, r.Throughput, r.Plan, r.Dynamic, r.Cluster}
}

// TestProfileReportContents checks the report is populated: events,
// decisions, a memory profile whose peak matches the allocator's, and
// metrics histograms.
func TestProfileReportContents(t *testing.T) {
	cfg := profiledCfg()
	cfg.Profile = true
	res := Run(cfg)
	if !res.OK {
		t.Fatalf("run failed: %v", res.Err)
	}
	p := res.Profile
	if p.Events.Len() == 0 {
		t.Fatal("profile recorded no events")
	}
	if len(p.Events.Decisions()) == 0 {
		t.Error("capuchin run under pressure produced no audit decisions")
	}
	var peak int64
	for _, st := range res.Stats {
		if st.PeakBytes > peak {
			peak = st.PeakBytes
		}
	}
	if p.Mem.PeakBytes != peak {
		t.Errorf("profile peak %d != allocator peak %d", p.Mem.PeakBytes, peak)
	}
	if h, ok := p.Metrics.Hist("kernel"); !ok || h.Count == 0 {
		t.Error("kernel histogram missing from profiled run")
	}
}

// TestPolicyAuditCoverage checks the audit log is not Capuchin-specific:
// the baseline systems' swap/recompute actions route through the Env, so
// a pressured run under any of them leaves a non-empty decision history.
func TestPolicyAuditCoverage(t *testing.T) {
	for _, sys := range []System{SystemVDNN, SystemOpenAIMemory, SystemSuperNeurons} {
		cfg := profiledCfg()
		cfg.System = sys
		cfg.Profile = true
		res := Run(cfg)
		if res.Profile == nil {
			t.Fatalf("%s: no profile (%v)", sys, res.Err)
		}
		if len(res.Profile.Events.Decisions()) == 0 {
			t.Errorf("%s produced no audit decisions under pressure", sys)
		}
	}
}

// TestRunnerMetricsAggregation checks the sweep-wide registry: profiled
// cells merge into Runner.Metrics() exactly once each, with cache hits not
// double-counting.
func TestRunnerMetricsAggregation(t *testing.T) {
	r := NewRunner(2)
	r.EnableProfiling()
	cfg := profiledCfg()

	first := r.Run(cfg)
	if !first.OK {
		t.Fatalf("run failed: %v", first.Err)
	}
	if first.Profile == nil {
		t.Fatal("runner-wide profiling did not attach a report")
	}
	h, ok := r.Metrics().Hist("kernel")
	if !ok || h.Count == 0 {
		t.Fatal("aggregate has no kernel histogram after a profiled cell")
	}
	kernels := h.Count

	// A cache hit must not inflate the aggregate.
	if again := r.Run(cfg); !again.OK {
		t.Fatalf("cached run failed: %v", again.Err)
	}
	if h2, _ := r.Metrics().Hist("kernel"); h2.Count != kernels {
		t.Errorf("cache hit double-counted metrics: %d -> %d", kernels, h2.Count)
	}
	if st := r.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("unexpected cache stats: %+v", st)
	}

	// A second distinct cell extends the aggregate.
	cfg2 := cfg
	cfg2.Batch = 128
	if res := r.Run(cfg2); !res.OK {
		t.Fatalf("second cell failed: %v", res.Err)
	}
	if h3, _ := r.Metrics().Hist("kernel"); h3.Count <= kernels {
		t.Errorf("aggregate did not grow: %d -> %d", kernels, h3.Count)
	}
}
