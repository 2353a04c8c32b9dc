package bench

import (
	"errors"
	"strings"
	"testing"

	"capuchin/internal/hw"
)

func TestClusterRun(t *testing.T) {
	r := Run(RunConfig{Model: "resnet50", Batch: 8, System: SystemCapuchin,
		Device: smallDev(), Iterations: 2, Devices: 2})
	if !r.OK {
		t.Fatal(r.Err)
	}
	if r.Cluster == nil || r.Cluster.Devices != 2 || len(r.Cluster.Iters) != 2 {
		t.Fatalf("cluster report missing or wrong shape: %+v", r.Cluster)
	}
	if r.Cluster.Steady.AllReduceBytes == 0 {
		t.Error("no all-reduce traffic recorded")
	}
	if r.Throughput <= 0 {
		t.Error("zero cluster throughput")
	}
	// Per-replica stats surface through the single-device fields too.
	if len(r.Stats) != 2 || r.Steady.Duration <= 0 {
		t.Errorf("replica-0 stats not populated: %+v", r.Stats)
	}
}

func TestClusterRejectsDynamicSchedules(t *testing.T) {
	r := Run(RunConfig{Model: "resnet50", Batch: 8, System: SystemCapuchin,
		Device: smallDev(), Devices: 2, Schedule: "batch"})
	if r.OK || !errors.Is(r.Err, ErrDynamicCluster) {
		t.Errorf("dynamic cluster accepted: OK=%v err=%v", r.OK, r.Err)
	}
}

func TestClusterCacheKeyCanonicalization(t *testing.T) {
	// Single-device configs ignore the comm knobs: all spellings share one
	// cache entry.
	base := RunConfig{Model: "resnet50", Batch: 8, System: SystemTF, Device: smallDev()}
	withDev := base
	withDev.Devices = 1
	withObliv := base
	withObliv.CommOblivious = true
	k := cacheKey(base)
	if cacheKey(withDev) != k || cacheKey(withObliv) != k {
		t.Error("equivalent single-device configs got distinct cache keys")
	}
	multi := base
	multi.Devices = 2
	if cacheKey(multi) == k {
		t.Error("multi-device config shares the single-device cache key")
	}
	multiObliv := multi
	multiObliv.CommOblivious = true
	if cacheKey(multiObliv) == cacheKey(multi) {
		t.Error("comm-oblivious not part of the multi-device cache key")
	}
}

// TestCommAwareNotSlower is the issue's scaling acceptance criterion:
// comm-aware swap scheduling never yields a slower steady iteration than
// comm-oblivious, for N in {2,4,8} on a ResNet-class and a BERT-class
// workload under memory pressure.
func TestCommAwareNotSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-replica sweeps take several seconds")
	}
	r := NewRunner(0)
	dev := hw.P100().WithMemory(2 * hw.GiB)
	for _, m := range []string{"resnet50", "bert"} {
		batch := r.MaxBatch(RunConfig{Model: m, System: SystemTF, Device: dev})
		if batch == 0 {
			t.Fatalf("%s does not fit on the test device", m)
		}
		for _, n := range []int{2, 4, 8} {
			aware := RunConfig{Model: m, Batch: batch, System: SystemCapuchin,
				Device: dev, Iterations: 2, Devices: n}
			obliv := aware
			obliv.CommOblivious = true
			ra, ro := r.Run(aware), r.Run(obliv)
			if !ra.OK || !ro.OK {
				t.Fatalf("%s N=%d failed: aware=%v oblivious=%v", m, n, ra.Err, ro.Err)
			}
			if at, ot := iterTime(ra), iterTime(ro); at > ot {
				t.Errorf("%s N=%d: comm-aware iteration %v slower than comm-oblivious %v", m, n, at, ot)
			}
			// Both modes compute the same training step.
			if ra.Steady.ParamFingerprint != ro.Steady.ParamFingerprint {
				t.Errorf("%s N=%d: fingerprints diverged across comm modes", m, n)
			}
		}
	}
}

// TestScalingDeterminism renders the scaling table twice from independent
// runners; the simulator is deterministic, so the bytes must match.
// TestReplayAcrossJobs checks the same property across job counts.
func TestScalingDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling table takes several seconds")
	}
	render := func() string {
		o := Options{Device: hw.P100().WithMemory(2 * hw.GiB), Quick: true, Iterations: 2}
		var b strings.Builder
		if err := Scaling(o).WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("scaling table not deterministic:\n%s\n----\n%s", a, b)
	}
	if !strings.Contains(a, "resnet50") || !strings.Contains(a, "comm-aware") {
		t.Errorf("scaling table missing expected content:\n%s", a)
	}
}
