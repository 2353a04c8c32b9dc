package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"capuchin/internal/bench"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/serve"
)

func TestInputsFollowTheSeed(t *testing.T) {
	gen := map[string]func(uint64) any{
		"sweep": func(s uint64) any { return sweepInputs(s) },
		"train": func(s uint64) any { return trainInputs(s) },
		"serve": func(s uint64) any { return serveInputs(s) },
		"fleet": func(s uint64) any { return fleetSeeds(s) },
	}
	for name, f := range gen {
		if !reflect.DeepEqual(f(defaultSeed), f(defaultSeed)) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if reflect.DeepEqual(f(defaultSeed), f(heldOutSeed)) {
			t.Errorf("%s: seeds %d and %d gave the same inputs", name, defaultSeed, heldOutSeed)
		}
	}
}

func TestServeSessionsAreDistinctAndBalanced(t *testing.T) {
	ss := serveInputs(7)
	seen := make(map[serve.RunRequest]bool)
	perModel := make(map[string]int)
	hits, scrapes := 0, 0
	for i, s := range ss {
		if seen[s.Req] {
			t.Fatalf("session %d: config %+v submitted twice", i, s.Req)
		}
		seen[s.Req] = true
		perModel[s.Req.Model]++
		if s.Hit {
			hits++
		}
		if s.Scrape {
			scrapes++
		}
	}
	if len(ss) != serveSessions || hits != serveHits || scrapes != serveScrapes {
		t.Errorf("%d sessions, %d hits, %d scrapes; want %d, %d, %d", len(ss), hits, scrapes, serveSessions, serveHits, serveScrapes)
	}
	for _, m := range serveMenu {
		if perModel[m.model] != serveSessions/len(serveMenu) {
			t.Errorf("%s: %d sessions, want %d", m.model, perModel[m.model], serveSessions/len(serveMenu))
		}
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tailOf must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		ok    bool
		pct   float64
		value float64
	}{
		{n: 10},
		{n: 19},
		{n: 20, ok: true, pct: 50, value: 10},
		{n: 99, ok: true, pct: 75, value: 75},
		{n: 100, ok: true, pct: 90, value: 90},
		{n: 1000, ok: true, pct: 99, value: 990},
		{n: 10000, ok: true, pct: 99.9, value: 9990},
	} {
		got := tailOf(ramp(tc.n))
		if got.OK != tc.ok || got.N != tc.n || (tc.ok && (got.Pct != tc.pct || got.Value != tc.value)) {
			t.Errorf("tailOf(%d samples) = %+v, want ok=%v p%g=%g", tc.n, got, tc.ok, tc.pct, tc.value)
		}
	}
}

func TestTailUnitNamesPercentileAndCount(t *testing.T) {
	for n, want := range map[int]string{48: "ms_p75_n48", 192: "ms_p90_n192", 1000: "ms_p99_n1000"} {
		if got := tailUnit(n); got != want {
			t.Errorf("tailUnit(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestDecomposeMatchesBenchRun(t *testing.T) {
	rec := newRecorder()
	for _, sys := range []bench.System{bench.SystemTF, bench.SystemCapuchin} {
		cfg := bench.RunConfig{Model: "alexnet", Batch: 64, System: sys,
			Device: hw.P100().WithMemory(1 << 30), Iterations: 3}
		ct := decompose(cfg, rec, nil)
		res := bench.Run(cfg)
		if why := sameOutcome(ct, res); why != "" {
			t.Fatalf("%s: %s", sys, why)
		}
		if sys == bench.SystemCapuchin && ct.PlanIter != 0 {
			t.Errorf("capuchin planned in iteration %d, want 0", ct.PlanIter)
		}
		if ct.BuildNS <= 0 || ct.InitNS <= 0 || len(ct.IterNS) != 3 {
			t.Errorf("%s: missing spans: %+v", sys, ct)
		}
		if got, _ := json.Marshal(asResult(ct)); string(got) == "" {
			t.Errorf("%s: empty result", sys)
		}
	}
	self := rec.selfTime()
	for _, layer := range []string{"bench", "graph", "exec", "core"} {
		if self[layer] <= 0 {
			t.Errorf("no self time recorded for layer %s: %v", layer, self)
		}
	}
}

func TestReplayPairsFrees(t *testing.T) {
	evs := []obs.Event{
		{Cat: "alloc", Tensor: "a", Bytes: 1 << 20},
		{Cat: "alloc", Tensor: "b", Bytes: 2 << 20},
		{Cat: "alloc", Bytes: 4 << 10}, // workspace
		{Cat: "free", Bytes: 4 << 10},
		{Cat: "free", Tensor: "a", Bytes: 1 << 20},
		{Cat: "alloc", Tensor: "b", Bytes: 2 << 20}, // unreported free of b
		{Cat: "alloc", Tensor: "c", Bytes: 1 << 40}, // beyond capacity
	}
	st := replayBFC(evs, 64<<20)
	if st.Allocs != 4 || st.Frees != 3 || st.OOMs != 1 || st.Largest != len(evs) {
		t.Fatalf("replay = %+v, want 4 allocs, 3 frees, 1 OOM, %d largest-free queries", st, len(evs))
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the
// metrics the command prints in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		return out
	}
	declared := func(ms []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		return out
	}
	if got, want := declared(spec.EndToEnd), names(endToEndNames()); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end = %v, the command prints %v", got, want)
	}
	if got, want := declared(spec.PerLayer), names(perLayerNames()); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer = %v, the command prints %v", got, want)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(wl, have) {
		t.Errorf("workloads = %v, the command has %v", wl, have)
	}
}
