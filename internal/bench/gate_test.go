package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"capuchin/internal/fleet"
)

// sampleBenchOutput is verbatim-shaped `go test -bench -benchmem`
// output spanning two packages, including every non-benchmark line kind
// the parser must skip.
const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: capuchin
cpu: Intel(R) Xeon(R) CPU
BenchmarkHotPathIteration 	     300	    623581 ns/op	     110 B/op	       1 allocs/op
BenchmarkHotPathMeasuredIteration-8 	      50	   2129901 ns/op	 1296660 B/op	    9579 allocs/op
PASS
ok  	capuchin	2.151s
pkg: capuchin/internal/memory
BenchmarkHotPathBFCAllocFree 	  215470	      5572 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	capuchin/internal/memory	1.003s
`

func readArtifact(t *testing.T, path ...string) Artifact {
	t.Helper()
	a, err := ReadArtifact(filepath.Join(path...))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestCompare is the gate's contract, one case per rule, then every
// checked-in baseline against itself and every degraded fixture against
// the real output it must reject.
func TestCompare(t *testing.T) {
	meta := NewRunMeta("test", 1, true, "device=Tesla P100-PCIE-16GB", "mem-gib=4")
	art := func(rows ...Row) Artifact { return Artifact{Meta: meta, Rows: rows} }
	hi := Row{Metric: "goodput", Value: 50, Unit: "%", Better: Higher, Tol: 2}
	lo := Row{Metric: "p99", Value: 100, Unit: "ms", Better: Lower, Tol: 10}
	at := func(r Row, v float64) Row { r.Value = v; return r }
	with := func(mutate func(*RunMeta)) Artifact {
		a := art(hi)
		a.Meta.Flags = append([]string(nil), meta.Flags...)
		mutate(&a.Meta)
		return a
	}
	// A zero kill rate gets the fleet rows' absolute floor of 1.5 points.
	kills := func(pct float64) Artifact {
		a := FleetArtifact(FleetComparison{Meta: meta,
			Runs: []fleet.Report{{Mode: "predictive", Manager: "none", KillRatePct: pct}}})
		a.Meta = meta
		return a
	}
	alloc := func(text string) Artifact {
		a, err := AllocArtifact(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	cases := []struct {
		name        string
		base, fresh Artifact
		regressed   []string // metrics that must regress, in base order
		wantErr     bool
	}{
		{name: "self", base: art(hi, lo), fresh: art(hi, lo)},
		{name: "higher-within-tol", base: art(hi), fresh: art(at(hi, 48))},
		{name: "higher-past-tol", base: art(hi), fresh: art(at(hi, 47.9)), regressed: []string{"goodput"}},
		{name: "higher-improves", base: art(hi), fresh: art(at(hi, 90))},
		{name: "lower-within-tol", base: art(lo), fresh: art(at(lo, 110))},
		{name: "lower-past-tol", base: art(lo), fresh: art(at(lo, 110.1)), regressed: []string{"p99"}},
		{name: "lower-improves", base: art(lo), fresh: art(at(lo, 1))},
		{name: "floor-near-zero-within", base: kills(0), fresh: kills(1.5)},
		{name: "floor-near-zero-past", base: kills(0), fresh: kills(1.6), regressed: []string{"predictive/killRatePct"}},
		{name: "extra-fresh-row-ignored", base: art(hi), fresh: art(hi, lo)},
		{name: "missing-row", base: art(hi, lo), fresh: art(hi), wantErr: true},
		{name: "identity-tool", base: art(hi), fresh: with(func(m *RunMeta) { m.Tool = "other" }), wantErr: true},
		{name: "identity-seed", base: art(hi), fresh: with(func(m *RunMeta) { m.Seed++ }), wantErr: true},
		{name: "identity-quick", base: art(hi), fresh: with(func(m *RunMeta) { m.Quick = false }), wantErr: true},
		{name: "identity-device", base: art(hi), fresh: with(func(m *RunMeta) { m.Flags[1] = "mem-gib=16" }), wantErr: true},
		{name: "identity-flag-order-ignored", base: art(hi),
			fresh: with(func(m *RunMeta) { m.Flags[0], m.Flags[1] = m.Flags[1], m.Flags[0] })},
		{name: "baseline-without-meta", base: Artifact{Rows: []Row{hi}}, fresh: art(hi), wantErr: true},
		{name: "baseline-bad-direction", base: art(at(Row{Metric: "x", Better: "up"}, 1)), fresh: art(hi), wantErr: true},

		{name: "fleet-baseline-self", base: readArtifact(t, "..", "..", "BENCH_fleet.json"),
			fresh: readArtifact(t, "..", "..", "BENCH_fleet.json")},
		{name: "runner-baseline-self", base: readArtifact(t, "..", "..", "BENCH_parallel_runner.json"),
			fresh: readArtifact(t, "..", "..", "BENCH_parallel_runner.json")},
		{name: "alloc-baseline-self", base: readArtifact(t, "..", "..", "BENCH_hotpath.json"),
			fresh: readArtifact(t, "..", "..", "BENCH_hotpath.json")},
		{name: "serve-baseline-self", base: readArtifact(t, "..", "..", "BENCH_serve.json"),
			fresh: readArtifact(t, "..", "..", "BENCH_serve.json")},

		{name: "fleet-degraded-fixture", base: readArtifact(t, "testdata", "fleet_regressed_baseline.json"),
			fresh: readArtifact(t, "..", "..", "BENCH_fleet.json"),
			regressed: []string{"admit-all/completed", "admit-all/killRatePct", "admit-all/utilizationPct",
				"admit-all/goodputPct", "admit-all/p50JctMillis", "admit-all/p99JctMillis"}},
		{name: "serve-degraded-fixture", base: readArtifact(t, "..", "..", "BENCH_serve.json"),
			fresh: readArtifact(t, "testdata", "serve_regressed_baseline.json"),
			regressed: []string{"request_errors", "byte_identity", "drain_dropped",
				"drain_rejects_new_work", "backpressure_observed"}},
		{name: "alloc-within-budget", base: Artifact{Meta: NewRunMeta(ToolAlloc, 0, false), Rows: []Row{
			{Metric: "capuchin.BenchmarkHotPathIteration", Value: 1, Unit: "allocs/op", Better: Lower},
			{Metric: "capuchin.BenchmarkHotPathMeasuredIteration", Value: 10500, Unit: "allocs/op", Better: Lower},
			{Metric: "capuchin/internal/memory.BenchmarkHotPathBFCAllocFree", Unit: "allocs/op", Better: Lower},
		}}, fresh: alloc(sampleBenchOutput)},
		{name: "alloc-degraded-fixture", base: readArtifact(t, "testdata", "alloc_budget_regressed.json"),
			fresh: alloc(sampleBenchOutput), regressed: []string{"capuchin.BenchmarkHotPathMeasuredIteration"}},
		{name: "alloc-benchmark-vanished", base: readArtifact(t, "..", "..", "BENCH_hotpath.json"),
			fresh: alloc(sampleBenchOutput), wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			regs, err := Compare(tc.base, tc.fresh)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("want an error, got regressions %v", regs)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, r := range regs {
				got = append(got, r.Metric)
			}
			if !reflect.DeepEqual(got, tc.regressed) {
				t.Errorf("regressed %v, want %v", regs, tc.regressed)
			}
		})
	}
}

// TestFreshFleetReproducesRecordedDevice: a fleet baseline re-runs on
// the device its meta records, here a 4 GiB slice, not on the 16 GiB
// default, and reproduces every row exactly.
func TestFreshFleetReproducesRecordedDevice(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fleet three times")
	}
	fo := FleetOptions{Jobs: 40, Devices: 2}
	fc, err := FleetScenarios(fleetTestOpts(4), fo)
	if err != nil {
		t.Fatal(err)
	}
	base := FleetArtifact(fc)
	fresh, err := Fresh(base, "", Options{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.Meta.flag("mem-gib"); got != "4" {
		t.Fatalf("fresh run used mem-gib=%s, want 4", got)
	}
	if regs, err := Compare(base, fresh); err != nil || len(regs) != 0 {
		t.Fatalf("4 GiB baseline against its own re-run: %v, %v", regs, err)
	}
	if !reflect.DeepEqual(base.Rows, fresh.Rows) {
		t.Errorf("re-run rows drifted:\n%v\n%v", base.Rows, fresh.Rows)
	}

	// The device matters: the default device produces other rows, and
	// gating them against the 4 GiB baseline is an identity error.
	big, err := FleetScenarios(Options{Quick: true, Jobs: 4}, fo)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(FleetArtifact(big).Rows, base.Rows) {
		t.Error("16 GiB and 4 GiB fleets produced identical rows; the test has no teeth")
	}
	if _, err := Compare(base, FleetArtifact(big)); err == nil {
		t.Error("device mismatch was not an identity error")
	}
}

// TestRunnerSweepDeterministic re-measures the runner baseline's rows:
// the jobs=1 and jobs=4 sweeps agree, and the fresh artifact gates
// against the checked-in one.
func TestRunnerSweepDeterministic(t *testing.T) {
	fresh := RunnerSweep()
	if fresh.Rows[0].Metric != "determinism" || fresh.Rows[0].Value != 1 {
		t.Fatalf("runner sweep is nondeterministic: %v", fresh.Rows)
	}
	if _, err := Compare(readArtifact(t, "..", "..", "BENCH_parallel_runner.json"), fresh); err != nil {
		t.Fatal(err)
	}
}

func TestParseBenchOutput(t *testing.T) {
	got, err := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d results, want 3: %v", len(got), got)
	}
	it, ok := got["capuchin.BenchmarkHotPathIteration"]
	if !ok {
		t.Fatal("iteration benchmark missing")
	}
	if it.AllocsPerOp != 1 || it.BytesPerOp != 110 || it.NsPerOp != 623581 {
		t.Fatalf("iteration parsed wrong: %+v", it)
	}
	// The -8 GOMAXPROCS suffix is stripped so keys stay stable across
	// -cpu settings.
	if _, ok := got["capuchin.BenchmarkHotPathMeasuredIteration"]; !ok {
		t.Fatalf("cpu-suffixed name not normalized: %v", got)
	}
	if _, ok := got["capuchin/internal/memory.BenchmarkHotPathBFCAllocFree"]; !ok {
		t.Fatal("second package's benchmark missing")
	}
}

func TestParseBenchOutputRejectsMissingBenchmem(t *testing.T) {
	const noMem = `pkg: capuchin
BenchmarkHotPathIteration 	     300	    623581 ns/op	     110 B/op
`
	if _, err := ParseBenchOutput(strings.NewReader(noMem)); err == nil {
		t.Fatal("output without allocs/op column parsed without error")
	}
}

// TestCheckedInBudgets validates both alloc fixtures: the real budget
// covers the flagship iteration benchmark and demands zero allocations
// from every steady-state micro-benchmark; the regressed fixture zeroes
// a budget that real output exceeds.
func TestCheckedInBudgets(t *testing.T) {
	real := readArtifact(t, "..", "..", "BENCH_hotpath.json")
	if real.Meta.Tool != ToolAlloc {
		t.Fatalf("BENCH_hotpath.json gates %q, want %q", real.Meta.Tool, ToolAlloc)
	}
	zeros, flagship := 0, false
	for _, r := range real.Rows {
		if r.Unit != "allocs/op" || r.Better != Lower || r.Tol != 0 {
			t.Errorf("budget row %+v is not a hard allocs/op ceiling", r)
		}
		if r.Value == 0 {
			zeros++
		}
		flagship = flagship || r.Metric == "capuchin.BenchmarkHotPathIteration"
	}
	if !flagship {
		t.Fatal("real budget does not cover the flagship iteration benchmark")
	}
	if zeros < 8 {
		t.Fatalf("only %d zero-alloc budgets; the steady-state suite should pin at least 8", zeros)
	}

	bad := readArtifact(t, "testdata", "alloc_budget_regressed.json")
	if len(bad.Rows) != 1 || bad.Rows[0].Metric != "capuchin.BenchmarkHotPathMeasuredIteration" || bad.Rows[0].Value != 0 {
		t.Fatalf("regressed fixture must zero the measured-iteration budget, got %v", bad.Rows)
	}
}

// hotpathRecordErrors checks the before/after record a
// BENCH_hotpath.json carries beside its budget rows: the recorded
// speedup matches its before/after ns and meets the 3x floor, the steady
// iteration sits within the flagship budget, and each pprof top-10 list
// is complete. It returns one message per broken rule.
func hotpathRecordErrors(t *testing.T, raw []byte) []string {
	t.Helper()
	var rec struct {
		Rows   []Row `json:"rows"`
		Matrix struct {
			Before  float64 `json:"before_ns_per_op"`
			After   float64 `json:"after_ns_per_op"`
			Speedup float64 `json:"speedup"`
		} `json:"matrix_serial"`
		Steady struct {
			After float64 `json:"after_allocs_per_op"`
		} `json:"steady_iteration"`
		Pprof map[string]json.RawMessage `json:"pprof"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	var errs []string
	m := rec.Matrix
	if m.After <= 0 || m.Before/m.After-m.Speedup > 0.02 || m.Speedup-m.Before/m.After > 0.02 {
		errs = append(errs, fmt.Sprintf("matrix_serial record %+v: speedup does not match before/after", m))
	} else if m.Speedup < 3 {
		errs = append(errs, fmt.Sprintf("matrix_serial speedup %g is under the 3x floor", m.Speedup))
	}
	for _, r := range rec.Rows {
		if r.Metric == "capuchin.BenchmarkHotPathIteration" && rec.Steady.After > r.Value {
			errs = append(errs, fmt.Sprintf("steady iteration records %g allocs/op, over its %g budget", rec.Steady.After, r.Value))
		}
	}
	for _, name := range []string{"cpu_top10_before", "cpu_top10_after", "alloc_space_top10_before", "alloc_space_top10_after"} {
		var top []json.RawMessage
		if err := json.Unmarshal(rec.Pprof[name], &top); err != nil || len(top) != 10 {
			errs = append(errs, fmt.Sprintf("pprof.%s holds %d entries (%v), want 10", name, len(top), err))
		}
	}
	return errs
}

// TestHotpathRecord holds the checked-in record to its rules.
func TestHotpathRecord(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_hotpath.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range hotpathRecordErrors(t, raw) {
		t.Error(e)
	}
}

// hotpathFixture encodes a record that passes every rule, after mutate
// edits it.
func hotpathFixture(t *testing.T, mutate func(map[string]any)) []byte {
	t.Helper()
	top10 := make([]map[string]any, 10)
	for i := range top10 {
		top10[i] = map[string]any{"flat_pct": 1.0, "func": "f"}
	}
	rec := map[string]any{
		"meta": NewRunMeta(ToolAlloc, 0, false),
		"rows": []Row{{Metric: "capuchin.BenchmarkHotPathIteration", Value: 1, Unit: "allocs/op", Better: Lower}},
		"matrix_serial": map[string]any{
			"before_ns_per_op": 105722479, "after_ns_per_op": 33976300, "speedup": 3.11,
		},
		"steady_iteration": map[string]any{"before_allocs_per_op": 8869, "after_allocs_per_op": 0},
		"pprof": map[string]any{
			"cpu_top10_before":         top10,
			"cpu_top10_after":          top10,
			"alloc_space_top10_before": top10,
			"alloc_space_top10_after":  top10,
		},
	}
	if mutate != nil {
		mutate(rec)
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// wantHotpathError asserts the record breaks exactly one rule, the one
// whose message contains want.
func wantHotpathError(t *testing.T, raw []byte, want string) {
	t.Helper()
	errs := hotpathRecordErrors(t, raw)
	if len(errs) != 1 || !strings.Contains(errs[0], want) {
		t.Fatalf("want one %q error, got %q", want, errs)
	}
}

func TestRegressHotpathPasses(t *testing.T) {
	if errs := hotpathRecordErrors(t, hotpathFixture(t, nil)); len(errs) != 0 {
		t.Fatalf("clean record flagged: %q", errs)
	}
}

func TestRegressHotpathSpeedupFloor(t *testing.T) {
	wantHotpathError(t, hotpathFixture(t, func(rec map[string]any) {
		rec["matrix_serial"] = map[string]any{"before_ns_per_op": 100, "after_ns_per_op": 50, "speedup": 2.0}
	}), "3x floor")
}

func TestRegressHotpathAllocsOverBudget(t *testing.T) {
	wantHotpathError(t, hotpathFixture(t, func(rec map[string]any) {
		rec["steady_iteration"] = map[string]any{"before_allocs_per_op": 8869, "after_allocs_per_op": 7}
	}), "over its 1 budget")
}

func TestRegressHotpathInconsistentSpeedup(t *testing.T) {
	wantHotpathError(t, hotpathFixture(t, func(rec map[string]any) {
		rec["matrix_serial"] = map[string]any{"before_ns_per_op": 100, "after_ns_per_op": 50, "speedup": 3.5}
	}), "does not match before/after")
}

func TestRegressHotpathShortPprofTop(t *testing.T) {
	wantHotpathError(t, hotpathFixture(t, func(rec map[string]any) {
		rec["pprof"].(map[string]any)["cpu_top10_after"] = []map[string]any{{"func": "f"}}
	}), "pprof.cpu_top10_after holds 1 entries")
}

// TestRegressServeCleanFixture: a clean, internally consistent serve
// artifact, read from disk as the gate reads it, passes the checked-in
// serve baseline with no regressed row.
func TestRegressServeCleanFixture(t *testing.T) {
	base := readArtifact(t, "..", "..", "BENCH_serve.json")
	clean := map[string]any{
		"meta": base.Meta,
		"rows": []Row{
			{Metric: "request_errors", Value: 0, Unit: "requests", Better: Lower},
			{Metric: "byte_identity", Value: 1, Unit: "bool", Better: Higher},
			{Metric: "drain_dropped", Value: 0, Unit: "runs", Better: Lower},
			{Metric: "drain_rejects_new_work", Value: 1, Unit: "bool", Better: Higher},
			{Metric: "backpressure_observed", Value: 1, Unit: "bool", Better: Higher},
		},
		"load": map[string]any{
			"clients": 1000, "requests": 3000,
			"total": 3000, "ok": 3000, "shed": 0, "errors": 0,
			"accepted": 12, "deduped": 2988,
			"durationMillis": 1500.0, "rps": 2000.0,
			"p50Millis": 20.0, "p99Millis": 90.0, "maxMillis": 120.0,
		},
		"byte_identity": map[string]any{"config": "alexnet/b2/tf-ori", "identical": true},
		"drain": map[string]any{
			"inFlightAtDrain": 2, "completedAfterDrain": 2, "dropped": 0,
			"rejectedDuringDrain": 1, "shedObserved": true,
		},
	}
	raw, err := json.MarshalIndent(clean, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "serve.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	regs, err := Compare(base, readArtifact(t, path))
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("clean fixture flagged: %v", regs)
	}
}

func TestRunMetaValidate(t *testing.T) {
	if err := NewRunMeta("tool", 0, false).Validate(); err != nil {
		t.Errorf("fresh meta invalid: %v", err)
	}
	if err := (RunMeta{GoVersion: "go1.24.0"}).Validate(); err == nil {
		t.Error("empty Tool accepted")
	}
	if err := (RunMeta{Tool: "t"}).Validate(); err == nil {
		t.Error("empty GoVersion accepted")
	}
	m := NewRunMeta("t", 0, false).WithDate("2026-08-07")
	if m.Date != "2026-08-07" {
		t.Errorf("WithDate did not stick: %+v", m)
	}
}
