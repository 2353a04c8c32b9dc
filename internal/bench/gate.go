package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"capuchin/internal/exec"
	"capuchin/internal/fleet"
	"capuchin/internal/hw"
)

// The perf-regression gate. Every gated BENCH_*.json artifact has one
// shape: a meta provenance block naming the run and a list of rows,
// each {metric, value, unit, better, tol}. Compare diffs a fresh
// artifact against a baseline row by row. Drift in the better direction
// never fails; drift the other way fails once it exceeds the row's tol,
// an absolute allowance in the row's unit that already includes any
// floor for near-zero values. Two different runs cannot be judged
// against each other, so a meta identity mismatch (tool, seed, quick
// mode or semantic flags, which name the device) or a baseline row the
// fresh run lacks is an error, not a regression. Fresh rows the
// baseline does not list are ignored, so a suite can grow ahead of its
// baseline.

// The directions a Row can improve in.
const (
	Higher = "higher"
	Lower  = "lower"
)

// Tools whose baselines Fresh knows how to refresh.
const (
	// ToolFleet baselines are re-run from their meta flags.
	ToolFleet = "capuchin-bench -exp fleet"
	// ToolRunner baselines are re-run by RunnerSweep.
	ToolRunner = "bench.RunnerSweep"
	// ToolAlloc baselines budget allocs/op; the fresh side is the text
	// this command prints.
	ToolAlloc = "go test -bench BenchmarkHotPath -benchmem -benchtime 300x"
)

// Row is one gated metric.
type Row struct {
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	// Better is Higher or Lower: drift that way never fails.
	Better string `json:"better"`
	// Tol is the drift allowed the other way, in Unit.
	Tol float64 `json:"tol"`
}

// Artifact is the gated content of a BENCH_*.json file. A file may
// carry further descriptive fields; the gate reads only these.
type Artifact struct {
	Meta RunMeta `json:"meta"`
	Rows []Row   `json:"rows"`
}

// Regression is a baseline row whose fresh value drifted past its tol
// in the bad direction.
type Regression struct {
	Row
	Fresh float64
}

// String implements fmt.Stringer.
func (r Regression) String() string {
	return fmt.Sprintf("%s: baseline %g -> fresh %g %s (%s is better, tol %g)",
		r.Metric, r.Value, r.Fresh, r.Unit, r.Better, r.Tol)
}

// Compare gates fresh against base.
func Compare(base, fresh Artifact) ([]Regression, error) {
	if err := base.validate(); err != nil {
		return nil, err
	}
	if !sameRun(base.Meta, fresh.Meta) {
		return nil, fmt.Errorf("bench: baseline (%s) and fresh run (%s) describe different runs",
			base.Meta.identity(), fresh.Meta.identity())
	}
	got := make(map[string]float64, len(fresh.Rows))
	for _, r := range fresh.Rows {
		got[r.Metric] = r.Value
	}
	var regs []Regression
	for _, b := range base.Rows {
		v, ok := got[b.Metric]
		if !ok {
			return nil, fmt.Errorf("bench: fresh %s run has no %q row", base.Meta.Tool, b.Metric)
		}
		if b.Better == Higher && v < b.Value-b.Tol || b.Better == Lower && v > b.Value+b.Tol {
			regs = append(regs, Regression{Row: b, Fresh: v})
		}
	}
	return regs, nil
}

func (a Artifact) validate() error {
	if err := a.Meta.Validate(); err != nil {
		return err
	}
	if len(a.Rows) == 0 {
		return fmt.Errorf("bench: %s artifact has no rows", a.Meta.Tool)
	}
	seen := make(map[string]bool, len(a.Rows))
	for _, r := range a.Rows {
		if r.Better != Higher && r.Better != Lower || r.Tol < 0 || math.IsNaN(r.Value) || seen[r.Metric] {
			return fmt.Errorf("bench: %s artifact has a malformed or duplicate row %+v", a.Meta.Tool, r)
		}
		seen[r.Metric] = true
	}
	return nil
}

// sameRun reports whether two provenance blocks name the same run.
// Toolchain, git state and date are provenance, not identity.
func sameRun(a, b RunMeta) bool {
	sorted := func(f []string) []string {
		f = slices.Clone(f)
		sort.Strings(f)
		return f
	}
	return a.Tool == b.Tool && a.Seed == b.Seed && a.Quick == b.Quick &&
		slices.Equal(sorted(a.Flags), sorted(b.Flags))
}

func (m RunMeta) identity() string {
	return fmt.Sprintf("%s seed=%d quick=%t %v", m.Tool, m.Seed, m.Quick, m.Flags)
}

// flag returns the value of the name=value entry in Flags, or "".
func (m RunMeta) flag(name string) string {
	for _, f := range m.Flags {
		if v, ok := strings.CutPrefix(f, name+"="); ok {
			return v
		}
	}
	return ""
}

// ReadArtifact loads and validates a gated artifact.
func ReadArtifact(path string) (Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Artifact{}, err
	}
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return Artifact{}, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if err := a.validate(); err != nil {
		return Artifact{}, fmt.Errorf("bench: %s: %w", path, err)
	}
	return a, nil
}

// Fresh produces the artifact to gate base against. Given a fresh path
// it reads that file: `go test -bench -benchmem` text for a ToolAlloc
// baseline, an artifact (such as the serve selftest's) otherwise.
// Without one it re-runs what base's meta describes, which fleet and
// runner baselines support.
func Fresh(base Artifact, freshPath string, o Options) (Artifact, error) {
	if freshPath != "" {
		if base.Meta.Tool != ToolAlloc {
			return ReadArtifact(freshPath)
		}
		f, err := os.Open(freshPath)
		if err != nil {
			return Artifact{}, err
		}
		defer f.Close()
		return AllocArtifact(f)
	}
	switch base.Meta.Tool {
	case ToolFleet:
		return reproduceFleet(base.Meta, o)
	case ToolRunner:
		return RunnerSweep(), nil
	}
	return Artifact{}, fmt.Errorf("bench: %q baselines are not re-run; pass the fresh output to gate", base.Meta.Tool)
}

// fleetRows are the gated metrics of each fleet scenario, with the
// tolerance CI enforces: a relative allowance with an absolute floor
// for near-zero values.
var fleetRows = []struct {
	metric, unit, better string
	rel, abs             float64
	read                 func(fleet.Report) float64
}{
	{"completed", "jobs", Higher, 0.06, 1.5, func(r fleet.Report) float64 { return float64(r.Completed) }},
	{"killRatePct", "%", Lower, 0.15, 1.5, func(r fleet.Report) float64 { return r.KillRatePct }},
	{"utilizationPct", "%", Higher, 0.09, 1.5, func(r fleet.Report) float64 { return r.UtilizationPct }},
	{"goodputPct", "%", Higher, 0.09, 1.5, func(r fleet.Report) float64 { return r.GoodputPct }},
	{"p50JctMillis", "ms", Lower, 0.30, 3, func(r fleet.Report) float64 { return r.P50JCTMillis }},
	{"p99JctMillis", "ms", Lower, 0.45, 3, func(r fleet.Report) float64 { return r.P99JCTMillis }},
	{"capAbsorbs", "jobs", Higher, 0.15, 1.5, func(r fleet.Report) float64 { return float64(r.CapAbsorbs) }},
}

// FleetArtifact is the gated view of a fleet comparison: one row per
// scenario and metric, named "<scenario>/<metric>". The workload menu
// joins the comparison's semantic flags, so a drifted menu is an
// identity mismatch.
func FleetArtifact(fc FleetComparison) Artifact {
	a := Artifact{Meta: fc.Meta}
	a.Meta.Flags = append(slices.Clip(fc.Meta.Flags), "menu="+strings.Join(fc.Menu, ","))
	for _, r := range fc.Runs {
		scenario := r.Mode
		if r.Manager != "none" {
			scenario += "+" + r.Manager
		}
		for _, s := range fleetRows {
			v := s.read(r)
			a.Rows = append(a.Rows, Row{Metric: scenario + "/" + s.metric, Value: v, Unit: s.unit,
				Better: s.better, Tol: round2(math.Max(s.rel*math.Abs(v), s.abs))})
		}
	}
	return a
}

// reproduceFleet re-runs the fleet experiment a baseline's meta flags
// record: device model and memory, arrival-stream length, device count
// and seed.
func reproduceFleet(m RunMeta, o Options) (Artifact, error) {
	var err error
	num := func(name string) int64 {
		v, perr := strconv.ParseInt(m.flag(name), 10, 64)
		if perr != nil && err == nil {
			err = fmt.Errorf("bench: fleet baseline flag %s: %w", name, perr)
		}
		return v
	}
	gib, jobs, devices, seed := num("mem-gib"), num("fleet-jobs"), num("fleet-devices"), num("fleet-seed")
	if err != nil {
		return Artifact{}, err
	}
	devs := []hw.DeviceSpec{hw.P100(), hw.V100(), hw.T4()}
	i := slices.IndexFunc(devs, func(d hw.DeviceSpec) bool { return d.Name == m.flag("device") })
	if i < 0 {
		return Artifact{}, fmt.Errorf("bench: fleet baseline names unknown device %q", m.flag("device"))
	}
	o.Device = devs[i].WithMemory(gib * hw.GiB)
	o.Quick = m.Quick
	fc, err := FleetScenarios(o, FleetOptions{Jobs: int(jobs), Devices: int(devices), Seed: uint64(seed)})
	if err != nil {
		return Artifact{}, err
	}
	return FleetArtifact(fc), nil
}

// RunnerSweep re-measures the parallel experiment engine on a small
// matrix at jobs=1 and jobs=4. Wall-clock numbers are host-dependent,
// so it records the two properties that must hold everywhere: the two
// sweeps agree (determinism), and the parallel path is not
// catastrophically slower than the serial one (its tol admits any
// speedup above a twelfth of the value).
func RunnerSweep() Artifact {
	dev := hw.P100()
	cells := []RunConfig{
		{Model: "alexnet", Batch: 64, System: SystemTF, Device: dev, Iterations: 2},
		{Model: "alexnet", Batch: 128, System: SystemTF, Device: dev, Iterations: 2},
		{Model: "mobilenetv2", Batch: 32, System: SystemTF, Device: dev, Iterations: 2},
		{Model: "lstm", Batch: 4, System: SystemTF, Device: dev, Iterations: 2},
	}
	measure := func(jobs int) ([]exec.IterStats, time.Duration) {
		start := time.Now()
		res := NewRunner(jobs).RunAll(cells)
		wall := time.Since(start)
		stats := make([]exec.IterStats, len(res))
		for i, r := range res {
			stats[i] = r.Steady
		}
		return stats, wall
	}
	serial, serialWall := measure(1)
	parallel, parallelWall := measure(4)
	deterministic := 0.0
	if reflect.DeepEqual(serial, parallel) {
		deterministic = 1
	}
	speedup := round2(float64(serialWall) / float64(parallelWall))
	return Artifact{
		Meta: NewRunMeta(ToolRunner, 0, false, "device="+dev.Name,
			"cells="+strconv.Itoa(len(cells)), "jobs=1,4"),
		Rows: []Row{
			{Metric: "determinism", Value: deterministic, Unit: "bool", Better: Higher},
			{Metric: "parallel_vs_serial", Value: speedup, Unit: "x", Better: Higher, Tol: round2(speedup * 11 / 12)},
		},
	}
}

// round2 rounds to the two decimals the artifacts record.
func round2(x float64) float64 { return math.Round(100*x) / 100 }

// AllocArtifact is the gated view of `go test -bench -benchmem` output:
// one allocs/op row per benchmark. The baseline's rows are budgets:
// each benchmark must report at most its value.
func AllocArtifact(r io.Reader) (Artifact, error) {
	got, err := ParseBenchOutput(r)
	if err != nil {
		return Artifact{}, err
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	a := Artifact{Meta: NewRunMeta(ToolAlloc, 0, false)}
	for _, name := range names {
		a.Rows = append(a.Rows, Row{Metric: name, Value: got[name].AllocsPerOp, Unit: "allocs/op", Better: Lower})
	}
	return a, nil
}

// BenchResult is one parsed line of `go test -bench -benchmem` output.
type BenchResult struct {
	// NsPerOp, BytesPerOp and AllocsPerOp mirror the benchmark columns.
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
}

// ParseBenchOutput extracts benchmark results from `go test -bench
// -benchmem` output, possibly spanning several packages. Results are
// keyed "<import path>.<benchmark name>" using the surrounding "pkg:"
// header lines, with the -N GOMAXPROCS suffix stripped from names so
// keys are stable across -cpu settings. Lines that are not benchmark
// results (headers, PASS/ok trailers) are ignored.
func ParseBenchOutput(r io.Reader) (map[string]BenchResult, error) {
	out := make(map[string]BenchResult)
	var pkg string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		// A result line is name, iteration count, then unit pairs
		// ("... ns/op ... B/op ... allocs/op"). Anything else starting
		// with "Benchmark" (e.g. a bare name echoed under -v) is not a
		// result and is skipped.
		if len(f) < 2 {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := trimCPUSuffix(f[0])
		res := BenchResult{}
		seen := 0
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench: malformed benchmark line %q: %v", line, err)
			}
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp = v
				seen++
			case "B/op":
				res.BytesPerOp = v
				seen++
			case "allocs/op":
				res.AllocsPerOp = v
				seen++
			}
		}
		if seen < 3 {
			return nil, fmt.Errorf("bench: line %q lacks -benchmem columns (got %d of 3)", line, seen)
		}
		key := name
		if pkg != "" {
			key = pkg + "." + name
		}
		out[key] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// trimCPUSuffix strips the trailing "-N" GOMAXPROCS marker go test
// appends to benchmark names when N != 1.
func trimCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
