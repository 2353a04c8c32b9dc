// Command perfbench is the repository's seeded benchmark. One command
// runs one workload (sweep, train, fleet or serve) for a fixed number of
// seconds, checks that the simulator's outputs are correct, and prints
// every metric by name with its unit; the last line of its output is one
// JSON object. With -trace 1 it instead re-executes the workload layer
// by layer and reports the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// repResult is one timed repetition of a workload's seeded work.
type repResult struct {
	wall time.Duration
	ops  int
	// opMS is the host latency of every operation, in a fixed order.
	opMS []float64
	// simIters counts the training iterations the simulator executed.
	simIters int
	// heapMiB is the live heap after a forced GC at the end of the
	// repetition, with the repetition's state still reachable.
	heapMiB float64
	// samplesPerS are the steady virtual-time throughputs of the
	// completed simulated cells.
	samplesPerS []float64
	// digest hashes the simulated outcomes.
	digest string
	// failures lists failed operations.
	failures []string
	// sim holds deterministic simulated outcomes reported under a
	// layer's name in the traced run.
	sim map[string]float64
}

// instance is one set-up workload. rep runs the seeded work once on a
// fresh system under test; check verifies the last repetition's outputs
// outside the timed section; trace re-executes the last repetition's
// work layer by layer into l and returns the traced wall time.
type instance interface {
	rep() repResult
	check() checks
	trace(l *layers) time.Duration
}

// workload names a workload and how to set it up.
type workload struct {
	name  string
	setup func(seed uint64, workers int) (instance, error)
	// reps is how many repetitions the throughput metrics are taken
	// over: the median of the first reps. It is fixed, so every program
	// is judged on the same number of samples.
	reps int
	// tracePasses is the fewest traced passes a traced run makes.
	tracePasses int
}

var workloads = []workload{
	{"sweep", setupSweep, 9, 1},
	{"train", setupTrain, 16, 1},
	{"fleet", setupFleet, 5, 1},
	{"serve", setupServe, 10, serveTracePasses},
}

// setupRounds is how many times set-up runs; setup_s is their median.
const setupRounds = 5

// warmReps is how many repetitions run, and are checked, before the
// timed ones: the first repetitions of a process run measurably slower
// while its heap grows to the workload's size.
const warmReps = 2

// output is the last line the command prints.
type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "sweep", "workload: sweep, train, fleet or serve")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("input seed (default %d; %d is held out)", defaultSeed, heldOutSeed))
	seconds := fs.Int("seconds", 10, "how long the timed section runs")
	traceFlag := fs.Int("trace", 0, "1 runs the traced, per-layer variant")
	spanDir := fs.String("spans", filepath.Join(".bench_build", "perfbench"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments: -workload %q -seconds %d -trace %d\n", *name, *seconds, *traceFlag)
		return 2
	}
	workers := runtime.NumCPU()
	prov := provenance(ctx, *seed, workers)
	fmt.Fprintf(stdout, "# provenance %s\n", prov)

	gauge, err := newHostGauge(workers)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer gauge.close()

	var inst instance
	var setupS []float64
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		var took time.Duration
		slow := gauge.around(func() {
			t0 := time.Now()
			inst, err = w.setup(*seed, workers)
			took = time.Since(t0)
		})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s set-up: %v\n", w.name, err)
			return 1
		}
		setupS = append(setupS, took.Seconds()/slow)
	}

	budget := time.Duration(*seconds) * time.Second
	var out output
	var failures []string
	var digests []string
	if *traceFlag == 0 {
		out, failures, digests = measure(w, inst, gauge, budget, setupS, stdout)
	} else {
		out, failures, digests, err = traced(w, inst, budget, *seed, prov, *spanDir, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	for _, f := range failures {
		fmt.Fprintf(stdout, "# FAIL %s\n", f)
	}
	fmt.Fprintf(stdout, "# digest %s seed=%d %s\n", w.name, *seed, strings.Join(dedup(digests), ","))
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// endToEndNames lists the end-to-end metrics with their units.
func endToEndNames() []metric {
	return []metric{
		{Name: "setup_s", Unit: "s"},
		{Name: "ops_per_s", Unit: "1/s"},
		{Name: "sim_iters_per_s", Unit: "1/s"},
		{Name: "heap_retained_mib", Unit: "MiB"},
		{Name: "sim_samples_per_s_gmean", Unit: "samples/s"},
		{Name: "ok_ratio", Unit: "ratio"},
	}
}

// measure runs repetitions until the budget is spent, and at least
// warmReps+w.reps of them, and reports the end-to-end metrics. Every
// repetition repeats the same seeded operations. Throughput is the
// median over the w.reps repetitions after the warm-up of each one's
// operations over its wall time, scaled to the reference host speed by
// the gauge run around it. The wall time covers the whole closed loop,
// so load imbalance between workers shows.
func measure(w *workload, inst instance, gauge *hostGauge, budget time.Duration, setupS []float64, stdout io.Writer) (output, []string, []string) {
	var reps []repResult
	var slow []float64
	var cks checks
	start := time.Now()
	for len(reps) < warmReps+w.reps || time.Since(start) < budget {
		var r repResult
		slow = append(slow, gauge.around(func() { r = inst.rep() }))
		if len(reps) == 0 {
			cks = inst.check()
		}
		reps = append(reps, r)
	}
	var heap, pooled, rawRate, rate, iterRate []float64
	var failures []string
	var digests []string
	attempted := cks.attempted
	for i, r := range reps {
		raw := float64(r.ops) / r.wall.Seconds()
		fmt.Fprintf(stdout, "# rep %d: %.3f s, %d ops, %.4g ops/s, gauge %.3fx reference, heap %.1f MiB\n",
			i+1, r.wall.Seconds(), r.ops, raw, slow[i], r.heapMiB)
		if i >= warmReps && i < warmReps+w.reps {
			rawRate = append(rawRate, raw)
			rate = append(rate, raw*slow[i])
			iterRate = append(iterRate, float64(r.simIters)/r.wall.Seconds()*slow[i])
			heap = append(heap, r.heapMiB)
			pooled = append(pooled, r.opMS...)
		}
		attempted += r.ops
		failures = append(failures, r.failures...)
		digests = append(digests, r.digest)
	}
	failures = append(failures, cks.failures...)
	if len(dedup(digests)) != 1 {
		failures = append(failures, "repetitions of the same seeded inputs produced different outcomes")
	}
	r0 := reps[0]
	v := map[string]float64{
		"setup_s":                 median(setupS),
		"ops_per_s":               median(rate),
		"sim_iters_per_s":         median(iterRate),
		"heap_retained_mib":       median(heap),
		"sim_samples_per_s_gmean": gmean(r0.samplesPerS),
		"ok_ratio":                1 - float64(len(failures))/float64(attempted),
	}
	ms := endToEndNames()
	for i := range ms {
		ms[i].Value = v[ms[i].Name]
	}
	fmt.Fprintf(stdout, "# %s: %d repetitions, %d after the warm-up timed: median %.4g ops/s as measured, %.4g ops/s at reference host speed; op latency p50=%.4g ms %s\n",
		w.name, len(reps), len(rate), median(rawRate), median(rate), median(pooled), tailOf(pooled))
	var keys []string
	for k := range r0.sim {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "# sim %s = %.6g\n", k, r0.sim[k])
	}
	return report(ms, attempted, failures, stdout), failures, digests
}

// traced alternates an untraced repetition with a traced re-execution
// of the same work until the budget is spent, and at least
// w.tracePasses times, and reports the per-layer metrics. The spans are
// written to spanDir at the end.
func traced(w *workload, inst instance, budget time.Duration, seed uint64, prov, spanDir string, stdout io.Writer) (output, []string, []string, error) {
	name := w.name
	l := newLayers()
	var failures, digests []string
	attempted := 0
	start := time.Now()
	for pass := 0; pass < w.tracePasses || time.Since(start) < budget; pass++ {
		first := pass == 0
		r := inst.rep()
		if first {
			cks := inst.check()
			attempted += cks.attempted
			failures = append(failures, cks.failures...)
			for k, x := range r.sim {
				l.sim[k] = x
			}
		}
		attempted += r.ops
		failures = append(failures, r.failures...)
		digests = append(digests, r.digest)
		tw := inst.trace(l)
		l.pairs++
		l.overheadPct = append(l.overheadPct, 100*(tw.Seconds()-r.wall.Seconds())/r.wall.Seconds())
	}
	attempted += l.checks.attempted
	failures = append(failures, l.checks.failures...)
	if len(dedup(digests)) != 1 {
		failures = append(failures, "repetitions of the same seeded inputs produced different outcomes")
	}
	l.rec.writeSelfTime(stdout)
	fmt.Fprintf(stdout, "# memory replay: %d allocations timed, %d refused by the fresh BFC\n", l.replay.Allocs, l.replay.OOMs)
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return output{}, nil, nil, err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return output{}, nil, nil, err
	}
	werr := l.rec.writeJSONL(f, map[string]string{"provenance": prov, "workload": name})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return output{}, nil, nil, fmt.Errorf("writing %s: %w", path, werr)
	}
	fmt.Fprintf(stdout, "# spans written to %s\n", path)
	return report(l.metrics(), attempted, failures, stdout), failures, digests, nil
}

// report prints each metric on its own line and assembles the result.
func report(ms []metric, attempted int, failures []string, stdout io.Writer) output {
	out := output{
		Correct: len(failures) == 0, Attempted: attempted, Failed: len(failures),
		Metrics: make(map[string]metricJSON, len(ms)),
	}
	for _, m := range ms {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(stdout, "# metric %-34s %14.6g %s\n", m.Name, v, m.Unit)
		out.Metrics[m.Name] = metricJSON{Value: v, Unit: m.Unit}
	}
	return out
}

// provenance records the host, toolchain, revision and seed.
func provenance(ctx context.Context, seed uint64, workers int) string {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	rev := "unknown"
	// Only ask git inside a checkout of its own: an exported tree has no
	// .git, and git must not describe an enclosing repository instead.
	if _, err := os.Stat(".git"); err == nil {
		if b, err := exec.CommandContext(ctx, "git", "describe", "--always", "--dirty").Output(); err == nil {
			rev = strings.TrimSpace(string(b))
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s seed=%d workers=%d",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev, seed, workers)
}

// closedLoop runs f(0..n-1) on workers goroutines, each taking the next
// index only after finishing its previous one, and waits for all.
func closedLoop(workers, n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// heapMiB forces a collection and returns the live heap in MiB.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / float64(mib)
}

func dedup(xs []string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
