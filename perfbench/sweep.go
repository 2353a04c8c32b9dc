package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"capuchin/internal/bench"
	"capuchin/internal/graph"
	"capuchin/internal/hw"
	"capuchin/internal/models"
	"capuchin/internal/obs"
)

// sweep is the max-batch search workload: Runner.MaxBatch over seeded
// (model, system, device-memory) triples, 3-iteration probes, searches
// run by a closed loop of workers against one Runner.
type sweep struct {
	workers  int
	searches []search
	oracle   *oracle
	last     *sweepState
}

// sweepState is what one repetition leaves for check and trace.
type sweepState struct {
	runner  *bench.Runner     // kept reachable: its cache is the retained heap
	stats   bench.RunnerStats // right after the timed section
	maxes   []int64
	results []bench.Result // every simulated probe, in a canonical order
}

func setupSweep(seed uint64, workers int) (instance, error) {
	w := &sweep{workers: workers, searches: sweepInputs(seed), oracle: newOracle()}
	var names []string
	for _, s := range w.searches {
		names = append(names, s.Model)
	}
	if err := warmGraphs(names); err != nil {
		return nil, err
	}
	// Warm-up: one small search on a throwaway runner.
	r := bench.NewRunner(workers)
	if r.MaxBatch(search{Model: "alexnet", System: bench.SystemTF, Mem: 512 * mib}.config()) == 0 {
		return nil, fmt.Errorf("sweep warm-up search found no batch")
	}
	return w, nil
}

// warmGraphs builds each named model's graph once at batch 1, so lazy
// initialisation in the graph builders is paid during set-up.
func warmGraphs(names []string) error {
	seen := make(map[string]bool)
	for _, name := range names {
		if seen[name] {
			continue
		}
		seen[name] = true
		spec, err := models.Get(name)
		if err == nil {
			_, err = spec.Build(1, graph.GraphModeOptions())
		}
		if err != nil {
			return fmt.Errorf("building %s: %w", name, err)
		}
	}
	return nil
}

// observed returns a runner whose simulated cells are appended to *cells.
func observed(workers int, cells *[]bench.RunConfig) *bench.Runner {
	r := bench.NewRunner(workers)
	var mu sync.Mutex
	r.Observe(func(key bench.RunConfig) obs.Tracer {
		mu.Lock()
		*cells = append(*cells, key)
		mu.Unlock()
		return nil
	})
	return r
}

// cachedResults fetches the results of cells from r's cache in a
// canonical order (the order cells were simulated in depends on
// scheduling).
func cachedResults(r *bench.Runner, cells []bench.RunConfig) []bench.Result {
	sort.Slice(cells, func(i, j int) bool { return fmt.Sprint(cells[i]) < fmt.Sprint(cells[j]) })
	out := make([]bench.Result, len(cells))
	for i, c := range cells {
		out[i] = r.Run(c)
	}
	return out
}

func (w *sweep) rep() repResult {
	w.last = nil
	var cells []bench.RunConfig
	r := observed(w.workers, &cells)
	maxes := make([]int64, len(w.searches))
	opMS := make([]float64, len(w.searches))
	start := time.Now()
	closedLoop(w.workers, len(w.searches), func(i int) {
		t0 := time.Now()
		maxes[i] = r.MaxBatch(w.searches[i].config())
		opMS[i] = msOf(time.Since(t0).Nanoseconds())
	})
	wall := time.Since(start)
	st := &sweepState{runner: r, stats: r.Stats(), maxes: maxes}
	st.results = cachedResults(r, cells)

	res := repResult{wall: wall, ops: len(w.searches), opMS: opMS, sim: make(map[string]float64)}
	for _, cr := range st.results {
		res.simIters += len(cr.Stats)
		if f := failure(cr); f != "" {
			res.failures = append(res.failures, f)
		}
	}
	d := newDigest()
	var found []float64
	var errPct []float64
	for i, s := range w.searches {
		d.add("%s max=%d", s, maxes[i])
		if maxes[i] == 0 {
			continue
		}
		found = append(found, float64(maxes[i]))
		spec, _ := models.Get(s.Model)
		if s.System != bench.SystemTF || s.Mem != 16*hw.GiB || spec.PaperMaxBatchTF == 0 || i != w.firstIndex(s) {
			continue
		}
		// The Table 2 searches: TF-ori on the paper's 16 GiB P100.
		errPct = append(errPct, 100*math.Abs(float64(maxes[i]-spec.PaperMaxBatchTF))/float64(spec.PaperMaxBatchTF))
		cfg := s.config()
		cfg.Batch = maxes[i]
		if top := r.Run(cfg); top.OK {
			res.samplesPerS = append(res.samplesPerS, top.Throughput)
		}
	}
	res.digest = d.sum()
	res.sim["bench.sim_maxbatch_gmean"] = gmean(found)
	var sum float64
	for _, e := range errPct {
		sum += e
	}
	if len(errPct) > 0 {
		res.sim["bench.sim_tf_maxbatch_err_pct"] = sum / float64(len(errPct))
	}
	w.last = st
	res.heapMiB = heapMiB()
	return res
}

// firstIndex is the position of the first search equal to s, so a
// revisited search counts once in per-search aggregates.
func (w *sweep) firstIndex(s search) int {
	for i, x := range w.searches {
		if x == s {
			return i
		}
	}
	return -1
}

// check applies the fingerprint oracle to every completed probe, and
// requires every revisited search to agree with its original.
func (w *sweep) check() checks {
	var c checks
	for _, res := range w.last.results {
		if res.OK {
			c.add(w.oracle.check(res))
		}
	}
	for i, s := range w.searches {
		if j := w.firstIndex(s); j != i {
			why := ""
			if w.last.maxes[i] != w.last.maxes[j] {
				why = fmt.Sprintf("revisited search %s found %d, first found %d", s, w.last.maxes[i], w.last.maxes[j])
			}
			c.add(why)
		}
	}
	return c
}

func (w *sweep) trace(l *layers) time.Duration {
	st := w.last
	l.mu.Lock()
	l.runner = st.stats
	l.mu.Unlock()
	return traceCells(l, st.results, w.workers)
}

// traceCells re-executes results' configurations layer by layer on
// workers goroutines, asserting each matches its bench.Run result:
// static cells through decompose, dynamic and cluster cells as whole
// bench.Run calls. It then replays one completed static cell per policy
// into a fresh BFC, and returns the wall time of the re-execution.
func traceCells(l *layers, results []bench.Result, workers int) time.Duration {
	start := time.Now()
	closedLoop(workers, len(results), func(i int) {
		res := results[i]
		if static(res.Config) {
			ct := decompose(res.Config, l.rec, nil)
			l.addCell(ct)
			why := sameOutcome(ct, res)
			if why != "" {
				why = cellLabel(res.Config) + ": " + why
			}
			l.check(why)
			return
		}
		cell := l.rec.cell()
		sp := l.rec.start(cell, 0, "bench", "bench.Run "+cellLabel(res.Config))
		again := bench.Run(res.Config)
		l.addWhole(l.rec.finish(sp))
		why := ""
		if fmt.Sprint(again.Stats) != fmt.Sprint(res.Stats) || (again.Err == nil) != (res.Err == nil) {
			why = cellLabel(res.Config) + ": re-run differs from the first run"
		}
		l.check(why)
	})
	wall := time.Since(start)

	seen := make(map[bench.System]bool)
	for _, res := range results {
		if !res.OK || !static(res.Config) || seen[res.Config.System] {
			continue
		}
		seen[res.Config.System] = true
		var me memEvents
		again := bench.RunTraced(res.Config, &me)
		why := ""
		if fmt.Sprint(again.Stats) != fmt.Sprint(res.Stats) {
			why = cellLabel(res.Config) + ": traced run differs from the untraced run"
		}
		l.check(why)
		rs := replayBFC(me.evs, res.Config.Device.MemoryBytes)
		// A replay the fresh allocator often refuses no longer measures
		// the executor's allocation pattern.
		why = ""
		if n := rs.Allocs + rs.OOMs; rs.OOMs*100 > n {
			why = fmt.Sprintf("%s: the fresh BFC refused %d of %d replayed allocations", cellLabel(res.Config), rs.OOMs, n)
		}
		l.check(why)
		l.mu.Lock()
		l.replay.add(rs)
		l.mu.Unlock()
	}
	return wall
}
