package main

import (
	"fmt"
	"time"

	"capuchin/internal/bench"
	"capuchin/internal/serve"
)

// train is the guided-training workload: cells past TF-ori's maximum
// batch under every memory-managing policy, many iterations each, on
// the static, dynamic-shape and 2-device cluster paths of bench.Run.
type train struct {
	workers int
	cfgs    []bench.RunConfig
	oracle  *oracle
	last    []bench.Result
	stats   bench.RunnerStats // of the last repetition's runner
}

// setupTrain generates the cells and resolves their batches: one TF-ori
// max-batch search per (model, device memory) on a fresh runner.
func setupTrain(seed uint64, workers int) (instance, error) {
	cells := trainInputs(seed)
	var keys []tfMaxKey
	index := make(map[tfMaxKey]int)
	var searches []bench.RunConfig
	for _, c := range cells {
		k := tfMaxKey{c.Model, c.Mem}
		if _, ok := index[k]; !ok {
			index[k] = len(keys)
			keys = append(keys, k)
			searches = append(searches, search{Model: c.Model, System: bench.SystemTF, Mem: c.Mem}.config())
		}
	}
	maxes := bench.NewRunner(workers).MaxBatchAll(searches)
	w := &train{workers: workers, oracle: newOracle()}
	for _, c := range cells {
		tfMax := maxes[index[tfMaxKey{c.Model, c.Mem}]]
		if tfMax == 0 {
			return nil, fmt.Errorf("train: TF-ori fits no batch of %s in %d MiB", c.Model, c.Mem/mib)
		}
		w.cfgs = append(w.cfgs, c.config(tfMax))
	}
	return w, nil
}

func (w *train) rep() repResult {
	w.last = nil
	r := bench.NewRunner(w.workers)
	results := make([]bench.Result, len(w.cfgs))
	opMS := make([]float64, len(w.cfgs))
	start := time.Now()
	closedLoop(w.workers, len(w.cfgs), func(i int) {
		t0 := time.Now()
		results[i] = r.Run(w.cfgs[i])
		opMS[i] = msOf(time.Since(t0).Nanoseconds())
	})
	res := repResult{wall: time.Since(start), ops: len(w.cfgs), opMS: opMS}
	w.stats = r.Stats()
	d := newDigest()
	for _, cr := range results {
		res.simIters += len(cr.Stats)
		if f := failure(cr); f != "" {
			res.failures = append(res.failures, f)
		}
		if cr.OK {
			res.samplesPerS = append(res.samplesPerS, cr.Throughput)
		}
		b, err := serve.EncodeResult(cr)
		if err != nil {
			res.failures = append(res.failures, fmt.Sprintf("%s: encoding result: %v", cellLabel(cr.Config), err))
		}
		d.write(b)
	}
	res.digest = d.sum()
	w.last = results
	res.heapMiB = heapMiB()
	return res
}

// check applies the fingerprint oracle to every completed static cell.
func (w *train) check() checks {
	var c checks
	for _, res := range w.last {
		if res.OK && static(res.Config) {
			c.add(w.oracle.check(res))
		}
	}
	return c
}

func (w *train) trace(l *layers) time.Duration {
	l.mu.Lock()
	l.runner = w.stats
	l.mu.Unlock()
	return traceCells(l, w.last, w.workers)
}
