// Package capuchin's top-level benchmarks regenerate every table and
// figure of the paper's evaluation (§6). Each benchmark runs one
// experiment end-to-end on the simulated P100 and reports the headline
// quantities as benchmark metrics; run with
//
//	go test -bench=. -benchmem
//
// and compare against EXPERIMENTS.md. The -v flag additionally prints the
// full tables.
package capuchin

import (
	"io"
	"os"
	"strconv"
	"testing"

	"capuchin/internal/bench"
	"capuchin/internal/hw"
)

// opts is the paper's configuration: a 16 GB P100.
func opts() bench.Options {
	return bench.Options{Device: hw.P100(), Iterations: 8}
}

// emit prints a table when benchmarks run verbosely.
func emit(b *testing.B, t *bench.Table) {
	b.Helper()
	if testing.Verbose() {
		if err := t.WriteText(os.Stdout); err != nil {
			b.Fatal(err)
		}
	} else if err := t.WriteText(io.Discard); err != nil {
		b.Fatal(err)
	}
}

// cellFloat parses a numeric table cell, returning 0 for OOM markers.
func cellFloat(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}

// BenchmarkFig1VDNNSyncOverhead regenerates Figure 1: the layer-wise
// synchronization overhead of vDNN on VGG16 (paper: 41.3% loss).
func BenchmarkFig1VDNNSyncOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig1(opts())
		emit(b, t)
		for _, row := range t.Rows {
			if row[0] == "performance loss" {
				loss, _ := strconv.ParseFloat(row[1][:len(row[1])-1], 64)
				b.ReportMetric(loss, "%loss")
			}
		}
	}
}

// BenchmarkFig2ConvTimeVariation regenerates Figure 2: the InceptionV3
// convolution-time spread (paper: 37x, 95.7% under 3 ms).
func BenchmarkFig2ConvTimeVariation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig2(opts())
		emit(b, t)
		for _, row := range t.Rows {
			switch row[0] {
			case "max/min ratio":
				v, _ := strconv.ParseFloat(row[1][:len(row[1])-1], 64)
				b.ReportMetric(v, "x-spread")
			case "share under 3ms":
				v, _ := strconv.ParseFloat(row[1][:len(row[1])-1], 64)
				b.ReportMetric(v, "%under3ms")
			}
		}
	}
}

// BenchmarkFig3AccessRegularity regenerates Figure 3: cross-iteration
// tensor-access regularity on ResNet-50 (paper: <1 ms variance).
func BenchmarkFig3AccessRegularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig3(opts())
		emit(b, t)
		b.ReportMetric(float64(len(t.Rows)), "tensors")
	}
}

// BenchmarkFig8aSwapBreakdown regenerates Figure 8a: vDNN vs ATP+DS vs
// ATP+DS+FA on InceptionV3.
func BenchmarkFig8aSwapBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig8a(opts())
		emit(b, t)
		if len(t.Rows) > 0 {
			row := t.Rows[0]
			if v, c := cellFloat(row[3]), cellFloat(row[1]); v > 0 && c > 0 {
				b.ReportMetric((v/c-1)*100, "%vs-vdnn")
			}
		}
	}
}

// BenchmarkFig8bRecomputeBreakdown regenerates Figure 8b: OpenAI modes vs
// ATP vs ATP+CR on ResNet-50.
func BenchmarkFig8bRecomputeBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Fig8b(opts())
		emit(b, t)
		if len(t.Rows) > 0 {
			row := t.Rows[0]
			if v, c := cellFloat(row[4]), cellFloat(row[1]); v > 0 && c > 0 {
				b.ReportMetric((v/c-1)*100, "%vs-openai-s")
			}
		}
	}
}

// BenchmarkTable2MaxBatchGraph regenerates Table 2: maximum batch sizes in
// graph mode across all six graph-mode workloads and four systems.
func BenchmarkTable2MaxBatchGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Table2(opts())
		emit(b, t)
		for _, row := range t.Rows {
			if row[0] == "resnet50" {
				b.ReportMetric(cellFloat(row[4]), "capuchin-max")
				b.ReportMetric(cellFloat(row[1]), "tf-max")
			}
		}
	}
}

// BenchmarkTable3MaxBatchEager regenerates Table 3: maximum batch sizes in
// eager mode.
func BenchmarkTable3MaxBatchEager(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Table3(opts())
		emit(b, t)
		for _, row := range t.Rows {
			if row[0] == "resnet50" {
				b.ReportMetric(cellFloat(row[2]), "capuchin-max")
			}
		}
	}
}

// BenchmarkFig9GraphPerformance regenerates Figure 9: training speed vs
// batch size for every workload and system in graph mode.
func BenchmarkFig9GraphPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := bench.Fig9(opts())
		for _, t := range tables {
			emit(b, t)
		}
		b.ReportMetric(float64(len(tables)), "workloads")
	}
}

// BenchmarkFig10EagerPerformance regenerates Figure 10: eager-mode speed
// vs batch size for ResNet-50 and DenseNet.
func BenchmarkFig10EagerPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := bench.Fig10(opts())
		for _, t := range tables {
			emit(b, t)
		}
		b.ReportMetric(float64(len(tables)), "workloads")
	}
}

// BenchmarkOverheadTracking regenerates §6.3.2: Capuchin's runtime access
// tracking overhead with no memory pressure (paper: avg 0.36%, max 1.6%).
func BenchmarkOverheadTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Overhead(opts())
		emit(b, t)
		var sum float64
		var n int
		for _, row := range t.Rows {
			if len(row) == 5 && row[4] != "-" {
				v, err := strconv.ParseFloat(row[4][:len(row[4])-1], 64)
				if err == nil {
					sum += v
					n++
				}
			}
		}
		if n > 0 {
			b.ReportMetric(sum/float64(n), "%avg-overhead")
		}
	}
}

// BenchmarkCapacitySweep measures Capuchin's benefit across device memory
// capacities (8/16/32 GiB), the axis the paper's introduction motivates.
func BenchmarkCapacitySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.CapacitySweep(opts())
		emit(b, t)
		b.ReportMetric(float64(len(t.Rows)), "capacities")
	}
}

// BenchmarkTableExtensions measures max batch for the extension workloads
// (LSTM, MobileNetV2) beyond the paper's table.
func BenchmarkTableExtensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, bench.TableExtensions(opts()))
	}
}

// BenchmarkDeviceSensitivity shows the plan mix shifting with hardware.
func BenchmarkDeviceSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, bench.DeviceSensitivity(opts()))
	}
}

// BenchmarkAblationDecoupledSwap measures the decoupled-swap optimization
// (DESIGN.md §5).
func BenchmarkAblationDecoupledSwap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, bench.AblationDecoupledSwap(opts()))
	}
}

// BenchmarkAblationFeedback measures feedback-driven in-trigger adjustment.
func BenchmarkAblationFeedback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, bench.AblationFeedback(opts()))
	}
}

// BenchmarkAblationCollectiveRecompute measures collective recomputation.
func BenchmarkAblationCollectiveRecompute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, bench.AblationCollectiveRecompute(opts()))
	}
}

// BenchmarkAblationHybrid compares hybrid vs swap-only vs recompute-only.
func BenchmarkAblationHybrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, bench.AblationHybrid(opts()))
	}
}

// BenchmarkAblationAllocator compares BFC against first-fit.
func BenchmarkAblationAllocator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		emit(b, bench.AblationAllocator(opts()))
	}
}

// matrixConfigs is the model×system×batch sweep behind the harness
// parallelism benchmarks: 16 independent cells, the shape of one slice of
// the paper's evaluation matrix.
func matrixConfigs() []bench.RunConfig {
	dev := hw.P100().WithMemory(2 * hw.GiB)
	var cfgs []bench.RunConfig
	for _, m := range []string{"resnet50", "mobilenetv2"} {
		for _, sys := range []bench.System{
			bench.SystemTF, bench.SystemVDNN, bench.SystemOpenAISpeed, bench.SystemCapuchin,
		} {
			for _, b := range []int64{8, 16} {
				cfgs = append(cfgs, bench.RunConfig{Model: m, Batch: b, System: sys,
					Device: dev, Iterations: 2})
			}
		}
	}
	return cfgs
}

// BenchmarkMatrixSerial executes the sweep one cell at a time, the
// harness's pre-Runner behavior. Compare against BenchmarkMatrixParallel;
// the measured speedup is recorded in BENCH_parallel_runner.json.
func BenchmarkMatrixSerial(b *testing.B) {
	cfgs := matrixConfigs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var nodes int
		for _, c := range cfgs {
			nodes += bench.Run(c).Steady.Nodes
		}
		b.ReportMetric(float64(nodes), "nodes")
	}
}

// BenchmarkMatrixParallel executes the same sweep through the Runner's
// worker pool. A fresh Runner per round keeps the cache from amortizing
// across b.N, so this measures fan-out, not memoization.
func BenchmarkMatrixParallel(b *testing.B) {
	cfgs := matrixConfigs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var nodes int
		for _, r := range bench.NewRunner(0).RunAll(cfgs) {
			nodes += r.Steady.Nodes
		}
		b.ReportMetric(float64(nodes), "nodes")
	}
}

// BenchmarkIterationResNet50Capuchin is a microbenchmark of the simulator
// itself: one guided training iteration of ResNet-50 at 2x the framework's
// maximum batch.
func BenchmarkIterationResNet50Capuchin(b *testing.B) {
	r := bench.Run(bench.RunConfig{
		Model: "resnet50", Batch: 400, System: bench.SystemCapuchin,
		Device: hw.P100(), Iterations: 2,
	})
	if !r.OK {
		b.Fatal(r.Err)
	}
	s := r.Session
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasuredIteration times the passive measured execution that
// Capuchin's first iteration performs.
func BenchmarkMeasuredIteration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.Run(bench.RunConfig{
			Model: "resnet50", Batch: 300, System: bench.SystemCapuchin,
			Device: hw.P100(), Iterations: 1,
		})
		if !r.OK {
			b.Fatal(r.Err)
		}
	}
}

// BenchmarkHotPathIteration pins the flagship hot path: a guided
// Capuchin training iteration on a warm session, the loop every sweep
// and regression run re-executes. Steady state must not allocate — the
// alloc gate (make gate) budgets this benchmark in BENCH_hotpath.json.
func BenchmarkHotPathIteration(b *testing.B) {
	r := bench.Run(bench.RunConfig{
		Model: "resnet50", Batch: 400, System: bench.SystemCapuchin,
		Device: hw.P100(), Iterations: 3,
	})
	if !r.OK {
		b.Fatal(r.Err)
	}
	s := r.Session
	// Warm well past plan convergence: the allocator's fragmentation
	// pattern (and with it the spare-chunk list) takes tens of guided
	// iterations to reach its fixed point.
	for i := 0; i < 64; i++ {
		if _, err := s.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathMeasuredIteration covers the cold path the gate
// tracks with a finite budget rather than zero: a full run including
// graph build, session setup, and Capuchin's measured iteration. Its
// allocation count may not silently explode, but it legitimately
// allocates — which also makes it the benchmark the degraded budget
// fixture zeroes out to prove the gate fires.
func BenchmarkHotPathMeasuredIteration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := bench.Run(bench.RunConfig{
			Model: "resnet50", Batch: 64, System: bench.SystemCapuchin,
			Device: hw.P100(), Iterations: 1,
		})
		if !r.OK {
			b.Fatal(r.Err)
		}
	}
}
