# CI entry points. `make check` is what the repo considers green:
# gofmt + vet + build + full tests (the byte-identical replays across -jobs
# live there, in TestReplayAcrossJobs) + the race detector at several
# CPU counts + the chaos soak suite + the observability smoke + the
# perf-regression gate + vet and tests of the benchmark module.
GO ?= go

.PHONY: check fmt vet build test race soak bench goldens profile-smoke fuzz-smoke gate hotpath-profiles perfbench-check

check: fmt vet build test race soak profile-smoke gate perfbench-check

# fmt fails when any Go file in the tree, the benchmark module included,
# is not gofmt-formatted.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the race detector at several CPU counts over every package
# with concurrent code paths: drain and close in serve (three times
# over), fleet conservation, the cluster, the policy conformance oracle,
# and the bench runner's single-flight cache, cancellation and
# cross-policy fingerprints. The rest of bench, exec and sim run once.
race:
	$(GO) test -race ./internal/bench ./internal/exec ./internal/sim
	$(GO) test -race -cpu 1,2,4 -count=3 ./internal/serve/...
	$(GO) test -race -cpu 1,2,4 ./internal/fleet ./internal/cluster ./internal/policy/...
	$(GO) test -race -cpu 1,2,4 -run '^TestRunner|Fingerprints' ./internal/bench

# soak runs the deterministic fault-injection and dynamic-shape suites
# twice under the race detector: seeded chaos plans across every
# memory-managing system — including the dynamic experiment at 8 jobs —
# must complete or fail with typed errors — never panic — and reproduce
# identical statistics on the second run.
soak:
	$(GO) test -race -count=2 ./internal/bench -run 'Chaos|Resilience|ZeroPlan|Dynamic'
	$(GO) test -race -count=2 ./internal/exec -run 'Fault|FallsBack|Abandonment|Spikes|ErrorChain|Dynamic'

# fuzz-smoke runs each fuzz target briefly (30s in CI): the shadow-model
# allocator fuzzer, the shape-inference fuzzers and the event encoders'
# byte-identity check against encoding/json must stay quiet.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzBFCAllocator' -fuzztime $(FUZZTIME) ./internal/memory
	$(GO) test -run '^$$' -fuzz 'FuzzConvShapeInference' -fuzztime $(FUZZTIME) ./internal/ops
	$(GO) test -run '^$$' -fuzz 'FuzzEventEncoders' -fuzztime $(FUZZTIME) ./internal/obs

# bench reproduces the BenchmarkMatrix record in BENCH_parallel_runner.json
# (its gated rows are re-measured by capuchin-regress under make gate).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkMatrix' -benchtime 3x .

# goldens regenerates the quick-mode regression tables after an
# intentional policy or cost-model change. The Chrome trace golden lives
# in internal/trace and regenerates the same way.
goldens:
	$(GO) test ./internal/bench -run Golden -update
	$(GO) test ./internal/trace -run ChromeGolden -update

# gate runs the perf-regression gate over every checked-in BENCH_*.json
# baseline. capuchin-regress takes the fresh rows from the baseline's
# meta.tool: it re-runs the fleet and runner baselines, and gates the
# hot-path allocs/op budget and the serve selftest against their fresh
# output. Each degraded fixture must then make the gate exit 1 (rows
# regressed, not a usage or identity error), which proves the gate
# fires; the binary is built because `go run` flattens exit codes to 1.
# Iteration counts are fixed (-benchtime 300x) because allocs/op
# is load-independent; wall clock on a busy CI host is not.
HOTPATH_PKGS = . ./internal/exec ./internal/memory ./internal/sim ./internal/fleet ./internal/obs
GATE_TMP ?= /tmp/capuchin-gate
REGRESS = $(GATE_TMP)/capuchin-regress
gate:
	mkdir -p $(GATE_TMP)
	$(GO) build -o $(REGRESS) ./cmd/capuchin-regress
	$(GO) test -run '^$$' -bench BenchmarkHotPath -benchmem -benchtime 300x \
		$(HOTPATH_PKGS) | tee $(GATE_TMP)/hotpath.txt
	$(GO) run ./cmd/capuchin-serve -selftest -json $(GATE_TMP)/serve.json >/dev/null
	$(REGRESS) BENCH_fleet.json
	$(REGRESS) BENCH_parallel_runner.json
	$(REGRESS) BENCH_hotpath.json $(GATE_TMP)/hotpath.txt
	$(REGRESS) BENCH_serve.json $(GATE_TMP)/serve.json
	$(REGRESS) internal/bench/testdata/fleet_regressed_baseline.json >/dev/null; test $$? -eq 1
	$(REGRESS) internal/bench/testdata/alloc_budget_regressed.json $(GATE_TMP)/hotpath.txt >/dev/null; test $$? -eq 1
	$(REGRESS) BENCH_serve.json internal/bench/testdata/serve_regressed_baseline.json >/dev/null; test $$? -eq 1
	rm -rf $(GATE_TMP)

# hotpath-profiles collects pprof CPU and allocation profiles of the
# flagship hot-path benchmark into hotpath_pprof/. CI runs this when
# make check fails and uploads the directory as a workflow artifact, so
# an alloc regression is diagnosable from the CI run alone.
hotpath-profiles:
	mkdir -p hotpath_pprof
	$(GO) test -run '^$$' -bench 'BenchmarkHotPathIteration$$' -benchmem -benchtime 100x \
		-cpuprofile hotpath_pprof/cpu.out -memprofile hotpath_pprof/mem.out \
		-memprofilerate 1 . | tee hotpath_pprof/bench.txt

# perfbench-check compiles, vets and tests the benchmark module. It is a
# Go module of its own (perfbench/go.mod), so ./... above never reaches
# it, and an API break in a package it imports would otherwise show up
# only when the benchmark runs.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# profile-smoke drives the observability stack end to end: the exporter
# tests (golden Chrome trace, memory profile, audit log, metrics) plus a
# real capuchin-trace invocation that must emit a loadable timeline and a
# non-empty decision history.
profile-smoke:
	$(GO) test ./internal/trace -run 'ChromeGolden|ProfileSmoke'
	$(GO) run ./cmd/capuchin-trace -model alexnet -batch 256 -mem 1.5 \
		-system capuchin -chrome /tmp/capuchin-smoke.json -memprof -explain auto >/dev/null
	rm -f /tmp/capuchin-smoke.json
