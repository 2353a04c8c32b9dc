// Command capuchin-regress is the perf-regression gate: it gates a
// fresh run against a checked-in BENCH_*.json baseline, row by row.
//
// Usage:
//
//	capuchin-regress [-jobs N] [-o fresh.json] BASE [FRESH]
//
// Every baseline has one shape: a meta provenance block and rows of
// {metric, value, unit, better, tol}. The fresh rows come from BASE's
// meta.tool. Fleet and runner baselines are re-run at the parameters
// their meta records. Alloc baselines take FRESH as `go test -bench
// -benchmem` output, and any other baseline (the serve selftest's)
// takes FRESH as an artifact of the same shape. A row fails only when
// it drifts past its tol in its bad direction; improvements never fail.
// -o writes the fresh artifact, which is how a baseline is
// regenerated.
//
// Exits 0 when no row regressed, 1 when any did, and 2 on usage,
// identity (the runs differ in tool, seed, quick mode or semantic
// flags) or missing-row errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"capuchin/internal/bench"
)

func main() {
	jobs := flag.Int("jobs", 0, "parallel workers for re-run baselines (0 = GOMAXPROCS)")
	out := flag.String("o", "", "also write the fresh artifact as JSON to this path")
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: capuchin-regress [-jobs N] [-o fresh.json] BASE [FRESH]")
		os.Exit(2)
	}

	base, err := bench.ReadArtifact(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	fresh, err := bench.Fresh(base, flag.Arg(1), bench.Options{Jobs: *jobs})
	if err != nil {
		fail(err)
	}
	if *out != "" {
		b, err := json.MarshalIndent(fresh, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fail(err)
		}
	}
	regs, err := bench.Compare(base, fresh)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s (%s): %d rows, %d regressed\n", flag.Arg(0), base.Meta.Tool, len(base.Rows), len(regs))
	for _, r := range regs {
		fmt.Printf("REGRESSION %s\n", r)
	}
	if len(regs) > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "capuchin-regress: %v\n", err)
	os.Exit(2)
}
