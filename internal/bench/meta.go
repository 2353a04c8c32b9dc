package bench

import (
	"fmt"
	"os/exec"
	"runtime"
	"strings"
)

// RunMeta is the provenance block embedded in every BENCH_*.json
// artifact: enough to reproduce the run (tool, seed, semantic flags) and
// to audit what produced it (Go toolchain, git describe). It is part of
// each artifact's byte-stability contract, so everything in it must be
// deterministic for a fixed checkout: wall-clock Date is opt-in via
// WithDate and never stamped automatically, and Flags holds curated
// semantic flags only — never raw os.Args, which would leak
// output-neutral flags like -jobs and break the byte-identity checks
// that compare artifacts across job counts. The gate treats Tool, Seed,
// Quick and Flags as the run's identity.
type RunMeta struct {
	// Tool is the producing command ("capuchin-bench -exp fleet").
	Tool string `json:"tool"`
	// Seed is the run's governing seed, when one exists.
	Seed uint64 `json:"seed,omitempty"`
	// GoVersion is runtime.Version() of the producing toolchain.
	GoVersion string `json:"goVersion"`
	// GitDescribe is `git describe --always --dirty` at production time;
	// empty when the tree is unavailable (e.g. release tarballs).
	GitDescribe string `json:"gitDescribe,omitempty"`
	// Flags are the semantic flags that determine the run's output,
	// normalized "name=value", sorted by the producer.
	Flags []string `json:"flags,omitempty"`
	// Date is the wall-clock production date (YYYY-MM-DD), opt-in via
	// WithDate because it breaks reproduction-time byte equality.
	Date string `json:"date,omitempty"`
	// Quick records whether the run used the trimmed quick sweeps.
	Quick bool `json:"quick,omitempty"`
}

// NewRunMeta assembles the deterministic provenance block: tool, seed
// and flags from the caller, toolchain and git state from the
// environment.
func NewRunMeta(tool string, seed uint64, quick bool, flags ...string) RunMeta {
	return RunMeta{
		Tool:        tool,
		Seed:        seed,
		GoVersion:   runtime.Version(),
		GitDescribe: gitDescribe(),
		Flags:       flags,
		Quick:       quick,
	}
}

// WithDate stamps a wall-clock date (YYYY-MM-DD) onto the meta block.
// Callers pass the date explicitly — typically from a -meta-date flag —
// so artifacts stay byte-reproducible by default.
func (m RunMeta) WithDate(date string) RunMeta {
	m.Date = date
	return m
}

// Validate reports whether the provenance block is populated enough to
// gate against: a tool name and a toolchain version are the minimum.
func (m RunMeta) Validate() error {
	if m.Tool == "" {
		return fmt.Errorf("bench: RunMeta.Tool is empty")
	}
	if m.GoVersion == "" {
		return fmt.Errorf("bench: RunMeta.GoVersion is empty")
	}
	return nil
}

// gitDescribe best-efforts the checkout's `git describe --always
// --dirty`. Any failure (no git binary, not a repository) degrades to
// empty rather than erroring: provenance should never fail a benchmark.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
