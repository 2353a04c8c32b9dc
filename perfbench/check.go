package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"sync"

	"capuchin/internal/bench"
	"capuchin/internal/exec"
	"capuchin/internal/hw"
	"capuchin/internal/memory"
)

// expectedOOM reports whether err is an out-of-memory outcome, which is
// a result of the configuration, not a failure of the program.
func expectedOOM(err error) bool {
	return errors.Is(err, exec.ErrIterationOOM) || errors.Is(err, memory.ErrOOM)
}

// failure describes why a run result counts as failed, or "" when it
// completed or ran out of memory. A panic (recovered by the runner into
// an error), any other error, or a missing result is a failure.
func failure(res bench.Result) string {
	if res.OK || expectedOOM(res.Err) {
		return ""
	}
	if res.Err == nil {
		return fmt.Sprintf("%s: failed without an error", cellLabel(res.Config))
	}
	return fmt.Sprintf("%s: %v", cellLabel(res.Config), res.Err)
}

// oracleKey identifies one reference run: the fingerprints depend on the
// computation only, never on the device, the policy or the memory cap.
type oracleKey struct {
	Model      string
	Batch      int64
	Iterations int
	Mode       exec.Mode
}

type fingerprints struct{ loss, param []uint64 }

// oracle is the fingerprint conformance rule: every completed
// static-path cell must report, in every iteration, the loss and
// parameter fingerprints of an uncapped TF-ori run of the same model,
// batch and iteration count. References are simulated once and cached.
type oracle struct {
	mu   sync.Mutex
	refs map[oracleKey]fingerprints
}

func newOracle() *oracle { return &oracle{refs: make(map[oracleKey]fingerprints)} }

// uncapped is the reference device: large enough that TF-ori never runs
// out of memory on any benchmark configuration.
var uncapped = hw.P100().WithMemory(1 << 40)

// check returns "" when res satisfies the oracle (or is not a completed
// static-path cell) and the mismatch otherwise.
func (o *oracle) check(res bench.Result) string {
	cfg := res.Config
	if !res.OK || !static(cfg) {
		return ""
	}
	iters := cfg.Iterations
	if iters == 0 {
		iters = 3
	}
	key := oracleKey{cfg.Model, cfg.Batch, iters, cfg.Mode}
	o.mu.Lock()
	ref, ok := o.refs[key]
	o.mu.Unlock()
	if !ok {
		r := bench.Run(bench.RunConfig{Model: cfg.Model, Batch: cfg.Batch, System: bench.SystemTF,
			Device: uncapped, Mode: cfg.Mode, Iterations: iters})
		if !r.OK {
			return fmt.Sprintf("%s: uncapped TF-ori reference failed: %v", cellLabel(cfg), r.Err)
		}
		for _, st := range r.Stats {
			ref.loss = append(ref.loss, st.LossFingerprint)
			ref.param = append(ref.param, st.ParamFingerprint)
		}
		o.mu.Lock()
		o.refs[key] = ref
		o.mu.Unlock()
	}
	if len(res.Stats) != len(ref.loss) {
		return fmt.Sprintf("%s: %d iterations, reference has %d", cellLabel(cfg), len(res.Stats), len(ref.loss))
	}
	for i, st := range res.Stats {
		if st.LossFingerprint != ref.loss[i] || st.ParamFingerprint != ref.param[i] {
			return fmt.Sprintf("%s: iteration %d fingerprints differ from the uncapped TF-ori reference", cellLabel(cfg), i)
		}
	}
	return ""
}

// checks accumulates correctness checks: how many ran and which failed.
type checks struct {
	attempted int
	failures  []string
}

// add counts one check; a non-empty why marks it failed.
func (c *checks) add(why string) {
	c.attempted++
	if why != "" {
		c.failures = append(c.failures, why)
	}
}

// digest hashes a workload's simulated outcomes so two commits (or a
// traced and an untraced run) can be compared exactly.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(format string, args ...any) { fmt.Fprintf(d.h, format+"\n", args...) }

func (d *digest) write(b []byte) { d.h.Write(b) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
