package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"capuchin/internal/bench"
)

// TestSelfTestQuick runs the full selftest at a trimmed scale: both
// phases, the artifact's internal ledgers, and the acceptance
// invariants the regression gate will enforce on the real artifact.
func TestSelfTestQuick(t *testing.T) {
	art, err := SelfTest(SelfTestOptions{Clients: 16, Requests: 48, Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := art.Meta.Validate(); err != nil {
		t.Errorf("artifact meta: %v", err)
	}
	if !art.Meta.Quick {
		t.Error("quick run not recorded in meta")
	}
	l := art.Load
	if l.Total != l.OK+l.Shed+l.Errors || l.OK != l.Accepted+l.Deduped {
		t.Errorf("load ledger off: %+v", l)
	}
	if l.Errors != 0 {
		t.Errorf("load phase errors: %+v", l)
	}
	if l.P50Millis > l.P99Millis || l.P99Millis > l.MaxMillis {
		t.Errorf("percentiles unordered: %+v", l)
	}
	if !art.ByteIdentity.Identical {
		t.Error("served result not byte-identical to direct bench.Run")
	}
	d := art.Drain
	if d.Dropped != 0 || d.CompletedAfterDrain != d.InFlightAtDrain {
		t.Errorf("drain dropped accepted runs: %+v", d)
	}
	if !d.ShedObserved || d.RejectedDuringDrain != 1 {
		t.Errorf("backpressure/drain rejection not observed: %+v", d)
	}

	var buf bytes.Buffer
	if err := art.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round ServeBench
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("artifact does not round-trip: %v", err)
	}
	if round.Load.Total != art.Load.Total || round.Drain != art.Drain {
		t.Errorf("round-trip drifted: %+v vs %+v", round, art)
	}

	// The gated view: the artifact's rows pass the gate against
	// themselves, as decoded from its JSON.
	var gated bench.Artifact
	if err := json.Unmarshal(buf.Bytes(), &gated); err != nil {
		t.Fatal(err)
	}
	if regs, err := bench.Compare(gated, gated); err != nil || len(regs) != 0 || len(gated.Rows) != 5 {
		t.Errorf("artifact rows %v do not gate cleanly: %v, %v", gated.Rows, regs, err)
	}
}
