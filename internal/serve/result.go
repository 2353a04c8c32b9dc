package serve

import (
	"encoding/json"

	"capuchin/internal/bench"
	"capuchin/internal/core"
	"capuchin/internal/exec"
)

// resultWire is the JSON shape of one completed run. It mirrors the
// serializable core of bench.Result — everything a remote client can
// use — and deliberately omits the in-memory artifacts (Session,
// Profile collectors); traces and event streams have their own
// endpoints. Field order is fixed by this struct, so encoding is
// deterministic and the serve-vs-direct byte-identity check is exact.
type resultWire struct {
	Config     bench.RunConfig      `json:"config"`
	OK         bool                 `json:"ok"`
	Error      string               `json:"error,omitempty"`
	Stats      []exec.IterStats     `json:"stats,omitempty"`
	Steady     exec.IterStats       `json:"steady"`
	Throughput float64              `json:"throughputPerSec"`
	Plan       core.PlanSummary     `json:"plan"`
	Dynamic    *bench.DynamicReport `json:"dynamic,omitempty"`
	Cluster    *bench.ClusterReport `json:"cluster,omitempty"`
}

// EncodeResult renders a run result as the service's canonical JSON.
// The encoding is a pure function of the Result's serializable fields;
// the simulator is deterministic, so a run served over HTTP and a
// direct bench.Run of the same canonical config encode byte-identically
// (the selftest's byte_identity row asserts exactly that).
func EncodeResult(res bench.Result) ([]byte, error) {
	wire := resultWire{
		Config:     res.Config,
		OK:         res.OK,
		Stats:      res.Stats,
		Steady:     res.Steady,
		Throughput: res.Throughput,
		Plan:       res.Plan,
		Dynamic:    res.Dynamic,
		Cluster:    res.Cluster,
	}
	if res.Err != nil {
		wire.Error = res.Err.Error()
	}
	b, err := json.Marshal(wire)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
