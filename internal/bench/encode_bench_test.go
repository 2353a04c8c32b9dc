package bench

import (
	"io"
	"testing"

	"capuchin/internal/hw"
	"capuchin/internal/obs"
)

// BenchmarkEncodeResNet50 renders the event log of resnet50/capuchin at
// batch 24 on a 4 GiB P100 (6875 events) the two ways serve ships a
// run's log: the Chrome trace of /trace and the JSONL stream of
// /events.
func BenchmarkEncodeResNet50(b *testing.B) {
	res := Run(RunConfig{Model: "resnet50", Batch: 24, System: "capuchin",
		Device: hw.P100().WithMemory(4 * hw.GiB), Profile: true})
	if !res.OK {
		b.Fatal(res.Err)
	}
	events := res.Profile.Events.Events()
	for _, enc := range []struct {
		name  string
		write func(io.Writer, []obs.Event) error
	}{{"chrome", obs.WriteChromeTrace}, {"jsonl", obs.WriteJSONL}} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := enc.write(io.Discard, events); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
