package obs

import (
	"io"
	"testing"

	"capuchin/internal/sim"
)

// hotpathEvent is a transfer span as the executor emits it.
var hotpathEvent = Event{Kind: KindSpan, Cat: "transfer", Name: "swap-in conv2_1/out",
	Lane: "h2d", Start: 41 * sim.Microsecond, End: 97 * sim.Microsecond,
	Queued: 12 * sim.Microsecond, Iter: 2, Tensor: "conv2_1/out", Bytes: 25 << 20}

// BenchmarkHotPathJSONLEmit pins the streaming JSONL tracer serve
// attaches to every run: encoding one event into the tracer's reused
// line buffer must not allocate.
func BenchmarkHotPathJSONLEmit(b *testing.B) {
	tr := NewJSONLTracer(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Emit(hotpathEvent)
	}
	b.StopTimer()
	if err := tr.Err(); err != nil {
		b.Fatal(err)
	}
}

// hotpathLog is a fixed n-event log in the executor's mix: kernel spans,
// transfer spans on two lanes, and allocation instants carrying memory
// samples.
func hotpathLog(n int) []Event {
	events := make([]Event, 0, n)
	t := sim.Time(0)
	for i := 0; len(events) < n; i++ {
		ev := hotpathEvent
		ev.Start, ev.End, ev.Iter = t, t+5*sim.Microsecond, i/100
		switch i % 4 {
		case 0:
			ev.Cat, ev.Lane, ev.Queued = "kernel", "compute", 0
		case 1:
			ev.Lane, ev.Queued = "d2h", t-sim.Microsecond
		case 2:
			ev.Queued = t
		case 3:
			ev.Kind, ev.Cat, ev.Lane, ev.End = KindInstant, "alloc", "", t
			ev.Used, ev.Free, ev.LargestFree, ev.HostUsed = int64(i)<<20, 4<<30-int64(i)<<20, 1<<30, int64(i)<<10
		}
		events = append(events, ev)
		t += 3 * sim.Microsecond
	}
	return events
}

// BenchmarkHotPathChromeTrace pins the Chrome trace writer behind
// serve's /trace: rendering a 1000-event log allocates a small constant
// (the record index, the output buffer and the per-process lane
// tables), not per record.
func BenchmarkHotPathChromeTrace(b *testing.B) {
	events := hotpathLog(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteChromeTrace(io.Discard, events); err != nil {
			b.Fatal(err)
		}
	}
}
