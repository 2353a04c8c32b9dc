package sim

import "testing"

// BenchmarkHotPathPendingSet drives the pending-completion queue through
// push/pop cycles. The queue is a plain slice of concrete entries, so
// once capacity is warm the cycle must be allocation-free.
func BenchmarkHotPathPendingSet(b *testing.B) {
	ps := &PendingSet{}
	cycle := func() {
		for i := 0; i < 8; i++ {
			ps.Add(Pending{At: Time(i * 37 % 5), Key: "t"})
		}
		for {
			if _, ok := ps.PopEarliest(); !ok {
				break
			}
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkHotPathPendingPopDue exercises the batched drain, whose
// result slice is reused across calls.
func BenchmarkHotPathPendingPopDue(b *testing.B) {
	ps := &PendingSet{}
	cycle := func() {
		for i := 0; i < 8; i++ {
			ps.Add(Pending{At: Time(i), Key: "t"})
		}
		ps.PopDue(Time(8))
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkHotPathStreamRun times non-recording stream occupancy
// bookkeeping — the per-op cost every simulated kernel launch pays.
// Recording is off by default, so no span may be retained.
func BenchmarkHotPathStreamRun(b *testing.B) {
	st := NewStream("compute")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Run("op", Time(i), Microsecond)
	}
}
