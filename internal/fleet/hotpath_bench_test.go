package fleet

import (
	"testing"

	"capuchin/internal/sim"
)

// BenchmarkHotPathEventQueue cycles the scheduler's event queue. The
// queue moves concrete event values — no container/heap interface
// boxing — so a warm push/pop cycle must not allocate.
func BenchmarkHotPathEventQueue(b *testing.B) {
	var q sim.Queue[event]
	j := &Job{ID: 1}
	cycle := func() {
		for i := 0; i < 8; i++ {
			q.Push(sim.Time(i*13%7), event{kind: evComplete, job: j, gen: j.gen})
		}
		for {
			if _, _, ok := q.Pop(); !ok {
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
