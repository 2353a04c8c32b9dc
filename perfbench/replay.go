package main

import (
	"time"

	"capuchin/internal/memory"
	"capuchin/internal/obs"
)

// replayStats is the host cost of the BFC allocator's calls, measured
// by replaying a recorded allocation stream into a fresh allocator.
type replayStats struct {
	Allocs, Frees, Largest int
	// AllocNS, FreeNS and LargestNS total the per-call host time, with
	// the clock-read cost already subtracted.
	AllocNS, FreeNS, LargestNS int64
	// OOMs counts replayed allocations the fresh allocator refused (the
	// executor's own pool may hold a different layout after evictions).
	OOMs int
}

func (r *replayStats) add(o replayStats) {
	r.Allocs += o.Allocs
	r.Frees += o.Frees
	r.Largest += o.Largest
	r.AllocNS += o.AllocNS
	r.FreeNS += o.FreeNS
	r.LargestNS += o.LargestNS
	r.OOMs += o.OOMs
}

// memEvents collects the executor's "alloc" and "free" instants.
type memEvents struct{ evs []obs.Event }

func (m *memEvents) Emit(ev obs.Event) {
	if ev.Cat == "alloc" || ev.Cat == "free" {
		m.evs = append(m.evs, ev)
	}
}

func (m *memEvents) Decide(obs.Decision) {}

// clockCost estimates the host cost of one pair of clock reads, which
// every timed allocator call below pays on top of its own work.
func clockCost() int64 {
	const n = 4096
	var total int64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		total += time.Since(t0).Nanoseconds()
	}
	return total / n
}

// replayBFC replays the alloc/free stream into memory.NewBFC(capacity),
// timing each successful Alloc, each Free and a LargestFree query after
// every event. An Alloc the fresh allocator refuses is counted in OOMs
// and not timed: the failure path costs differently. Tensor allocations
// pair with frees by tensor ID; workspace allocations (no tensor) pair
// last-in, first-out.
func replayBFC(evs []obs.Event, capacity int64) replayStats {
	var st replayStats
	clock := clockCost()
	bfc := memory.NewBFC(capacity)
	live := make(map[string]*memory.Allocation)
	var workspace []*memory.Allocation
	// timed runs f and returns its host time less the clock's own cost.
	timed := func(f func()) int64 {
		t0 := time.Now()
		f()
		return max(time.Since(t0).Nanoseconds()-clock, 0)
	}
	free := func(a *memory.Allocation) {
		st.FreeNS += timed(func() { _ = bfc.Free(a) })
		st.Frees++
	}
	for _, ev := range evs {
		switch ev.Cat {
		case "alloc":
			if old := live[ev.Tensor]; ev.Tensor != "" && old != nil {
				// A free the executor did not report; release it first.
				free(old)
				delete(live, ev.Tensor)
			}
			var a *memory.Allocation
			var err error
			ns := timed(func() { a, err = bfc.Alloc(ev.Bytes) })
			switch {
			case err != nil:
				st.OOMs++
			case ev.Tensor == "":
				st.AllocNS += ns
				st.Allocs++
				workspace = append(workspace, a)
			default:
				st.AllocNS += ns
				st.Allocs++
				live[ev.Tensor] = a
			}
		case "free":
			if ev.Tensor == "" {
				if n := len(workspace); n > 0 {
					free(workspace[n-1])
					workspace = workspace[:n-1]
				}
			} else if a := live[ev.Tensor]; a != nil {
				free(a)
				delete(live, ev.Tensor)
			}
		}
		st.LargestNS += timed(func() { _ = bfc.LargestFree() })
		st.Largest++
	}
	return st
}
