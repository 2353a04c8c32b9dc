package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refItem and refHeap are a container/heap reference with the queue's
// documented (time, insertion order) key.
type refItem struct {
	at  Time
	seq int
	v   int
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// TestQueuePropertyDifferential drives Queue and the container/heap
// reference with randomized tapes of pushes (heavy timestamp ties to
// stress the insertion-order tie-break), peeks and pops, and demands the
// same values in the same order, through a final full drain.
func TestQueuePropertyDifferential(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var q Queue[int]
		var ref refHeap
		next := 0
		check := func(where string) bool {
			at, v, ok := q.Pop()
			if ok != (ref.Len() > 0) {
				t.Fatalf("trial %d %s: pop ok=%v with %d reference items", trial, where, ok, ref.Len())
			}
			if !ok {
				return false
			}
			want := heap.Pop(&ref).(refItem)
			if at != want.at || v != want.v {
				t.Fatalf("trial %d %s: pop (%d, %d), want (%d, %d)", trial, where, at, v, want.at, want.v)
			}
			return true
		}
		ops := 1 + rng.Intn(400)
		for op := 0; op < ops; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // push, with deliberately colliding timestamps
				at := Time(rng.Intn(8))
				q.Push(at, next)
				heap.Push(&ref, refItem{at: at, seq: next, v: next})
				next++
			case r < 6: // peek agrees with the reference root
				at, v, ok := q.Peek()
				if ok != (ref.Len() > 0) || ok && (at != ref[0].at || v != ref[0].v) {
					t.Fatalf("trial %d op %d: peek (%d, %d, %v) disagrees with the reference", trial, op, at, v, ok)
				}
			default:
				check("pop")
			}
		}
		for check("drain") {
		}
		if q.Len() != 0 {
			t.Fatalf("trial %d: queue reports %d after drain", trial, q.Len())
		}
	}
}
