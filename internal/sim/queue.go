package sim

// Queue is a min-heap of values keyed by virtual time, the one
// time-ordered queue of the simulator: the executor's pending
// completions (PendingSet) and the fleet scheduler's events both run on
// it. Its order is total — earlier time first, equal times in insertion
// order — so pop order never depends on heap internals and any two
// correct heaps agree on it.
//
// The queue owns each entry's time and sequence number; values carry
// only their payload. The heap is a plain slice of concrete entries with
// hole-based sifts (container/heap would box every push through any), so
// a warm push/pop cycle is allocation-free. The zero value is an empty
// queue.
type Queue[T any] struct {
	h   []entry[T]
	seq uint64
}

type entry[T any] struct {
	at  Time
	seq uint64
	v   T
}

// before is the queue's total order.
func (e *entry[T]) before(o *entry[T]) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Len reports the number of queued values.
func (q *Queue[T]) Len() int { return len(q.h) }

// Push queues v at time at.
func (q *Queue[T]) Push(at Time, v T) {
	e := entry[T]{at: at, seq: q.seq, v: v}
	q.seq++
	q.h = append(q.h, e)
	j := len(q.h) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !e.before(&q.h[i]) {
			break
		}
		q.h[j] = q.h[i]
		j = i
	}
	q.h[j] = e
}

// Peek returns the earliest value and its time without removing it. The
// boolean is false when the queue is empty.
func (q *Queue[T]) Peek() (Time, T, bool) {
	if len(q.h) == 0 {
		var zero T
		return 0, zero, false
	}
	return q.h[0].at, q.h[0].v, true
}

// Pop removes and returns the earliest value and its time. The boolean
// is false when the queue is empty.
func (q *Queue[T]) Pop() (Time, T, bool) {
	n := len(q.h) - 1
	if n < 0 {
		var zero T
		return 0, zero, false
	}
	top := q.h[0]
	last := q.h[n]
	q.h[n] = entry[T]{} // drop references held past the pop
	q.h = q.h[:n]
	if n > 0 {
		// Sift the former last entry down from the root.
		i := 0
		for {
			c := 2*i + 1 // left child
			if c >= n {
				break
			}
			if r := c + 1; r < n && q.h[r].before(&q.h[c]) {
				c = r
			}
			if !q.h[c].before(&last) {
				break
			}
			q.h[i] = q.h[c]
			i = c
		}
		q.h[i] = last
	}
	return top.at, top.v, true
}
