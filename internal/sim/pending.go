package sim

// Pending is an asynchronous completion scheduled at a future virtual time:
// a deferred memory free, an in-flight swap-out, or any other event whose
// effect must be applied once simulated time passes At.
type Pending struct {
	At  Time
	Key string // identifies the subject, e.g. a tensor ID
}

// PendingSet holds pending completions in time order. It is the mechanism
// behind Capuchin's decoupled computation/swapping: memory freed by a
// swap-out only becomes visible to the allocator once the transfer
// completes, and an OOM can choose to block on the earliest in-flight
// completion rather than on all of them. Completions due at the same
// time pop in the order they were added.
type PendingSet struct {
	q   Queue[string]
	due []Pending // reused by PopDue; contents valid until the next call
}

// Add schedules a pending completion.
func (ps *PendingSet) Add(p Pending) { ps.q.Push(p.At, p.Key) }

// Len reports the number of pending completions.
func (ps *PendingSet) Len() int { return ps.q.Len() }

// PeekEarliest returns the earliest pending completion without removing it.
// The boolean is false when the set is empty.
func (ps *PendingSet) PeekEarliest() (Pending, bool) {
	at, key, ok := ps.q.Peek()
	return Pending{At: at, Key: key}, ok
}

// PopEarliest removes and returns the earliest pending completion.
// The boolean is false when the set is empty.
func (ps *PendingSet) PopEarliest() (Pending, bool) {
	at, key, ok := ps.q.Pop()
	return Pending{At: at, Key: key}, ok
}

// PopDue removes and returns all completions with At <= now, in time order.
// It returns nil when none are due. The returned slice is reused by the
// next PopDue call; callers must consume it before touching the set again.
func (ps *PendingSet) PopDue(now Time) []Pending {
	ps.due = ps.due[:0]
	for {
		at, _, ok := ps.q.Peek()
		if !ok || at > now {
			break
		}
		_, key, _ := ps.q.Pop()
		ps.due = append(ps.due, Pending{At: at, Key: key})
	}
	if len(ps.due) == 0 {
		return nil
	}
	return ps.due
}
