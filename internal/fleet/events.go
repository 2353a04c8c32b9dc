package fleet

import (
	"capuchin/internal/sim"
)

// eventKind discriminates scheduler events.
type eventKind int

const (
	// evArrive: a job enters the system and starts its sandbox warmup
	// (Predictive) or is considered immediately (AdmitAll).
	evArrive eventKind = iota
	// evProfiled: the sandbox warmup finished; the job joins the
	// admission queue with its prediction attached.
	evProfiled
	// evPeak: a running job finishes its on-device ramp and demands its
	// full realized footprint — the moment mispredictions surface.
	evPeak
	// evComplete: a running job finishes its remaining iterations.
	evComplete
	// evRequeue: a killed job's backoff expired; it rejoins the queue.
	evRequeue
)

// event is one scheduled state transition; the queue holds its time.
// gen guards against staleness: a job's kills and preemptions bump
// job.gen, and events carrying an old generation are dropped on arrival,
// so a preempted job's in-flight completion can never fire.
type event struct {
	kind eventKind
	job  *Job
	gen  int
}

// schedule queues kind for j at time at, stamped with j's current
// generation. The event queue is a sim.Queue: ties in virtual time
// resolve by insertion order, never by map iteration or heap internals —
// the determinism backbone of the scheduler.
func (f *Fleet) schedule(at sim.Time, kind eventKind, j *Job) {
	f.q.Push(at, event{kind: kind, job: j, gen: j.gen})
}
