package exec

import (
	"capuchin/internal/hw"
	"capuchin/internal/sim"
)

// This file is the executor's view of collective-communication traffic in
// a data-parallel cluster. The cluster scheduler (internal/cluster)
// predicts when gradient all-reduce shards will occupy each replica's
// host link and publishes those intervals as CommWindows; the executor
// then (a) always degrades transfers that overlap a window — contention
// is physics, it applies whether or not the policy is aware of it — and
// (b) when Config.CommAware is set, defers a swap transfer past a window
// whenever finishing at full bandwidth after the all-reduce beats
// contending with it. The decision audit records the comm-window input
// of every adjusted action.

// CommWindow is one interval during which collective traffic occupies
// this replica's link. Slowdown is the bandwidth degradation factor a
// concurrent swap transfer experiences inside the window (2 = fair
// time-sharing with the all-reduce shard).
type CommWindow struct {
	Start, End sim.Time
	Slowdown   float64
}

// CommModel answers point-in-time queries about pending collective
// traffic on this replica's link. Implementations must be deterministic
// functions of virtual time. nil means an isolated device: no collective
// traffic ever.
type CommModel interface {
	// WindowAt reports the communication window covering t, if any.
	WindowAt(t sim.Time) (CommWindow, bool)
}

// commSlowdownAt reports the collective-traffic slowdown covering t
// (1 = none).
func (s *Session) commSlowdownAt(t sim.Time) (CommWindow, bool) {
	if s.cfg.Comm == nil {
		return CommWindow{}, false
	}
	w, ok := s.cfg.Comm.WindowAt(t)
	if !ok || w.Slowdown <= 1 {
		return CommWindow{}, false
	}
	return w, true
}

// linkSlowdown combines every source of link-bandwidth degradation at
// time t: injected fault windows and all-reduce contention. The larger
// factor wins — both flows contend for the same wire, and the model
// keeps the worst one rather than stacking them.
func (s *Session) linkSlowdown(at sim.Time) float64 {
	f := s.inj.LinkSlowdown(at)
	if w, ok := s.commSlowdownAt(at); ok && w.Slowdown > f {
		f = w.Slowdown
	}
	return f
}

// deferForComm implements the comm-aware scheduling rule for one swap
// transfer: if the transfer would start inside an all-reduce window, and
// waiting for the window to drain then running at full bandwidth
// completes earlier than contending with the collective, the transfer's
// earliest start is pushed to the window's end. The returned window (ok)
// reports the comm-window input consulted, for the decision audit; the
// adjustment never increases the completion time, so comm-aware
// scheduling is never slower than comm-oblivious for any single
// transfer. Without CommAware the earliest time passes through untouched
// and only the physics (linkSlowdown) applies.
func (s *Session) deferForComm(st *sim.Stream, link hw.Link, bytes int64, earliest sim.Time) (adjusted sim.Time, w CommWindow, ok bool) {
	if !s.cfg.CommAware || s.cfg.Comm == nil {
		return earliest, CommWindow{}, false
	}
	start := sim.MaxTime(st.AvailableAt(), earliest)
	w, ok = s.commSlowdownAt(start)
	if !ok {
		return earliest, CommWindow{}, false
	}
	contended := start + link.DegradedTransferTime(bytes, s.linkSlowdown(start))
	deferred := w.End + link.DegradedTransferTime(bytes, s.linkSlowdown(w.End))
	if deferred < contended {
		return w.End, w, true
	}
	return earliest, w, true
}

// Frontier is the session's virtual-time frontier: the front of its
// furthest-advanced stream. Between iterations the streams are quiescent,
// so this is the session's "now" — where a gradient barrier or a
// signature switch picks up.
func (s *Session) Frontier() sim.Time {
	var t sim.Time
	for _, st := range []*sim.Stream{s.compute, s.h2d, s.d2h, s.cpu} {
		if st != nil {
			t = sim.MaxTime(t, st.AvailableAt())
		}
	}
	return t
}

// AdvanceTo stalls every stream of the session until t if t is in its
// future — the cluster's gradient-barrier synchronization point, and the
// dynamic engine's fast-forward on signature switches.
func (s *Session) AdvanceTo(t sim.Time) {
	for _, st := range []*sim.Stream{s.compute, s.h2d, s.d2h, s.cpu} {
		if st != nil {
			st.AdvanceTo(t)
		}
	}
}

// GradEvent records the production of one gradient tensor: the virtual
// time its producing operation finished and its size. The cluster
// scheduler coalesces the per-iteration gradient schedule into fusion
// buckets and all-reduces each bucket as one collective.
type GradEvent struct {
	At    sim.Time
	Bytes int64
}

// GradSchedule returns the gradient production events of the last
// executed iteration, in production order. Empty for graphs without
// parameter updates.
func (s *Session) GradSchedule() []GradEvent {
	out := make([]GradEvent, len(s.gradEvents))
	copy(out, s.gradEvents)
	return out
}
