package obs

import (
	"io"
	"sync"
)

// JSONL encoding: one JSON object per line, suitable for tailing by an
// external process (capuchin-serve streams exactly these records on
// /v1/runs/{id}/events). Every record carries a "type" discriminator —
// "event" or "decision" — so a single stream can interleave both logs.
// Encoding is deterministic: fields appear in a fixed order, zero-valued
// optional fields are omitted, and virtual times are integer
// nanoseconds. The records are appended field by field (see enc.go);
// the bytes are those encoding/json gives for the wire structs kept as
// the reference in the package tests.

// kindName renders an EventKind for the wire.
func kindName(k EventKind) string {
	switch k {
	case KindSpan:
		return "span"
	case KindInstant:
		return "instant"
	case KindCounter:
		return "counter"
	}
	return "unknown"
}

// appendEventLine appends ev's JSON line, newline included.
func appendEventLine(b []byte, ev Event) []byte {
	b = append(b, `{"type":"event","kind":"`...)
	b = append(b, kindName(ev.Kind)...)
	b = append(b, '"')
	b = optString(b, `,"cat":`, ev.Cat)
	b = optString(b, `,"name":`, ev.Name)
	b = optString(b, `,"lane":`, ev.Lane)
	b = optString(b, `,"group":`, ev.Group)
	b = appendInt(b, `,"start":`, int64(ev.Start))
	b = optInt(b, `,"end":`, int64(ev.End))
	b = optInt(b, `,"queued":`, int64(ev.Queued))
	b = optInt(b, `,"iter":`, int64(ev.Iter))
	b = optString(b, `,"tensor":`, ev.Tensor)
	b = optString(b, `,"node":`, ev.Node)
	b = optInt(b, `,"bytes":`, ev.Bytes)
	b = optInt(b, `,"used":`, ev.Used)
	b = optInt(b, `,"free":`, ev.Free)
	b = optInt(b, `,"largestFree":`, ev.LargestFree)
	b = optInt(b, `,"hostUsed":`, ev.HostUsed)
	b = optString(b, `,"detail":`, ev.Detail)
	return append(b, "}\n"...)
}

// appendDecisionLine appends d's JSON line, newline included. A NaN or
// infinite MSPS or CommSlowdown cannot be encoded: b comes back
// unchanged with encoding/json's error.
func appendDecisionLine(b []byte, d Decision) ([]byte, error) {
	if err := checkFloat(d.MSPS); err != nil {
		return b, err
	}
	if err := checkFloat(d.CommSlowdown); err != nil {
		return b, err
	}
	b = append(b, `{"type":"decision"`...)
	b = optInt(b, `,"iter":`, int64(d.Iter))
	b = appendInt(b, `,"at":`, int64(d.At))
	b = optString(b, `,"policy":`, d.Policy)
	b = optString(b, `,"group":`, d.Group)
	b = optString(b, `,"tensor":`, d.Tensor)
	b = appendString(append(b, `,"action":`...), d.Action)
	b = optString(b, `,"class":`, d.Class)
	b = optString(b, `,"reason":`, d.Reason)
	b = optInt(b, `,"freeTime":`, int64(d.FreeTime))
	b = optFloat(b, `,"msps":`, d.MSPS)
	b = optInt(b, `,"backAccess":`, int64(d.BackAccess))
	b = optInt(b, `,"candidates":`, int64(d.Candidates))
	b = optInt(b, `,"bytes":`, d.Bytes)
	b = optFloat(b, `,"commSlowdown":`, d.CommSlowdown)
	b = optInt(b, `,"commUntil":`, int64(d.CommUntil))
	return append(b, "}\n"...), nil
}

// WriteJSONL streams events as JSON lines.
func WriteJSONL(w io.Writer, events []Event) error {
	b := make([]byte, 0, flushAt+1024)
	for _, ev := range events {
		if b = appendEventLine(b, ev); len(b) >= flushAt {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	return writeRest(w, b, nil)
}

// WriteDecisionsJSONL streams audit-log decisions as JSON lines. A
// decision that cannot be encoded ends the stream after the lines
// before it, with the encoding error.
func WriteDecisionsJSONL(w io.Writer, decisions []Decision) error {
	b := make([]byte, 0, flushAt+1024)
	var encErr error
	for _, d := range decisions {
		if b, encErr = appendDecisionLine(b, d); encErr != nil {
			break
		}
		if len(b) >= flushAt {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	return writeRest(w, b, encErr)
}

// writeRest writes what is left in b, if anything, and then reports
// the write error or else encErr.
func writeRest(w io.Writer, b []byte, encErr error) error {
	if len(b) > 0 {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return encErr
}

// JSONLTracer is a Tracer that streams every event and decision to w as
// it is emitted, one JSON line per Write, instead of buffering them in
// memory. Encoding errors are sticky: the first one is kept, later
// emissions become no-ops, and Err reports it after the run — Emit and
// Decide cannot return errors without the executor knowing tracing
// exists.
type JSONLTracer struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte // reused line buffer
	err error
}

var _ Tracer = (*JSONLTracer)(nil)

// NewJSONLTracer returns a tracer streaming to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{w: w}
}

// Emit implements Tracer.
func (t *JSONLTracer) Emit(ev Event) {
	t.mu.Lock()
	if t.err == nil {
		t.buf = appendEventLine(t.buf[:0], ev)
		_, t.err = t.w.Write(t.buf)
	}
	t.mu.Unlock()
}

// Decide implements Tracer.
func (t *JSONLTracer) Decide(d Decision) {
	t.mu.Lock()
	if t.err == nil {
		if t.buf, t.err = appendDecisionLine(t.buf[:0], d); t.err == nil {
			_, t.err = t.w.Write(t.buf)
		}
	}
	t.mu.Unlock()
}

// Err reports the first encoding error, if any.
func (t *JSONLTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}
