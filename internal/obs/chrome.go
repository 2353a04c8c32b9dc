package obs

import (
	"io"
	"slices"

	"capuchin/internal/sim"
)

// chromePID is the single simulated process.
const chromePID = 1

// laneOrder fixes thread IDs for the well-known stream lanes so the
// Perfetto track order is stable: compute on top, then the PCIe lanes,
// then the eager dispatch thread. Unknown lanes are appended in
// first-seen order.
var laneOrder = []string{"compute", "h2d", "d2h", "cpu"}

// usec converts virtual time to the microsecond float the trace-event
// format expects.
func usec(t sim.Time) float64 { return float64(t) / float64(sim.Microsecond) }

// chromeProc is one Perfetto process: the default group or one named
// group, with the lanes its events used.
type chromeProc struct {
	name  string
	pid   int
	tids  map[string]int // lane → thread ID, for the lanes seen
	lanes []string       // lanes seen, in first-seen order
	extra int            // lanes seen that are not in laneOrder
}

// tid returns lane's thread ID, registering the lane on first sight.
// The empty lane is thread 0 and is never registered.
func (p *chromeProc) tid(lane string) int {
	if lane == "" {
		return 0
	}
	if tid, ok := p.tids[lane]; ok {
		return tid
	}
	tid := slices.Index(laneOrder, lane)
	if tid < 0 {
		tid = len(laneOrder) + p.extra
		p.extra++
	}
	p.tids[lane] = tid
	p.lanes = append(p.lanes, lane)
	return tid
}

// Record parts: which of its event's records an index entry renders.
// They are numbered in the order the records of one event are emitted.
const (
	partBegin   uint8 = iota // span B, or a lane instant
	partEnd                  // span E
	partDevice               // "device memory" counter, or a gauge
	partLargest              // "largest free chunk" counter
	partHost                 // "host memory" counter
)

// chromeRec indexes one timeline record: the event it renders from,
// which part of it, its process and thread, and its timestamp.
type chromeRec struct {
	ts       float64
	ev       int
	pid, tid int32
	part     uint8
}

// counterParts is the number of counter records ev carries: one gauge
// value, three memory tracks, or none.
func counterParts(ev *Event) int {
	if ev.Cat == "gauge" {
		return 1
	}
	if ev.Used == 0 && ev.Free == 0 && ev.HostUsed == 0 {
		return 0
	}
	return 3
}

// WriteChromeTrace exports events as Chrome trace-event JSON, directly
// loadable in Perfetto or chrome://tracing: one lane per stream with
// matched B/E span pairs, instant events for faults and OOM recoveries,
// and counter tracks for device memory (used/free/largest contiguous)
// and pinned host memory sampled at every allocation event.
//
// Events carrying a Group are rendered as separate Perfetto processes —
// one per replica plus the interconnect in multi-device runs — each with
// its own lane and counter namespace. Events without a Group land in the
// default pid-1 process, so single-device traces are byte-identical to
// the pre-cluster format.
//
// The output is deterministic: identical event slices produce
// byte-identical JSON. Each record is rendered straight from its Event
// (see enc.go); the bytes are those encoding/json gives for the record
// structs kept as the reference in the package tests.
func WriteChromeTrace(w io.Writer, events []Event) error {
	procs := []*chromeProc{{pid: chromePID, tids: map[string]int{}}}
	byGroup := map[string]*chromeProc{"": procs[0]}
	procOf := func(group string) *chromeProc {
		p, ok := byGroup[group]
		if !ok {
			p = &chromeProc{name: group, pid: chromePID + len(procs), tids: map[string]int{}}
			byGroup[group] = p
			procs = append(procs, p)
		}
		return p
	}

	n := 0
	for i := range events {
		switch ev := &events[i]; ev.Kind {
		case KindSpan:
			n += 2
		case KindInstant:
			if ev.Lane != "" {
				n++
			}
			n += counterParts(ev)
		case KindCounter:
			n += counterParts(ev)
		}
	}
	recs := make([]chromeRec, 0, n)
	add := func(i int, ts sim.Time, pid, tid int, part uint8) {
		recs = append(recs, chromeRec{ts: usec(ts), ev: i, pid: int32(pid), tid: int32(tid), part: part})
	}
	addCounters := func(i int, ev *Event, pid int) {
		for k := 0; k < counterParts(ev); k++ {
			add(i, ev.Start, pid, 0, partDevice+uint8(k))
		}
	}
	for i := range events {
		switch ev := &events[i]; ev.Kind {
		case KindSpan:
			p := procOf(ev.Group)
			tid := p.tid(ev.Lane)
			add(i, ev.Start, p.pid, tid, partBegin)
			add(i, ev.End, p.pid, tid, partEnd)
		case KindInstant:
			p := procOf(ev.Group)
			if ev.Lane != "" {
				add(i, ev.Start, p.pid, p.tid(ev.Lane), partBegin)
			}
			addCounters(i, ev, p.pid)
		case KindCounter:
			addCounters(i, ev, procOf(ev.Group).pid)
		}
	}
	// Order by timestamp, then by emission: at equal timestamps a span's
	// E precedes the next span's B and pairs stay matched.
	slices.SortFunc(recs, func(a, b chromeRec) int {
		switch {
		case a.ts < b.ts:
			return -1
		case a.ts > b.ts:
			return 1
		case a.ev != b.ev:
			return a.ev - b.ev
		}
		return int(a.part) - int(b.part)
	})

	b := make([]byte, 0, flushAt+4096)
	b = append(b, chromeHead...)
	for _, p := range procs {
		if p.pid != chromePID {
			b = appendNameMeta(b, "process_name", p.pid, 0, p.name)
			b = appendSortMeta(b, "process_sort_index", p.pid, 0, p.pid)
		}
		slices.SortFunc(p.lanes, func(x, y string) int { return p.tids[x] - p.tids[y] })
		for _, lane := range p.lanes {
			tid := p.tids[lane]
			b = appendNameMeta(b, "thread_name", p.pid, tid, lane)
			b = appendSortMeta(b, "thread_sort_index", p.pid, tid, tid)
		}
	}
	for _, r := range recs {
		b = appendChromeRecord(append(b, ",\n"...), &events[r.ev], r)
		if len(b) >= flushAt {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	_, err := w.Write(append(b, "\n]}\n"...))
	return err
}

// appendHead opens a record with every field up to "tid".
func appendHead(b []byte, name, cat, ph string, ts float64, pid, tid int) []byte {
	b = appendString(append(b, `{"name":`...), name)
	b = optString(b, `,"cat":`, cat)
	b = append(b, `,"ph":"`...)
	b = append(b, ph...)
	b = appendFloat(append(b, `","ts":`...), ts)
	b = appendInt(b, `,"pid":`, int64(pid))
	return appendInt(b, `,"tid":`, int64(tid))
}

// chromeHead opens the trace with its first record, the default
// process's name. Every later record is preceded by a separator.
const chromeHead = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n" +
	`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"capuchin-sim"}}`

// appendNameMeta appends a metadata record naming a process or thread.
func appendNameMeta(b []byte, what string, pid, tid int, name string) []byte {
	b = appendHead(append(b, ",\n"...), what, "", "M", 0, pid, tid)
	return append(appendString(append(b, `,"args":{"name":`...), name), "}}"...)
}

// appendSortMeta appends a metadata record ordering a process or thread.
func appendSortMeta(b []byte, what string, pid, tid, index int) []byte {
	b = appendHead(append(b, ",\n"...), what, "", "M", 0, pid, tid)
	return append(appendInt(b, `,"args":{"sort_index":`, int64(index)), "}}"...)
}

// appendChromeRecord renders one indexed record from its event.
func appendChromeRecord(b []byte, ev *Event, r chromeRec) []byte {
	pid, tid := int(r.pid), int(r.tid)
	switch r.part {
	case partBegin:
		if ev.Kind == KindSpan {
			b = appendHead(b, ev.Name, ev.Cat, "B", r.ts, pid, tid)
		} else {
			b = append(appendHead(b, ev.Name, ev.Cat, "i", r.ts, pid, tid), `,"s":"t"`...)
		}
		return append(appendSpanArgs(b, ev), '}')
	case partEnd:
		return append(appendHead(b, ev.Name, ev.Cat, "E", r.ts, pid, tid), '}')
	case partDevice:
		if ev.Cat == "gauge" {
			b = appendHead(b, ev.Name, "", "C", r.ts, pid, tid)
			return append(appendInt(b, `,"args":{"value":`, ev.Bytes), "}}"...)
		}
		b = appendHead(b, "device memory", "", "C", r.ts, pid, tid)
		b = appendInt(b, `,"args":{"free":`, ev.Free)
		return append(appendInt(b, `,"used":`, ev.Used), "}}"...)
	case partLargest:
		b = appendHead(b, "largest free chunk", "", "C", r.ts, pid, tid)
		return append(appendInt(b, `,"args":{"bytes":`, ev.LargestFree), "}}"...)
	default: // partHost
		b = appendHead(b, "host memory", "", "C", r.ts, pid, tid)
		return append(appendInt(b, `,"args":{"used":`, ev.HostUsed), "}}"...)
	}
}

// appendSpanArgs appends the args object of a span or lane instant,
// keys in sorted order as encoding/json writes a map.
func appendSpanArgs(b []byte, ev *Event) []byte {
	b = append(b, `,"args":{`...)
	if ev.Bytes > 0 {
		b = append(appendInt(b, `"bytes":`, ev.Bytes), ',')
	}
	if ev.Detail != "" {
		b = append(appendString(append(b, `"detail":`...), ev.Detail), ',')
	}
	b = appendInt(b, `"iter":`, int64(ev.Iter))
	b = optString(b, `,"node":`, ev.Node)
	if ev.Queued != 0 || ev.Cat == "transfer" {
		b = appendFloat(append(b, `,"queue_wait_us":`...), usec(ev.Start-ev.Queued))
		b = appendFloat(append(b, `,"queued_us":`...), usec(ev.Queued))
	}
	b = optString(b, `,"tensor":`, ev.Tensor)
	return append(b, '}')
}
