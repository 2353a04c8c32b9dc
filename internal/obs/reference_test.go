package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The reference encoders: the reflection-based wire structs and writers
// the append encoders replaced, kept verbatim so FuzzEventEncoders can
// hold the two paths to byte identity.

// jsonlEvent is the wire form of an Event.
type jsonlEvent struct {
	Type   string `json:"type"`
	Kind   string `json:"kind"`
	Cat    string `json:"cat,omitempty"`
	Name   string `json:"name,omitempty"`
	Lane   string `json:"lane,omitempty"`
	Group  string `json:"group,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end,omitempty"`
	Queued int64  `json:"queued,omitempty"`
	Iter   int    `json:"iter,omitempty"`
	Tensor string `json:"tensor,omitempty"`
	Node   string `json:"node,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Used   int64  `json:"used,omitempty"`
	Free   int64  `json:"free,omitempty"`
	Lrg    int64  `json:"largestFree,omitempty"`
	Host   int64  `json:"hostUsed,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// jsonlDecision is the wire form of a Decision.
type jsonlDecision struct {
	Type         string  `json:"type"`
	Iter         int     `json:"iter,omitempty"`
	At           int64   `json:"at"`
	Policy       string  `json:"policy,omitempty"`
	Group        string  `json:"group,omitempty"`
	Tensor       string  `json:"tensor,omitempty"`
	Action       string  `json:"action"`
	Class        string  `json:"class,omitempty"`
	Reason       string  `json:"reason,omitempty"`
	FreeTime     int64   `json:"freeTime,omitempty"`
	MSPS         float64 `json:"msps,omitempty"`
	BackAccess   int64   `json:"backAccess,omitempty"`
	Candidates   int     `json:"candidates,omitempty"`
	Bytes        int64   `json:"bytes,omitempty"`
	CommSlowdown float64 `json:"commSlowdown,omitempty"`
	CommUntil    int64   `json:"commUntil,omitempty"`
}

func eventRecord(ev Event) jsonlEvent {
	return jsonlEvent{
		Type: "event", Kind: kindName(ev.Kind),
		Cat: ev.Cat, Name: ev.Name, Lane: ev.Lane, Group: ev.Group,
		Start: int64(ev.Start), End: int64(ev.End), Queued: int64(ev.Queued),
		Iter: ev.Iter, Tensor: ev.Tensor, Node: ev.Node, Bytes: ev.Bytes,
		Used: ev.Used, Free: ev.Free, Lrg: ev.LargestFree, Host: ev.HostUsed,
		Detail: ev.Detail,
	}
}

func decisionRecord(d Decision) jsonlDecision {
	return jsonlDecision{
		Type: "decision", Iter: d.Iter, At: int64(d.At),
		Policy: d.Policy, Group: d.Group, Tensor: d.Tensor, Action: d.Action,
		Class: d.Class, Reason: d.Reason,
		FreeTime: int64(d.FreeTime), MSPS: d.MSPS, BackAccess: int64(d.BackAccess),
		Candidates: d.Candidates, Bytes: d.Bytes,
		CommSlowdown: d.CommSlowdown, CommUntil: int64(d.CommUntil),
	}
}

// refWriteJSONL streams events as JSON lines.
func refWriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(eventRecord(ev)); err != nil {
			return err
		}
	}
	return nil
}

// refWriteDecisionsJSONL streams audit-log decisions as JSON lines.
func refWriteDecisionsJSONL(w io.Writer, decisions []Decision) error {
	enc := json.NewEncoder(w)
	for _, d := range decisions {
		if err := enc.Encode(decisionRecord(d)); err != nil {
			return err
		}
	}
	return nil
}

// chromeRecord is one entry of the Chrome trace-event JSON array. Field
// order matches the trace-event specification's conventional layout; maps
// in Args marshal with sorted keys, so the output is deterministic.
type chromeRecord struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// refWriteChromeTrace is the reflection-based Chrome trace writer.
func refWriteChromeTrace(w io.Writer, events []Event) error {
	pids := map[string]int{"": chromePID}
	var extraGroups []string // non-default groups in first-seen order
	notePID := func(group string) int {
		if pid, ok := pids[group]; ok {
			return pid
		}
		pid := chromePID + len(pids)
		pids[group] = pid
		extraGroups = append(extraGroups, group)
		return pid
	}
	groupTIDs := make(map[string]map[string]int)
	groupLanes := make(map[string][]string)
	tidsOf := func(group string) map[string]int {
		m, ok := groupTIDs[group]
		if !ok {
			m = make(map[string]int, len(laneOrder))
			for i, lane := range laneOrder {
				m[lane] = i
			}
			groupTIDs[group] = m
		}
		return m
	}
	laneSeen := make(map[string]map[string]bool)
	noteLane := func(group, lane string) int {
		if lane == "" {
			return 0
		}
		if laneSeen[group] == nil {
			laneSeen[group] = make(map[string]bool)
		}
		if !laneSeen[group][lane] {
			laneSeen[group][lane] = true
			groupLanes[group] = append(groupLanes[group], lane)
		}
		m := tidsOf(group)
		if tid, ok := m[lane]; ok {
			return tid
		}
		tid := len(m)
		m[lane] = tid
		return tid
	}

	var records []chromeRecord
	for _, ev := range events {
		switch ev.Kind {
		case KindSpan:
			pid, tid := notePID(ev.Group), noteLane(ev.Group, ev.Lane)
			args := refSpanArgs(ev)
			records = append(records,
				chromeRecord{Name: ev.Name, Cat: ev.Cat, Ph: "B", TS: usec(ev.Start), PID: pid, TID: tid, Args: args},
				chromeRecord{Name: ev.Name, Cat: ev.Cat, Ph: "E", TS: usec(ev.End), PID: pid, TID: tid})
		case KindInstant:
			if ev.Lane != "" {
				records = append(records, chromeRecord{
					Name: ev.Name, Cat: ev.Cat, Ph: "i", TS: usec(ev.Start),
					PID: notePID(ev.Group), TID: noteLane(ev.Group, ev.Lane), Scope: "t", Args: refSpanArgs(ev),
				})
			}
			records = append(records, refCounterRecords(ev, notePID(ev.Group))...)
		case KindCounter:
			records = append(records, refCounterRecords(ev, notePID(ev.Group))...)
		}
	}
	// Stable sort by timestamp: records built in emission order, so at
	// equal timestamps a span's E precedes the next span's B and pairs
	// stay matched.
	sort.SliceStable(records, func(i, j int) bool { return records[i].TS < records[j].TS })

	meta := []chromeRecord{{
		Name: "process_name", Ph: "M", PID: chromePID, TID: 0,
		Args: map[string]any{"name": "capuchin-sim"},
	}}
	laneMeta := func(group string, pid int) {
		lanes, tids := groupLanes[group], groupTIDs[group]
		sort.Slice(lanes, func(i, j int) bool { return tids[lanes[i]] < tids[lanes[j]] })
		for _, lane := range lanes {
			meta = append(meta,
				chromeRecord{Name: "thread_name", Ph: "M", PID: pid, TID: tids[lane], Args: map[string]any{"name": lane}},
				chromeRecord{Name: "thread_sort_index", Ph: "M", PID: pid, TID: tids[lane], Args: map[string]any{"sort_index": tids[lane]}})
		}
	}
	laneMeta("", chromePID)
	for _, group := range extraGroups {
		pid := pids[group]
		meta = append(meta,
			chromeRecord{Name: "process_name", Ph: "M", PID: pid, TID: 0, Args: map[string]any{"name": group}},
			chromeRecord{Name: "process_sort_index", Ph: "M", PID: pid, TID: 0, Args: map[string]any{"sort_index": pid}})
		laneMeta(group, pid)
	}
	records = append(meta, records...)

	if _, err := fmt.Fprintf(w, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, r := range records {
		b, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// refSpanArgs assembles the args payload of a span or lane instant.
func refSpanArgs(ev Event) map[string]any {
	args := make(map[string]any, 6)
	args["iter"] = ev.Iter
	if ev.Tensor != "" {
		args["tensor"] = ev.Tensor
	}
	if ev.Node != "" {
		args["node"] = ev.Node
	}
	if ev.Bytes > 0 {
		args["bytes"] = ev.Bytes
	}
	if ev.Queued != 0 || ev.Cat == "transfer" {
		args["queued_us"] = usec(ev.Queued)
		args["queue_wait_us"] = usec(ev.Start - ev.Queued)
	}
	if ev.Detail != "" {
		args["detail"] = ev.Detail
	}
	return args
}

// refCounterRecords renders the memory counter tracks for an event carrying
// allocator samples, in the process of the event's group. Events in
// category "gauge" are generic single-value counter tracks (the fleet
// scheduler's queue depth, for example): the track is named by the event
// and the value rides in Bytes. Executor events never use Cat "gauge",
// so pre-fleet traces are unaffected.
func refCounterRecords(ev Event, pid int) []chromeRecord {
	if ev.Cat == "gauge" {
		return []chromeRecord{{Name: ev.Name, Ph: "C", TS: usec(ev.Start), PID: pid, TID: 0,
			Args: map[string]any{"value": ev.Bytes}}}
	}
	if ev.Used == 0 && ev.Free == 0 && ev.HostUsed == 0 {
		return nil
	}
	ts := usec(ev.Start)
	return []chromeRecord{
		{Name: "device memory", Ph: "C", TS: ts, PID: pid, TID: 0,
			Args: map[string]any{"free": ev.Free, "used": ev.Used}},
		{Name: "largest free chunk", Ph: "C", TS: ts, PID: pid, TID: 0,
			Args: map[string]any{"bytes": ev.LargestFree}},
		{Name: "host memory", Ph: "C", TS: ts, PID: pid, TID: 0,
			Args: map[string]any{"used": ev.HostUsed}},
	}
}
