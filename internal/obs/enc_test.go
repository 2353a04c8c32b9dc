package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"capuchin/internal/sim"
)

// FuzzEventEncoders holds the append encoders to byte identity with the
// reflection-based reference in reference_test.go: for events and
// decisions built from the fuzzed fields, WriteJSONL,
// WriteDecisionsJSONL, JSONLTracer and WriteChromeTrace must write the
// same bytes and report the same error as the reference.
func FuzzEventEncoders(f *testing.F) {
	nasty := []string{
		`<a href="x">&amp;</a>`, "a&b", "1>0", `quote " and back\slash`, "ctl\x00\x01\x1f\t\n\r\x7f",
		"bad\xff\xfeutf8\xc3", "sep\u2028\u2029", "é and 日本", "",
	}
	floats := []float64{0, 1e-7, -1e-7, 1e21, 123.456}
	// Every omitempty field zero.
	f.Add(uint8(KindSpan), "", "", "", "", "", "", "", int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), 0, 0.0, 0.0)
	// Every field non-zero, across the float forms and awkward strings.
	for i, fl := range floats {
		s := nasty[i%len(nasty)]
		f.Add(uint8(i), "kernel"+s, "conv"+s, "compute", "replica "+s, "t"+s, "n"+s, s,
			int64(1000+i), int64(5000*i+1), int64(-3), int64(64<<i), int64(1<<30), int64(7), i+1, fl, -fl+2)
	}
	for i, s := range nasty {
		f.Add(uint8(KindInstant), "transfer", s, "lane "+s, s, s, s, s,
			int64(i), int64(i), int64(0), int64(i-3), int64(0), int64(i), -i, floats[i%len(floats)], 1.5)
	}
	f.Add(uint8(KindCounter), "gauge", "queue depth", "", "scheduler", "", "", "", int64(1<<40), int64(-1), int64(1), int64(3), int64(0), int64(0), 0, math.NaN(), 0.0)

	f.Fuzz(func(t *testing.T, kind uint8, cat, name, lane, group, tensor, node, detail string,
		start, end, queued, nbytes, used, free int64, iter int, msps, slowdown float64) {
		ev := Event{Kind: EventKind(kind % 4), Cat: cat, Name: name, Lane: lane, Group: group,
			Start: sim.Time(start), End: sim.Time(end), Queued: sim.Time(queued), Iter: iter,
			Tensor: tensor, Node: node, Bytes: nbytes, Used: used, Free: free,
			LargestFree: nbytes ^ used, HostUsed: free - used, Detail: detail}
		events := []Event{ev}
		for _, v := range []func(*Event){
			func(e *Event) { e.Kind = KindSpan; e.Group = "" },
			func(e *Event) { e.Kind = KindInstant; e.Cat = "gauge" },
			func(e *Event) { e.Kind = KindInstant; e.Cat = "transfer"; e.Lane = "compute" },
			func(e *Event) { e.Kind = KindCounter; e.Start, e.End = e.End, e.Start },
			func(e *Event) { e.Kind = KindSpan; e.Lane = "h2d"; e.Queued = 0 },
		} {
			e := ev
			v(&e)
			events = append(events, e)
		}
		decisions := []Decision{
			{Iter: iter, At: sim.Time(start), Policy: cat, Group: group, Tensor: tensor,
				Action: name, Class: lane, Reason: detail, FreeTime: sim.Time(end), MSPS: msps,
				BackAccess: sim.Time(queued), Candidates: int(used % 1000), Bytes: nbytes,
				CommSlowdown: slowdown, CommUntil: sim.Time(free)},
			{Action: node},
		}

		same := func(what string, got, want *bytes.Buffer, gotErr, wantErr error) {
			t.Helper()
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s bytes differ:\n got %q\nwant %q", what, got.Bytes(), want.Bytes())
			}
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Errorf("%s error %v, want %v", what, gotErr, wantErr)
			}
		}
		var got, want bytes.Buffer
		same("WriteJSONL", &got, &want, WriteJSONL(&got, events), refWriteJSONL(&want, events))
		got.Reset()
		want.Reset()
		same("WriteDecisionsJSONL", &got, &want,
			WriteDecisionsJSONL(&got, decisions), refWriteDecisionsJSONL(&want, decisions))
		got.Reset()
		want.Reset()
		same("WriteChromeTrace", &got, &want, WriteChromeTrace(&got, events), refWriteChromeTrace(&want, events))

		// The streaming tracer, decisions interleaved, against one
		// json.Encoder whose first error is sticky.
		got.Reset()
		want.Reset()
		tr := NewJSONLTracer(&got)
		enc := json.NewEncoder(&want)
		var wantErr error
		for i, e := range events {
			tr.Emit(e)
			if wantErr == nil {
				wantErr = enc.Encode(eventRecord(e))
			}
			if d := decisions[i%len(decisions)]; i%2 == 0 {
				tr.Decide(d)
				if wantErr == nil {
					wantErr = enc.Encode(decisionRecord(d))
				}
			}
		}
		same("JSONLTracer", &got, &want, tr.Err(), wantErr)
	})
}
