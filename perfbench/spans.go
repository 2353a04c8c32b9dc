package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of that layer's package. Spans of one cell (one
// simulated configuration, one HTTP request, one fleet run) share Cell;
// Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	Cell   int    `json:"cell"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	cells int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// cell allocates a new cell ID.
func (r *recorder) cell() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cells++
	return r.cells
}

// start opens a span and returns its ID.
func (r *recorder) start(cell, parent int, layer, name string) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Cell: cell, ID: len(r.spans) + 1, Parent: parent,
		Layer: layer, Name: name, Start: now})
	return len(r.spans)
}

// finish closes span id and returns its duration in nanoseconds.
func (r *recorder) finish(id int) int64 {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return s.dur()
}

// relabel moves a span to another layer once its call has revealed
// what it did (the iteration in which Capuchin builds its plan).
func (r *recorder) relabel(id int, layer, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].Layer, r.spans[id-1].Name = layer, name
}

// selfTime returns each layer's self time in nanoseconds: the duration
// of its spans minus the part covered by their direct children.
func (r *recorder) selfTime() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := make(map[string]int64)
	for _, s := range r.spans {
		self[s.Layer] += s.dur() - child[s.ID]
	}
	return self
}

// writeSelfTime prints the per-layer self time, largest first.
func (r *recorder) writeSelfTime(w io.Writer) {
	self := r.selfTime()
	var total int64
	layers := make([]string, 0, len(self))
	for l, ns := range self {
		layers = append(layers, l)
		total += ns
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(self[l]) / float64(total)
		}
		fmt.Fprintf(w, "# self-time %-7s %10.1f ms %5.1f%%\n", l, msOf(self[l]), share)
	}
}

// writeJSONL writes a header line and then every span, one JSON object
// per line.
func (r *recorder) writeJSONL(w io.Writer, header any) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
