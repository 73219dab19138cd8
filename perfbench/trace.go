package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layers, outermost first. A layer's self time is the time its spans cover
// minus the part of it covered by spans of any later layer.
var layers = []string{"serve", "engine", "core", "graph"}

// span is one timed call into a layer of the program.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span in flight.
type open struct {
	t *tracer
	s span
}

// start begins a span; end it with done. op ties the spans of one operation
// together; parent is the enclosing span's ID (0 for none).
func (t *tracer) start(layer, name string, op, parent int64) *open {
	if t == nil {
		return nil
	}
	return &open{t: t, s: span{ID: t.next.Add(1), Parent: parent, Op: op, Layer: layer, Name: name,
		Start: int64(time.Since(t.t0))}}
}

// id returns the span's ID for children to name as parent (0 when off).
func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// done ends the span.
func (o *open) done() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// selfTimes returns each layer's self time in seconds: the measure of the
// union of its spans minus the part any inner layer's spans cover. With
// concurrent operations this is the wall time during which the layer, and
// nothing below it, had a call in flight.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	byLayer := map[string][]interval{}
	for _, s := range t.spans {
		byLayer[s.Layer] = append(byLayer[s.Layer], interval{s.Start, s.End})
	}
	t.mu.Unlock()
	out := map[string]float64{}
	for i, l := range layers {
		own := union(byLayer[l])
		var inner []interval
		for _, below := range layers[i+1:] {
			inner = append(inner, byLayer[below]...)
		}
		out[l] = float64(measure(own)-measure(intersect(own, union(inner)))) / 1e9
	}
	return out
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type interval struct{ lo, hi int64 }

// union merges intervals into a sorted, disjoint list.
func union(iv []interval) []interval {
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var out []interval
	for _, x := range s {
		if n := len(out); n > 0 && x.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, x.hi)
			continue
		}
		out = append(out, x)
	}
	return out
}

// intersect intersects two sorted, disjoint interval lists.
func intersect(a, b []interval) []interval {
	var out []interval
	for i, j := 0, 0; i < len(a) && j < len(b); {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if lo < hi {
			out = append(out, interval{lo, hi})
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return out
}

func measure(iv []interval) int64 {
	var n int64
	for _, x := range iv {
		n += x.hi - x.lo
	}
	return n
}
