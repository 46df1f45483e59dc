package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer: its stage name, the span that
// caused it (-1 for a root), and its interval relative to the tracer's
// start.
type Span struct {
	Name       string
	Parent     int
	Start, End time.Duration
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced run: every method is a no-op, so the measured code path
// differs from the traced one only by these calls.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts a tracer whose clock begins now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span under parent (-1 for a root) and returns its id.
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// End closes the span.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Do runs f inside a span named name under parent.
func (t *Tracer) Do(name string, parent int, f func() error) error {
	id := t.Begin(name, parent)
	err := f()
	t.End(id)
	return err
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children's intervals covers.
// Overlapping children (concurrent calls under one parent) count once.
func SelfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := make([][2]time.Duration, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		self[i] = s.End - s.Start - unionLength(iv)
	}
	return self
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// StageSeconds sums the self time of every non-root span by name.
func StageSeconds(spans []Span) map[string]float64 {
	self := SelfTimes(spans)
	out := map[string]float64{}
	for i, s := range spans {
		if s.Parent >= 0 {
			out[s.Name] += self[i].Seconds()
		}
	}
	return out
}

// Coverage is the share of the root spans' wall-clock that named stage
// spans account for: Σ non-root self time / Σ root duration. Stage
// calls made back to back under one root give a value just below 1;
// the gap is time spent between calls, outside every layer.
func Coverage(spans []Span) float64 {
	self := SelfTimes(spans)
	var staged, wall time.Duration
	for i, s := range spans {
		if s.Parent < 0 {
			wall += s.End - s.Start
		} else {
			staged += self[i]
		}
	}
	if wall <= 0 {
		return 0
	}
	return staged.Seconds() / wall.Seconds()
}
