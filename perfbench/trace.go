package main

// The traced run's span recorder. Spans are taken in this benchmark's
// own code around each call into a layer's public functions; nothing
// inside the program is instrumented. They stay in memory and are
// written out once, when the run ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed layer call. Every span of one op shares Op; Parent
// is the ID of the span that caused it (0 for an op's root).
type span struct {
	Op     int                `json:"op"`
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records spans; its methods may be called from several
// goroutines (serve_mix traces from both client connections).
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// beginOp opens a new op's root span and returns its ID.
func (t *tracer) beginOp(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	return t.push(t.op, 0, name, time.Now())
}

// start opens a child span of parent and returns its ID.
func (t *tracer) start(parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.push(t.spans[parent-1].Op, parent, name, time.Now())
}

func (t *tracer) push(op, parent int, name string, start time.Time) int {
	t.spans = append(t.spans, span{
		Op: op, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = int64(now.Sub(t.epoch))
}

// add records a finished span timed by the caller: a child of parent,
// or the root of a new op when parent is 0.
func (t *tracer) add(parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	op := 0
	if parent == 0 {
		t.op++
		op = t.op
	} else {
		op = t.spans[parent-1].Op
	}
	id := t.push(op, parent, name, start)
	t.spans[id-1].End = int64(end.Sub(t.epoch))
	return id
}

// durMS returns a finished span's duration in milliseconds.
func (t *tracer) durMS(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].ms()
}

// attr annotates a span with a number the call returned.
func (t *tracer) attr(id int, key string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// selfMS returns, for every span, its duration minus the part of its
// interval that its child spans cover, in milliseconds.
func (t *tracer) selfMS() []float64 {
	children := map[int][]*span{}
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			children[p] = append(children[p], &t.spans[i])
		}
	}
	self := make([]float64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = float64(s.End-s.Start-covered) / 1e6
	}
	return self
}

// byName collects per-span values (self times, or an attribute when
// attr is non-empty) of every span with the given name.
func (t *tracer) byName(name, attr string) []float64 {
	var self []float64
	if attr == "" {
		self = t.selfMS()
	}
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != name {
			continue
		}
		if attr == "" {
			out = append(out, self[i])
		} else if v, ok := s.Attrs[attr]; ok {
			out = append(out, v)
		}
	}
	return out
}

// write dumps the spans with the host stamp as one JSON document.
func (t *tracer) write(path string, h host) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Host  host   `json:"host"`
		Spans []span `json:"spans"`
	}{h, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
