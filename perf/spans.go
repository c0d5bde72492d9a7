package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary: a rep, a construction, a
// Run, a scheduler job or a replay. Times are seconds since the recorder's
// origin; Parent is the ID of the span that caused it (0 for a root).
type span struct {
	Name   string  `json:"name"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

// spanRecorder keeps spans in memory; they are written out when the run
// ends. Safe for concurrent use (scheduler jobs run on their own
// goroutines).
type spanRecorder struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{origin: time.Now()} }

// begin opens a span and returns its ID. A nil recorder records nothing:
// that is how the untraced pass runs the same code with tracing off.
func (r *spanRecorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	now := time.Since(r.origin).Seconds()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: now})
	return id
}

// end closes span id.
func (r *spanRecorder) end(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = time.Since(r.origin).Seconds()
}

// list returns a copy of the recorded spans.
func (r *spanRecorder) list() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// withSelfTimes fills each span's Self: its duration minus the part of its
// interval that its children cover (overlapping children counted once).
func withSelfTimes(spans []span) []span {
	out := append([]span(nil), spans...)
	children := map[int][]span{}
	for _, s := range out {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range out {
		kids := children[out[i].ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, out[i].Start
		for _, k := range kids {
			start, end := max(k.Start, reach), min(k.End, out[i].End)
			if end > start {
				covered += end - start
				reach = end
			}
		}
		out[i].Self = out[i].End - out[i].Start - covered
	}
	return out
}

// rebase shifts spans recorded in another process onto this recorder's
// clock, offset seconds after its origin, renumbering IDs after the spans
// already recorded and hanging the imported roots under parent.
func (r *spanRecorder) rebase(spans []span, offset float64, parent int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		s.Start += offset
		s.End += offset
		r.spans = append(r.spans, s)
	}
}
