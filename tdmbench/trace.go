package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Times are seconds since the
// tracer started; Parent 0 marks a root span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Run    string  `json:"run"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer records spans in memory; they are written out when the run ends.
// It is safe for concurrent use. A nil tracer records nothing.
type tracer struct {
	run   string
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span under parent and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: t.run, Start: now, End: now})
	return id
}

// end closes a span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	// Self is Total minus the part of each span's interval that its child
	// spans cover (children may overlap: concurrent executions).
	Self float64 `json:"self_s"`
}

// layers returns the total and self time of every span name.
func (t *tracer) layers() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[string]layerTime{}
	for _, s := range t.spans {
		dur := s.End - s.Start
		lt := out[s.Name]
		lt.Count++
		lt.Total += dur
		lt.Self += dur - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else {
			curHi = max(curHi, x[1])
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}
