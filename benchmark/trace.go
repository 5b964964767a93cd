package main

import (
	"encoding/json"
	"os"
	"sync"
)

// span is one timed interval recorded by the harness around a call into a
// layer: a Client call, a delivery receipt, or a probe's timed loop. Times
// are nanoseconds on the run's monotonic clock; Parent is 0 for a root.
// Spans of one published event share its Event ID.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Event  string `json:"event,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the plain run pays one nil check per site.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span whose end is not yet known and returns its ID.
func (t *tracer) begin(parent int32, name, ev string, start int64) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Event: ev, Start: start, End: start})
	return id
}

func (t *tracer) end(id int32, end int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(parent int32, name, ev string, start, end int64) int32 {
	id := t.begin(parent, name, ev, start)
	t.end(id, end)
	return id
}

// traceFile is the on-disk form: the run's facts plus every span.
type traceFile struct {
	Machine machineFacts `json:"machine"`
	Run     runFacts     `json:"run"`
	Spans   []span       `json:"spans"`
}

func (t *tracer) write(path string, m machineFacts, r runFacts) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(traceFile{Machine: m, Run: r, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
