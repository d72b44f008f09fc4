package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one
// operation (a training step, a request, a query) share Op; Parent is
// the span that caused this one (0 = none). Track separates concurrent
// actors (ranks, the load generator) in the trace viewer.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's origin
	ID, Parent int
	Op, Track  int
}

// tracer keeps spans in memory until the run ends. The benchmark
// records spans from its own files, around its calls into each layer;
// a nil tracer is the untraced run and every method is a no-op.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, start, end time.Time, parent, op, track int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.origin), End: end.Sub(t.origin),
		ID: id, Parent: parent, Op: op, Track: track,
	})
	return id
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Track,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
