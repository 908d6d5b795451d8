package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one harness-side interval around a call into a layer.
type span struct {
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Parent int // index into tracer.spans, -1 at the root
	Run    string
}

// tracer records spans in memory and writes them out at exit. A nil tracer
// is the untraced run: begin and end are then a nil compare each.
type tracer struct {
	epoch time.Time
	run   string
	spans []span
	open  []int
}

func newTracer(run string) *tracer {
	return &tracer{epoch: time.Now(), run: run}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: parent, Run: t.run})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes sums each span name's duration minus the part its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	out := make(map[string]time.Duration)
	if t == nil {
		return out
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		out[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing, Perfetto).
func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, 0, len(t.spans))
	for i, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.Parent, "run": s.Run},
		})
	}
	b, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
