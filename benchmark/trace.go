package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the driver made into a layer (or one wrapped
// LogEpoch the layer made back into the driver). Times are nanoseconds
// since the tracer started.
type span struct {
	Name   string
	Start  int64
	End    int64
	ID     uint64
	Parent uint64 // 0 = root
	Req    uint64 // request id shared by the spans of one request; 0 = none
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: begin returns a handle whose end does nothing, so call
// sites need no branches.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span.
type openSpan struct {
	t *tracer
	s span
}

func (t *tracer) begin(name string, parent, req uint64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, s: span{
		Name: name, Start: int64(time.Since(t.t0)), ID: t.nextID.Add(1), Parent: parent, Req: req,
	}}
}

func (o openSpan) id() uint64 { return o.s.ID }

func (o openSpan) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON: one complete
// ("X") event per span, one lane (tid) per layer — the part of the span
// name before the first dot — and the self-time totals under otherData.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })

	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]uint64 `json:"args,omitempty"`
	}
	type meta struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	lanes := map[string]int{}
	var events []any
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		tid, ok := lanes[layer]
		if !ok {
			tid = len(lanes) + 1
			lanes[layer] = tid
			events = append(events, meta{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]string{"name": layer}})
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: tid,
			Args: map[string]uint64{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	self := map[string]float64{}
	for name, d := range selfTimes(spans) {
		self[name] = float64(d) / 1e3
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
		"otherData":       map[string]any{"self_time_us": self},
	})
}
