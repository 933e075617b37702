package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// spanRec is one recorded span. Spans of one request or schedule share ID;
// Parent indexes the enclosing span in the recorder (-1 for a root).
type spanRec struct {
	Name   string
	ID     int64
	Parent int
	Lane   int
	Start  time.Duration
	End    time.Duration // -1 while the span is open
}

// tracer keeps spans in memory for the traced run and writes them as a
// Chrome trace when the run ends. A nil *tracer records nothing, so the
// untraced path pays one nil check per call site.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []spanRec
	// dur collects every span's duration by name, also past maxTraceSpans,
	// so per-layer metrics see the whole run even when the file is capped.
	dur map[string]*samples
}

// maxTraceSpans caps the spans kept for the Chrome file: a traced sweep
// records several hundred thousand, and the file is for inspection.
const maxTraceSpans = 400_000

func newTracer() *tracer {
	return &tracer{origin: time.Now(), dur: make(map[string]*samples)}
}

// span is an open span; close records its end.
type span struct {
	t     *tracer
	slot  int // index in t.spans, -1 when past the cap
	name  string
	start time.Duration
}

// root is the parent of spans that have none.
var root = span{slot: -1}

// open starts a span named name for request or schedule id on lane, as a
// child of parent (root for none).
func (t *tracer) open(name string, id int64, lane int, parent span) span {
	if t == nil {
		return root
	}
	sp := span{t: t, slot: -1, name: name, start: time.Since(t.origin)}
	t.mu.Lock()
	if len(t.spans) < maxTraceSpans {
		t.spans = append(t.spans, spanRec{Name: name, ID: id, Parent: parent.slot, Lane: lane, Start: sp.start, End: -1})
		sp.slot = len(t.spans) - 1
	}
	t.mu.Unlock()
	return sp
}

// close ends the span and returns its duration.
func (s span) close() time.Duration {
	if s.t == nil {
		return 0
	}
	stop := time.Since(s.t.origin)
	t := s.t
	t.mu.Lock()
	if s.slot >= 0 {
		t.spans[s.slot].End = stop
	}
	d := t.dur[s.name]
	if d == nil {
		d = &samples{}
		t.dur[s.name] = d
	}
	d.ns = append(d.ns, int64(stop-s.start))
	t.mu.Unlock()
	return stop - s.start
}

// durations returns the sorted durations of every span named name.
func (t *tracer) durations(name string) dist {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	s := t.dur[name]
	t.mu.Unlock()
	if s == nil {
		return nil
	}
	return s.dist()
}

// writeChrome writes the kept spans as Chrome trace-event JSON: complete
// ("X") events, one tid per lane, the shared id and parent span in args.
func (t *tracer) writeChrome(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close trace: %w", cerr)
		}
	}()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	w := bufio.NewWriter(f)
	w.WriteString("{\"traceEvents\":[")
	sep := "\n"
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		b, err := json.Marshal(event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": s.ID, "span": i, "parent": s.Parent},
		})
		if err != nil {
			return fmt.Errorf("encode span: %w", err)
		}
		w.WriteString(sep)
		w.Write(b)
		sep = ",\n"
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
