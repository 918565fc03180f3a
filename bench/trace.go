package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Spans of one operation share Query;
// Parent is the index of the span that caused this one (-1 for a
// root), so a span's self time is its duration minus its children's.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Query  int32  `json:"query"`
}

// recorder keeps spans in memory; nothing is written until the run
// ends. A nil *recorder means spans are off.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records one span and returns its index for use as a parent.
func (r *recorder) add(name string, start, end time.Time, parent, query int32) int32 {
	r.spans = append(r.spans, span{
		Name:   name,
		Start:  start.Sub(r.t0).Nanoseconds(),
		End:    end.Sub(r.t0).Nanoseconds(),
		Parent: parent,
		Query:  query,
	})
	return int32(len(r.spans) - 1)
}

// durations returns the lengths, in nanoseconds, of every span named
// name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// maxSpansWritten caps the trace file: a point workload records half a
// million spans a round, and the first few thousand queries show the
// pattern.
const maxSpansWritten = 20_000

// write dumps the spans (the first maxSpansWritten of them) as JSON.
func (r *recorder) write(path string) error {
	out := struct {
		Recorded int    `json:"spans_recorded"`
		Written  int    `json:"spans_written"`
		Spans    []span `json:"spans"`
	}{Recorded: len(r.spans), Spans: r.spans}
	if len(out.Spans) > maxSpansWritten {
		out.Spans = out.Spans[:maxSpansWritten]
	}
	out.Written = len(out.Spans)
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
