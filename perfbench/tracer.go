package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, made from this benchmark's own
// code. Parent indexes the enclosing span (-1 for a request's root);
// every span of one request (a tester run, a campaign seed, an explored
// seed, a bug-hunt round) carries that request's id.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin returns -1 and end ignores it, so call sites need
// no branches.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// durations returns every span's duration in ms, grouped by name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// layerTime is one span name's aggregate: calls, total and self time.
type layerTime struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
}

// selfTimes computes each span name's self time: its spans' durations
// minus the parts of those intervals their child spans cover. Children
// of one parent never overlap (the benchmark is single-threaded), so
// subtracting their durations is exact.
func (t *tracer) selfTimes() []layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	agg := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := agg[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			agg[s.Name] = lt
		}
		lt.Calls++
		lt.TotalMs += float64(s.End-s.Start) / 1e6
		lt.SelfMs += float64(s.End-s.Start-child[i]) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// writeSpans writes the spans as JSON lines, preceded by one header
// line describing the run.
func (t *tracer) writeSpans(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(header)
	for i := 0; err == nil && i < len(t.spans); i++ {
		err = enc.Encode(&t.spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
