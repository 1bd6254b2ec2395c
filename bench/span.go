package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (nothing inside the program is instrumented). Start and End are
// nanoseconds since the recorder was created. Parent names the span that
// caused this one; spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced state: every method is a no-op, so the same workload code
// runs traced and untraced.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now is the recorder's clock; 0 when untraced.
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.t0))
}

// add records a finished span. Safe for concurrent use; hot single-owner
// loops use a lane instead.
func (r *recorder) add(name string, start, end int64, parent, req string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	r.mu.Unlock()
}

// lane is a span buffer owned by one goroutine, so a client loop records
// without taking the recorder's lock on every operation.
type lane struct {
	r     *recorder
	spans []span
}

func (r *recorder) lane(capacity int) *lane {
	if r == nil {
		return nil
	}
	return &lane{r: r, spans: make([]span, 0, capacity)}
}

func (l *lane) add(name string, start, end int64, parent, req string) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
}

// lanes returns one lane per client goroutine.
func (r *recorder) lanes(clients, capacity int) []*lane {
	out := make([]*lane, clients)
	for g := range out {
		out[g] = r.lane(capacity)
	}
	return out
}

func flushLanes(lanes []*lane) {
	for _, l := range lanes {
		l.flush()
	}
}

// flush hands the lane's spans to the recorder.
func (l *lane) flush() {
	if l == nil {
		return
	}
	l.r.mu.Lock()
	l.r.spans = append(l.r.spans, l.spans...)
	l.r.mu.Unlock()
	l.spans = l.spans[:0]
}

// named returns the recorded spans with the given name.
func (r *recorder) named(name string) []span {
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a layer's own time: the parent span's duration minus the
// part of that interval its children cover. Children may overlap one
// another (parallel member calls) and may stick out of the parent; only
// the union of their intervals inside the parent is subtracted.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	covered := int64(0)
	end := parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return parent.dur() - covered
}

// byReq groups spans by request id.
func byReq(spans []span) map[string][]span {
	out := make(map[string][]span, len(spans))
	for _, s := range spans {
		out[s.Req] = append(out[s.Req], s)
	}
	return out
}

// p50Us is the median duration of spans, in microseconds.
func p50Us(durs []int64) float64 {
	if len(durs) == 0 {
		return 0
	}
	slices.Sort(durs)
	return float64(percentile(durs, 0.5)) / 1e3
}

func durations(spans []span) []int64 {
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur()
	}
	return out
}
