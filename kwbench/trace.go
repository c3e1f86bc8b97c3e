package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans from the benchmark's own code around calls into the
// program's layers. Spans stay in memory and are written out when the run
// ends. A nil *tracer records nothing, so untraced runs share the code.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []spanRecord
}

// spanRecord is one completed span: times are offsets from the trace start.
type spanRecord struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"` // 0 for a request's root span
	Req    int64         `json:"req"`    // shared by every span of one request
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s spanRecord) dur() time.Duration { return s.End - s.Start }

type spanKey struct{}

// span is an open span; a nil *span is a no-op.
type span struct {
	t   *tracer
	rec spanRecord
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span named after the layer call it times. The span's parent
// is the span open in ctx; without one it is the root of a new request.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *span) {
	if t == nil {
		return ctx, nil
	}
	s := &span{t: t, rec: spanRecord{ID: t.nextID.Add(1), Name: name}}
	if parent, _ := ctx.Value(spanKey{}).(*span); parent != nil {
		s.rec.Parent, s.rec.Req = parent.rec.ID, parent.rec.Req
	} else {
		s.rec.Req = s.rec.ID
	}
	s.rec.Start = time.Since(t.t0)
	return context.WithValue(ctx, spanKey{}, s), s
}

// remoteParent returns ctx carrying a stand-in for a span opened in another
// goroutine or process, so spans started from ctx become its children.
func remoteParent(ctx context.Context, id, req int64) context.Context {
	return context.WithValue(ctx, spanKey{}, &span{rec: spanRecord{ID: id, Req: req}})
}

// rename renames an open span, for spans classified by their outcome.
func (s *span) rename(name string) {
	if s != nil {
		s.rec.Name = name
	}
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	s.rec.End = time.Since(s.t.t0)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
	return s.rec.dur()
}

// spanSummary is the per-name account of a trace.
type spanSummary struct {
	total, self samples // durations in microseconds
}

// summarize groups the spans by name with each span's total and self time.
// Self time is the span's duration minus the part of its interval that its
// child spans cover (children that overlap each other count once).
func summarize(spans []spanRecord) map[string]*spanSummary {
	children := make(map[int64][]spanRecord)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*spanSummary)
	for _, s := range spans {
		sum := out[s.Name]
		if sum == nil {
			sum = &spanSummary{}
			out[s.Name] = sum
		}
		sum.total.addDur(s.dur(), time.Microsecond)
		sum.self.addDur(s.dur()-covered(s, children[s.ID]), time.Microsecond)
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent spanRecord, kids []spanRecord) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// records returns a copy of the completed spans.
func (t *tracer) records() []spanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRecord(nil), t.spans...)
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.records() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}
