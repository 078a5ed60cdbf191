package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Request is -1 for run-level
// spans such as calibration; Parent is -1 for roots.
type Span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Request int     `json:"request"`
	Name    string  `json:"name"`
	Start   float64 `json:"start_s"`
	End     float64 `json:"end_s"`
}

// Dur is the span's duration in seconds.
func (s Span) Dur() float64 { return s.End - s.Start }

// Tracer holds spans in memory until the run ends. A nil *Tracer
// records nothing, so the same code runs traced and untraced.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewTracer starts a tracer whose span times count from now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// SpanRef is an open span; its zero value (from a nil tracer) is a
// no-op.
type SpanRef struct {
	t   *Tracer
	id  int
	req int
}

// Root opens a span with no parent for request req.
func (t *Tracer) Root(name string, req int) SpanRef { return t.open(name, -1, req) }

func (t *Tracer) open(name string, parent, req int) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Request: req, Name: name, Start: now, End: now})
	return SpanRef{t: t, id: id, req: req}
}

// Child opens a span under s.
func (s SpanRef) Child(name string) SpanRef { return s.t.open(name, s.id, s.req) }

// End closes the span.
func (s SpanRef) End() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.t0).Seconds()
	s.t.mu.Lock()
	s.t.spans[s.id].End = now
	s.t.mu.Unlock()
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
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

// interval is a closed time range in seconds.
type interval struct{ lo, hi float64 }

// unionLength returns the total length covered by ivs.
func unionLength(ivs []interval) float64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	total, cur := 0.0, s[0]
	for _, iv := range s[1:] {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
		} else if iv.hi > cur.hi {
			cur.hi = iv.hi
		}
	}
	return total + cur.hi - cur.lo
}

// SelfTimes returns each span's self time: its duration minus the part
// of it its children cover (children of one span may overlap when they
// ran concurrently, so the covered part is their union).
func SelfTimes(spans []Span) []float64 {
	kids := make([][]interval, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.Dur() - unionLength(kids[i])
	}
	return self
}

// Covered returns, per request, the time its root's descendants cover:
// the part of the request some layer span accounts for.
func Covered(spans []Span) map[int]float64 {
	byReq := map[int][]interval{}
	for _, s := range spans {
		if s.Request >= 0 && s.Parent >= 0 {
			byReq[s.Request] = append(byReq[s.Request], interval{s.Start, s.End})
		}
	}
	out := map[int]float64{}
	for r, ivs := range byReq {
		out[r] = unionLength(ivs)
	}
	return out
}
