package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trace is one request's span collection plus string annotations
// (kernel, device, cache status...). Spans record wall-clock phases;
// the tree is rendered only for slow requests, so the steady-state
// cost is a few appends under a mutex.
type Trace struct {
	id    string
	start time.Time

	mu    sync.Mutex
	spans []*Span
	attrs map[string]string
}

// Span is one named phase inside a trace. A Span started without a
// trace in the context is detached: it still times its phase (so
// Diagnostics phase breakdowns work for bare library calls) but
// appears in no tree.
type Span struct {
	name   string
	parent *Span

	mu    sync.Mutex
	start time.Time
	end   time.Time
}

// NewTrace starts an empty trace with the given request id.
func NewTrace(id string) *Trace {
	return &Trace{id: id, start: time.Now(), attrs: make(map[string]string)}
}

// ID returns the request id the trace was created with.
func (t *Trace) ID() string { return t.id }

// Start returns the trace creation time.
func (t *Trace) Start() time.Time { return t.start }

// Annotate attaches a key=value attribute (last write wins).
func (t *Trace) Annotate(key, value string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.attrs[key] = value
	t.mu.Unlock()
}

// Attr returns the annotation for key, or "".
func (t *Trace) Attr(key string) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attrs[key]
}

type traceKey struct{}
type spanKey struct{}

// WithTrace installs tr in the context.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// StartSpan opens a span named name. If the context carries a trace
// the span joins its tree (nested under the context's current span)
// and the returned context carries it as the new current span;
// otherwise the span is detached and the context is returned as-is.
// Callers must End the span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	sp := &Span{name: name, start: time.Now()}
	tr := TraceFrom(ctx)
	if tr == nil {
		return ctx, sp
	}
	sp.parent, _ = ctx.Value(spanKey{}).(*Span)
	tr.mu.Lock()
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// End closes the span. Ending twice keeps the first end time.
func (s *Span) End() {
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Name returns the span's phase name.
func (s *Span) Name() string { return s.name }

// Duration returns end-start, or time-since-start for an open span.
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

func (s *Span) ended() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end, !s.end.IsZero()
}

// Orphans lists span names that never ended, or that ended after
// their parent — both indicate a phase boundary bug.
func (t *Trace) Orphans() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	var out []string
	for _, sp := range spans {
		end, ok := sp.ended()
		if !ok {
			out = append(out, sp.name)
			continue
		}
		if sp.parent != nil {
			if pend, pok := sp.parent.ended(); pok && end.After(pend) {
				out = append(out, sp.name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Tree renders the span forest with one indented line per span, in
// start order — the payload of a slow-request log entry.
func (t *Trace) Tree() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	attrs := make(map[string]string, len(t.attrs))
	for k, v := range t.attrs {
		attrs[k] = v
	}
	t.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "trace %s", t.id)
	if len(attrs) > 0 {
		keys := make([]string, 0, len(attrs))
		for k := range attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, attrs[k])
		}
	}
	b.WriteByte('\n')

	depth := func(sp *Span) int {
		d := 0
		for p := sp.parent; p != nil; p = p.parent {
			d++
		}
		return d
	}
	for _, sp := range spans {
		b.WriteString(strings.Repeat("  ", depth(sp)+1))
		b.WriteString(sp.name)
		b.WriteByte(' ')
		b.WriteString(sp.Duration().Round(time.Microsecond).String())
		if _, ok := sp.ended(); !ok {
			b.WriteString(" [unfinished]")
		}
		b.WriteByte('\n')
	}
	return strings.TrimRight(b.String(), "\n")
}

// NewRequestID returns a 16-hex-char random id for X-Request-ID.
func NewRequestID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// crypto/rand never fails on supported platforms; a fixed
		// fallback keeps the middleware total rather than crashing.
		return "0000000000000000"
	}
	return hex.EncodeToString(buf[:])
}
