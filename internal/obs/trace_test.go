package obs

import (
	"context"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestSpanTreeNesting(t *testing.T) {
	tr := NewTrace("req1")
	tr.Annotate("kernel", "matmul16")
	ctx := WithTrace(context.Background(), tr)

	ctx1, outer := StartSpan(ctx, "compute")
	ctx2, mid := StartSpan(ctx1, "engine")
	_, inner := StartSpan(ctx2, "warp-step")
	inner.End()
	mid.End()
	_, sib := StartSpan(ctx1, "verify")
	sib.End()
	outer.End()

	if mid.parent != outer || inner.parent != mid || sib.parent != outer {
		t.Fatal("span parents not wired through context")
	}
	tree := tr.Tree()
	lines := strings.Split(tree, "\n")
	if len(lines) != 5 {
		t.Fatalf("tree has %d lines, want 5:\n%s", len(lines), tree)
	}
	if !strings.Contains(lines[0], "req1") || !strings.Contains(lines[0], "kernel=matmul16") {
		t.Errorf("header missing id/annotation: %q", lines[0])
	}
	// Indentation encodes depth: compute at 2, engine/verify at 4,
	// warp-step at 6.
	for i, wantIndent := range map[int]string{1: "  compute", 2: "    engine", 3: "      warp-step", 4: "    verify"} {
		if !strings.HasPrefix(lines[i], wantIndent) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], wantIndent)
		}
	}
	if len(tr.Orphans()) != 0 {
		t.Errorf("clean trace reported orphans: %v", tr.Orphans())
	}
}

func TestOrphanDetection(t *testing.T) {
	tr := NewTrace("req3")
	ctx := WithTrace(context.Background(), tr)
	ctx1, parent := StartSpan(ctx, "compute")
	_, late := StartSpan(ctx1, "verify")
	parent.End()
	late.End() // ends after its parent
	_, never := StartSpan(ctx, "leak")
	_ = never // never ended

	got := tr.Orphans()
	if len(got) != 2 || got[0] != "leak" || got[1] != "verify" {
		t.Errorf("Orphans = %v, want [leak verify]", got)
	}
	if !strings.Contains(tr.Tree(), "leak") || !strings.Contains(tr.Tree(), "[unfinished]") {
		t.Errorf("tree should flag the unfinished span:\n%s", tr.Tree())
	}
}

func TestDetachedSpan(t *testing.T) {
	// No trace in context: the span still times, joins nothing.
	ctx, sp := StartSpan(context.Background(), "solo")
	if TraceFrom(ctx) != nil {
		t.Fatal("detached span invented a trace")
	}
	time.Sleep(time.Millisecond)
	sp.End()
	if sp.Duration() < time.Millisecond {
		t.Errorf("detached span duration %v, want >= 1ms", sp.Duration())
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	_, sp := StartSpan(context.Background(), "x")
	sp.End()
	d := sp.Duration()
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if sp.Duration() != d {
		t.Error("second End moved the end time")
	}
}

func TestNewRequestID(t *testing.T) {
	re := regexp.MustCompile(`^[0-9a-f]{16}$`)
	a, b := NewRequestID(), NewRequestID()
	if !re.MatchString(a) || !re.MatchString(b) {
		t.Errorf("malformed ids: %q %q", a, b)
	}
	if a == b {
		t.Error("two request ids collided")
	}
}
