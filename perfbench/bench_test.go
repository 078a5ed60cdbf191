package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"strconv"
	"testing"
	"time"

	"gpuperf"
)

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, math.Inf(1), 6, 7, 8, 9}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := Quantile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := Quantile(xs, 1); !math.IsInf(got, 1) {
		t.Errorf("p100 = %v, want +Inf (a failed request)", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Request: 0, Name: "request", Start: 0, End: 10},
		{ID: 1, Parent: 0, Request: 0, Name: "engine", Start: 1, End: 4},
		// Two concurrent children overlapping in [5, 6].
		{ID: 2, Parent: 0, Request: 0, Name: "model", Start: 4, End: 6},
		{ID: 3, Parent: 0, Request: 0, Name: "model", Start: 5, End: 8},
		{ID: 4, Parent: 3, Request: 0, Name: "model.global-microbench", Start: 5, End: 7},
		{ID: 5, Parent: -1, Request: -1, Name: "calibration", Start: 0, End: 2},
	}
	self := SelfTimes(spans)
	want := []float64{3, 3, 2, 1, 2, 2}
	for i := range want {
		if math.Abs(self[i]-want[i]) > 1e-12 {
			t.Errorf("span %d self = %v, want %v", i, self[i], want[i])
		}
	}
	if got := Covered(spans)[0]; got != 7 {
		t.Errorf("covered = %v, want 7", got)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *Tracer
	sp := tr.Root("request", 0)
	sp.Child("engine").End()
	sp.End()
	if sp != (SpanRef{}) {
		t.Fatal("nil tracer opened a span")
	}
	live := NewTracer()
	root := live.Root("request", 3)
	root.Child("build").End()
	root.End()
	spans := live.Spans()
	if len(spans) != 2 || spans[1].Parent != 0 || spans[1].Request != 3 {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestPredictRequests(t *testing.T) {
	a, b := PredictRequests(7, 3), PredictRequests(7, 3)
	if len(a) != 3*22 {
		t.Fatalf("%d requests, want 66", len(a))
	}
	seeds := map[int64]bool{}
	ops := map[Op]int{}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("request %d differs for one seed: %s vs %s", i, a[i], b[i])
		}
		if seeds[a[i].Seed] {
			t.Fatalf("input seed %d repeats", a[i].Seed)
		}
		seeds[a[i].Seed] = true
		ops[a[i].Op]++
	}
	if ops[OpAnalyze] != 48 || ops[OpAdvise] != 18 {
		t.Errorf("mix %v, want 48 analyze and 18 advise", ops)
	}
	for _, w := range PredictWarmup(7) {
		if seeds[w.Seed] {
			t.Fatalf("warm-up seed %d collides with a timed request", w.Seed)
		}
	}
	if PredictRequests(8, 1)[0].Seed == a[0].Seed {
		t.Error("different workload seeds share input seeds")
	}
}

func TestValidateRequestsUseEachTupleOnce(t *testing.T) {
	reqs := ValidateRequests(3)
	if len(reqs) < 320 {
		t.Fatalf("only %d validate requests", len(reqs))
	}
	used := map[string]bool{}
	ops := map[Op]int{}
	for _, r := range reqs {
		ops[r.Op]++
		devs := []string{r.Device}
		if r.Op == OpCompare {
			devs = r.Devices
		}
		for _, d := range devs {
			key := r.Kernel + "/" + strconv.Itoa(r.Size) + "/" + d
			if used[key] {
				t.Fatalf("tuple %s used twice", key)
			}
			used[key] = true
		}
		if r.Op != OpMeasure && !r.Measure {
			t.Fatalf("%s is not measured", r)
		}
	}
	if ops[OpAnalyze] != 2*ops[OpCompare] || ops[OpCompare] != ops[OpMeasure] {
		t.Errorf("mix %v, want analyze:compare:measure = 2:1:1", ops)
	}
}

func TestHotSequence(t *testing.T) {
	tuples := HotTuples(5)
	if len(tuples) != 32 {
		t.Fatalf("%d hot tuples, want 32", len(tuples))
	}
	seq := NewHotSequence(5, tuples)
	visits := map[int]int{}
	revalidations := 0
	for i := 0; i < 2*len(tuples); i++ {
		r := seq.At(i)
		visits[r.Tuple]++
		if r.Revalidate {
			revalidations++
		}
	}
	if len(visits) != len(tuples) || revalidations != len(tuples) {
		t.Errorf("%d tuples visited, %d of %d revalidating", len(visits), revalidations, 2*len(tuples))
	}
}

func TestClosedLoop(t *testing.T) {
	boom := errors.New("boom")
	res := ClosedLoop(context.Background(), 2, 10, 0, 50*time.Millisecond, 0, func(ctx context.Context, i int) error {
		switch i {
		case 3:
			return boom
		case 5:
			time.Sleep(60 * time.Millisecond) // overruns its deadline
		}
		return nil
	})
	if len(res.Samples) != 10 || res.Failed() != 2 {
		t.Fatalf("%d samples, %d failed; want 10 and 2", len(res.Samples), res.Failed())
	}
	if !errors.Is(res.FirstError(), boom) {
		t.Errorf("first error %v, want boom", res.FirstError())
	}
	if got := res.Percentile(0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 = %v, want +Inf with 20%% failed", got)
	}
}

func TestWindowRatesSplitStraddlingRequests(t *testing.T) {
	res := LoopResult{
		Window:    time.Second,
		WindowCPU: []time.Duration{0, time.Second, 3 * time.Second},
		Samples: []Sample{
			{Latency: time.Second, End: 1500 * time.Millisecond},            // half in each window
			{Latency: 100 * time.Millisecond, End: 200 * time.Millisecond},  // window 0
			{Latency: 100 * time.Millisecond, End: 2500 * time.Millisecond}, // after the last full window
			{Latency: 100 * time.Millisecond, End: 300 * time.Millisecond, Err: errors.New("failed")},
		},
	}
	rps, cpu := res.WindowRates()
	want := [][2]float64{{1.5, 1 / 1.5}, {0.5, 4}}
	if len(rps) != 2 {
		t.Fatalf("%d windows, want 2", len(rps))
	}
	for k, w := range want {
		if math.Abs(rps[k]-w[0]) > 1e-9 || math.Abs(cpu[k]-w[1]) > 1e-9 {
			t.Errorf("window %d: %v req/s, %v s/req; want %v, %v", k, rps[k], cpu[k], w[0], w[1])
		}
	}
}

func TestOutcomeHasEveryMetric(t *testing.T) {
	o := NewOutcome(EndToEnd, map[string]float64{"latency_p90_s": math.Inf(1)}, 3, 1, false)
	if len(o.Metrics) != len(EndToEnd) {
		t.Fatalf("%d metrics, want %d", len(o.Metrics), len(EndToEnd))
	}
	if o.Metrics["latency_p90_s"].Value != math.MaxFloat64 {
		t.Errorf("infinite latency printed as %v", o.Metrics["latency_p90_s"].Value)
	}
}

func TestDigestCoversPrefixInOrder(t *testing.T) {
	out := func(s float64) Output { return Output{Measurement: &gpuperf.Measurement{Seconds: s}} }
	a, b := NewDigest(2), NewDigest(2)
	a.Record(0, out(1))
	if _, complete := a.Sum(); complete {
		t.Fatal("digest complete with a slot missing")
	}
	a.Record(1, out(2))
	a.Record(5, out(9)) // outside the prefix
	b.Record(1, out(2))
	b.Record(0, out(1))
	sa, ca := a.Sum()
	sb, _ := b.Sum()
	if !ca || sa != sb {
		t.Errorf("digests %s (complete %v) and %s differ", sa, ca, sb)
	}
}

func TestCanonicalDropsTiming(t *testing.T) {
	r := &gpuperf.Result{Kernel: "cr", PredictedSeconds: 1}
	r.Diagnostics.PhaseSeconds = map[string]float64{"engine": 0.5}
	r.Diagnostics.BlocksReplayed = 7
	a, err := Output{Result: r}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Output{Result: &gpuperf.Result{Kernel: "cr", PredictedSeconds: 1}}.Canonical()
	if !bytes.Equal(a, b) {
		t.Errorf("canonical forms differ:\n%s\n%s", a, b)
	}
	if r.Diagnostics.PhaseSeconds == nil {
		t.Error("Canonical modified its input")
	}
}

func TestCheckRejectsMissingVerification(t *testing.T) {
	req := Request{Op: OpAnalyze, Kernel: "cr", Size: 8, Seed: 1, Device: "gtx285"}
	res := &gpuperf.Result{Kernel: "cr", Size: 8, Seed: 1, Device: "gtx285", PredictedSeconds: 1}
	all := func(string) bool { return true }
	if err := Check(req, Output{Result: res}, all); err == nil {
		t.Error("accepted an analysis without its CPU-reference check")
	}
	worst := 0.0
	res.MaxAbsError = &worst
	if err := Check(req, Output{Result: res}, all); err != nil {
		t.Errorf("rejected a verified analysis: %v", err)
	}
}

func TestRefusesMoreClientsThanNproc(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"--clients", strconv.Itoa(runtime.NumCPU() + 1)}, &stdout, &stderr)
	if code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d with output %q; want a refusal and no result", code, stdout.String())
	}
}
