package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"gpuperf"
	"gpuperf/internal/advise"
	"gpuperf/internal/barra"
	"gpuperf/internal/device"
	"gpuperf/internal/model"
	"gpuperf/internal/timing"
)

// Pipeline is the outside-in version of the facade's request path: it
// calls each layer's public function itself, in the order
// Analyzer.Analyze, Advise and Measure call them, so a span around
// each call times that layer alone. It owns its calibrations, apart
// from any Fleet's.
type Pipeline struct {
	reg   *gpuperf.Registry
	cat   *gpuperf.DeviceCatalog
	procs int

	mu   sync.Mutex
	cals map[string]*timing.Calibration
	seen map[string]map[[3]int]bool
	// Counting gates the counters below, so warm-up calls stay out.
	Counting bool
	// GeoCalls and GeoMisses count GlobalBandwidth calls and those for
	// a geometry this pipeline had not asked for before.
	GeoCalls, GeoMisses int
	// Blocks and Replayed count engine blocks, all and replayed.
	Blocks, Replayed int64
	// WarpInstrs counts the device simulator's warp instructions.
	WarpInstrs int64
}

// NewPipeline builds an uncalibrated pipeline over the library's
// default registry and catalog, with the facade's default engine
// parallelism (GOMAXPROCS).
func NewPipeline() *Pipeline {
	return &Pipeline{
		reg:   gpuperf.DefaultRegistry(),
		cat:   gpuperf.DefaultCatalog(),
		procs: runtime.GOMAXPROCS(0),
		cals:  map[string]*timing.Calibration{},
		seen:  map[string]map[[3]int]bool{},
	}
}

// Calibrate cold-calibrates each device concurrently, one
// "calibration" span per device.
func (p *Pipeline) Calibrate(devs []string, tr *Tracer) error {
	errs := make([]error, len(devs))
	var wg sync.WaitGroup
	for i, d := range devs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg, err := p.cat.Resolve(d)
			if err != nil {
				errs[i] = err
				return
			}
			sp := tr.Root("calibration", -1)
			cal, err := timing.Calibrate(cfg)
			sp.End()
			if err != nil {
				errs[i] = fmt.Errorf("calibrating %s: %w", d, err)
				return
			}
			p.mu.Lock()
			p.cals[d] = cal
			p.seen[d] = map[[3]int]bool{}
			p.mu.Unlock()
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Leg is the pipeline's answer for one device.
type Leg struct {
	Predicted float64
	Measured  float64
	Stats     StatsKey
	// Scenarios are an advise leg's counterfactual times, in rank order.
	Scenarios []float64
}

// PipeOut maps each device a request touched to its leg.
type PipeOut map[string]Leg

// Run executes req outside-in under root. Compare legs run
// concurrently, one per device, as the facade's fan-out does.
func (p *Pipeline) Run(ctx context.Context, req Request, root SpanRef) (PipeOut, error) {
	out := PipeOut{}
	if req.Op != OpCompare {
		leg, err := p.leg(ctx, req, req.Device, root)
		out[req.Device] = leg
		return out, err
	}
	legs := make([]Leg, len(req.Devices))
	errs := make([]error, len(req.Devices))
	var wg sync.WaitGroup
	for i, d := range req.Devices {
		wg.Add(1)
		go func() {
			defer wg.Done()
			legs[i], errs[i] = p.leg(ctx, req, d, root)
		}()
	}
	wg.Wait()
	for i, d := range req.Devices {
		out[d] = legs[i]
	}
	return out, errors.Join(errs...)
}

// leg runs one device's share of req: build, engine, model (its
// global-bandwidth microbenchmark timed apart), then verify or the
// advisor, then the measured run on rebuilt inputs.
func (p *Pipeline) leg(ctx context.Context, req Request, dev string, root SpanRef) (Leg, error) {
	var leg Leg
	cfg, err := p.cat.Resolve(dev)
	if err != nil {
		return leg, err
	}
	params := gpuperf.Params{Size: req.Size, Seed: req.Seed}
	sp := root.Child("build")
	w, err := p.reg.Build(cfg, req.Kernel, params)
	sp.End()
	if err != nil {
		return leg, err
	}
	if req.Op == OpMeasure {
		ms := root.Child("measure")
		leg, err = p.measure(ctx, cfg, w, ms, leg)
		ms.End()
		return leg, err
	}

	sp = root.Child("engine")
	stats, err := barra.RunContext(ctx, cfg, w.Launch, w.Mem, &barra.Options{
		Parallelism:         p.procs,
		Regions:             w.Regions,
		MaxWarpInstructions: w.MaxWarpInstructions,
	})
	sp.End()
	if err != nil {
		return leg, err
	}
	p.count(func() {
		p.Blocks += int64(w.Launch.Grid)
		p.Replayed += stats.Engine.BlocksReplayed
	})
	leg.Stats = summarize(stats)

	p.mu.Lock()
	cal := p.cals[dev]
	p.mu.Unlock()
	if cal == nil {
		return leg, fmt.Errorf("device %s is not calibrated", dev)
	}
	msp := root.Child("model")
	trans := transPerThread(w.Launch, stats)
	if stats.Total.Global.Bytes > 0 {
		gsp := msp.Child("model.global-microbench")
		_, err := cal.GlobalBandwidth(w.Launch.Grid, w.Launch.Block, trans)
		gsp.End()
		if err != nil {
			msp.End()
			return leg, err
		}
		p.countGeometry(dev, [3]int{w.Launch.Grid, w.Launch.Block, trans})
	}
	var est *model.Estimate
	if req.Op == OpAdvise {
		asp := msp.Child("advise")
		rep, err := advise.Run(cal, w.Launch, stats, &advise.Options{Parallelism: p.procs})
		asp.End()
		if err != nil {
			msp.End()
			return leg, err
		}
		est = rep.Baseline
		for _, s := range rep.Scenarios {
			leg.Scenarios = append(leg.Scenarios, s.PredictedSeconds)
		}
	} else {
		est, err = model.Analyze(cal, w.Launch, stats)
	}
	msp.End()
	if err != nil {
		return leg, err
	}
	if est.TransPerThread != trans {
		return leg, fmt.Errorf("model used %d transactions/thread, the pipeline timed %d", est.TransPerThread, trans)
	}
	leg.Predicted = est.TotalSeconds

	// Compare fans out with verification off; Analyze verifies unless
	// told not to; Advise never does.
	if req.Op == OpAnalyze && !req.SkipVerify && w.Verify != nil {
		vsp := root.Child("verify")
		_, err := w.Verify(ctx, w.Mem)
		vsp.End()
		if err != nil {
			return leg, err
		}
	}
	if !req.Measure || req.Op == OpAdvise {
		return leg, nil
	}
	// The functional run consumed the inputs; measure on a rebuild.
	ms := root.Child("measure")
	bsp := ms.Child("measure.build")
	w2, err := p.reg.Build(cfg, req.Kernel, params)
	bsp.End()
	if err != nil {
		ms.End()
		return leg, err
	}
	leg, err = p.measure(ctx, cfg, w2, ms, leg)
	ms.End()
	return leg, err
}

// measure times the device simulator on w under the "measure" span.
func (p *Pipeline) measure(ctx context.Context, cfg gpuperf.Device, w *gpuperf.Workload, ms SpanRef, leg Leg) (Leg, error) {
	dsp := ms.Child("measure.device")
	res, err := device.RunContext(ctx, cfg, w.Launch, w.Mem)
	dsp.End()
	if err != nil {
		return leg, err
	}
	p.count(func() { p.WarpInstrs += res.WarpInstrs })
	leg.Measured = res.Seconds
	return leg, nil
}

func (p *Pipeline) count(f func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.Counting {
		f()
	}
}

func (p *Pipeline) countGeometry(dev string, key [3]int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	miss := !p.seen[dev][key]
	p.seen[dev][key] = true
	if p.Counting {
		p.GeoCalls++
		if miss {
			p.GeoMisses++
		}
	}
}

// transPerThread is the per-thread transaction count model.Analyze
// hands GlobalBandwidth for this launch; leg checks it against the
// estimate's own TransPerThread.
func transPerThread(l barra.Launch, stats *barra.Stats) int {
	accesses := stats.Total.GlobalUsefulBytes / 4
	trans := int(accesses) / (l.Grid * l.Block)
	if trans < 1 && accesses > 0 {
		trans = 1
	}
	return trans
}

// StatsKey is the scalar part of Result.Stats, comparable with ==.
type StatsKey struct {
	WarpInstrs, FMADs, SharedAccesses, SharedTx, SharedBytes int64
	GlobalTransactions, GlobalBytes, GlobalUsefulBytes       int64
	Barriers                                                 int
}

// summarize condenses stats the way Result.Stats does.
func summarize(s *barra.Stats) StatsKey {
	return StatsKey{
		WarpInstrs:         s.Total.WarpInstrs,
		FMADs:              s.Total.FMADs,
		SharedAccesses:     s.Total.SharedAccesses,
		SharedTx:           s.Total.SharedTx,
		SharedBytes:        s.Total.SharedBytes,
		GlobalTransactions: s.Total.Global.Transactions,
		GlobalBytes:        s.Total.Global.Bytes,
		GlobalUsefulBytes:  s.Total.GlobalUsefulBytes,
		Barriers:           s.Barriers,
	}
}

// statsKey extracts a Result's StatsKey.
func statsKey(s gpuperf.StatsSummary) StatsKey {
	return StatsKey{
		WarpInstrs:         s.WarpInstrs,
		FMADs:              s.FMADs,
		SharedAccesses:     s.SharedAccesses,
		SharedTx:           s.SharedTx,
		SharedBytes:        s.SharedBytes,
		GlobalTransactions: s.GlobalTransactions,
		GlobalBytes:        s.GlobalBytes,
		GlobalUsefulBytes:  s.GlobalUsefulBytes,
		Barriers:           s.Barriers,
	}
}

// Agree checks the pipeline's answer against the facade's for the same
// request: predicted and measured seconds and the statistics summary
// must be equal, bit for bit.
func Agree(req Request, pipe PipeOut, o Output) error {
	switch req.Op {
	case OpAnalyze:
		r, leg := o.Result, pipe[req.Device]
		if leg.Predicted != r.PredictedSeconds || leg.Measured != r.MeasuredSeconds || leg.Stats != statsKey(r.Stats) {
			return fmt.Errorf("pipeline predicted %v s / measured %v s, facade %v s / %v s (stats equal: %v)",
				leg.Predicted, leg.Measured, r.PredictedSeconds, r.MeasuredSeconds, leg.Stats == statsKey(r.Stats))
		}
	case OpAdvise:
		a, leg := o.Advice, pipe[req.Device]
		if leg.Predicted != a.BaselineSeconds || len(leg.Scenarios) != len(a.Scenarios) {
			return fmt.Errorf("pipeline baseline %v s, facade %v s", leg.Predicted, a.BaselineSeconds)
		}
		for i, s := range a.Scenarios {
			if leg.Scenarios[i] != s.PredictedSeconds {
				return fmt.Errorf("scenario %s: pipeline %v s, facade %v s", s.Scenario, leg.Scenarios[i], s.PredictedSeconds)
			}
		}
	case OpCompare:
		for _, e := range o.Comparison.Entries {
			leg := pipe[e.Device]
			if leg.Predicted != e.PredictedSeconds || leg.Measured != e.MeasuredSeconds {
				return fmt.Errorf("%s: pipeline %v s / %v s, facade %v s / %v s",
					e.Device, leg.Predicted, leg.Measured, e.PredictedSeconds, e.MeasuredSeconds)
			}
		}
	case OpMeasure:
		if leg := pipe[req.Device]; leg.Measured != o.Measurement.Seconds {
			return fmt.Errorf("pipeline measured %v s, facade %v s", leg.Measured, o.Measurement.Seconds)
		}
	}
	return nil
}
