package gpuperf

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"gpuperf/internal/advise"
	"gpuperf/internal/barra"
	"gpuperf/internal/device"
	"gpuperf/internal/model"
	"gpuperf/internal/obs"
	"gpuperf/internal/timing"
)

// Request asks for one kernel analysis.
type Request struct {
	// Kernel names a registry entry (GET /v1/kernels lists them).
	Kernel string `json:"kernel"`
	// Device names a catalog entry (GET /v1/devices lists them) and is
	// resolved by the Fleet that routes the request; empty means the
	// fleet's default device.
	Device string `json:"device,omitempty"`
	// Size is the kernel-specific problem size (0 = kernel default).
	Size int `json:"size,omitempty"`
	// Seed drives deterministic input generation (0 = seed 1):
	// identical requests build identical inputs, under any
	// concurrency.
	Seed int64 `json:"seed,omitempty"`
	// Parallelism overrides the session's worker count when > 0,
	// capped by FleetOptions.Parallelism when the operator set one and
	// by the host's core count otherwise.
	Parallelism int `json:"parallelism,omitempty"`
	// Measure additionally runs the device (timing) simulator on a
	// fresh copy of the inputs and reports measured vs predicted.
	Measure bool `json:"measure,omitempty"`
	// SkipVerify skips the CPU-reference check of the functional
	// output. The reference computation is single-threaded host code
	// (O(n³) for matmul), so large requests that only need the model
	// verdict can opt out of paying for it.
	SkipVerify bool `json:"skip_verify,omitempty"`
	// NoReplay forces this request's functional simulation through
	// live per-block execution, bypassing homogeneous-block replay
	// (the per-request form of FleetOptions.DisableBlockReplay). Stats
	// and the model verdict are bit-identical either way; only the
	// Result's engine counters change.
	NoReplay bool `json:"no_replay,omitempty"`
}

// Analyzer is one device's session inside a Fleet — the paper's
// Fig. 1 workflow for one architecture. It owns the device
// configuration and its lazily-built, cached calibration, and runs
// the requests the fleet routes to it: the functional simulation
// (with cancellation), the model, verification and the device
// simulator. Fleet.Session hands sessions out so callers can drive
// and inspect the calibration; requests themselves always enter
// through the Fleet. Safe for concurrent use.
type Analyzer struct {
	fleet *Fleet
	dev   Device

	// calStart launches the one calibration goroutine; calDone closes
	// when it finishes. Waiters block on calDone (with their contexts,
	// via calibrationCtx) rather than inside a sync.Once, so a dead
	// client stops waiting even while calibration is still running.
	calStart     sync.Once
	calDone      chan struct{}
	cal          *timing.Calibration
	calErr       error
	calFromCache bool
	calSaveErr   error

	// engine accumulates simulation-engine counters across requests.
	engine engineCounters
}

// Device returns the session's device configuration.
func (a *Analyzer) Device() Device { return a.dev }

// Calibrate forces the lazy calibration now (microbenchmarks on the
// device simulator — seconds per device). Subsequent calls are free;
// concurrent callers share one run. Persisting to the fleet's
// CalibrationDir is best-effort: a failed write never invalidates the
// in-memory calibration (see CalibrationSaveError).
func (a *Analyzer) Calibrate() error {
	a.calStart.Do(func() { go a.runCalibration() })
	<-a.calDone
	return a.calErr
}

// calibrationCtx waits for the shared calibration like Calibrate,
// but abandons the wait when ctx dies — the calibration itself keeps
// running for the callers that still want it.
func (a *Analyzer) calibrationCtx(ctx context.Context) (*timing.Calibration, error) {
	a.calStart.Do(func() { go a.runCalibration() })
	select {
	case <-a.calDone:
		if a.calErr != nil {
			return nil, a.calErr
		}
		return a.cal, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// runCalibration performs the one calibration; its writes are
// published to waiters by the calDone close.
func (a *Analyzer) runCalibration() {
	defer close(a.calDone)
	dir := a.fleet.opt.CalibrationDir
	if dir != "" {
		// Cache entries are keyed and validated by hardware
		// fingerprint: a session analyzing a modified configuration
		// (different banks, clocks, segment sizes) never picks up
		// stale curves, even under the same name, and corrupt or
		// truncated files read as a miss, not an error.
		if cal, ok := timing.LoadCachedCalibration(dir, a.dev); ok {
			a.cal = cal
			a.calFromCache = true
			return
		}
	}
	a.cal, a.calErr = timing.Calibrate(a.dev)
	if a.calErr == nil && dir != "" {
		a.calSaveErr = a.cal.SaveCachedCalibration(dir)
	}
}

// calibrationReady reports, without blocking and without triggering
// anything, whether the session's calibration has finished, and with
// what error. (false, nil) means not started or still running — the
// readiness probe Fleet.Health polls safely, because probing never
// forces a device nobody asked for to calibrate.
func (a *Analyzer) calibrationReady() (bool, error) {
	select {
	case <-a.calDone:
		return true, a.calErr
	default:
		return false, nil
	}
}

// CalibrationFromCache reports whether Calibrate loaded the on-disk
// cache instead of measuring (meaningful after Calibrate returns).
func (a *Analyzer) CalibrationFromCache() bool { return a.calFromCache }

// CalibrationSaveError returns the error from the best-effort write
// to the fleet's CalibrationDir, if any. A failed write leaves the
// session fully functional on its in-memory calibration.
func (a *Analyzer) CalibrationSaveError() error { return a.calSaveErr }

// workers resolves the per-run worker count: the request's override,
// capped by the fleet's Parallelism when the operator set one, and
// by the host's core count otherwise — a request body can lower the
// concurrency of its own run but never raise it past the policy.
func (a *Analyzer) workers(req Request) int {
	limit := a.fleet.opt.Parallelism
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	if req.Parallelism > 0 && req.Parallelism < limit {
		return req.Parallelism
	}
	return limit
}

// simRun is the outcome of the shared request prelude (and, after
// simulate, the functional run): the built workload, the run's
// statistics and the session calibration (nil when the caller
// skipped it).
type simRun struct {
	w     *Workload
	stats *barra.Stats
	cal   *timing.Calibration
	// phases accumulates per-phase wall-clock seconds (calibration
	// wait, admission wait, build, engine, model, verify, measure) for
	// Result.Diagnostics and the fleet's phase histogram. Only the
	// request's own goroutine writes it.
	phases map[string]float64
}

// phase opens a span named name — joining the request's trace when
// the context carries one, detached otherwise — and returns the
// span-carrying context plus a done func that closes the span and
// adds its duration to the run's phase map.
func (r *simRun) phase(ctx context.Context, name string) (context.Context, func()) {
	ctx, sp := obs.StartSpan(ctx, name)
	return ctx, func() {
		sp.End()
		if r.phases == nil {
			r.phases = make(map[string]float64)
		}
		r.phases[name] += sp.Duration().Seconds()
	}
}

// observe feeds a computed request's phase timings into the fleet's
// gpuperf_phase_seconds histogram, one sample per phase. Cache hits
// never reach a session, so they record nothing.
func (a *Analyzer) observe(r *simRun) {
	for name, sec := range r.phases {
		a.fleet.phaseHist.With(name).Observe(sec)
	}
}

// roundPhases copies a phase map rounded to microseconds — stable,
// readable JSON without 17-digit float tails.
func roundPhases(m map[string]float64) map[string]float64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = math.Round(v*1e6) / 1e6
	}
	return out
}

// prelude is the shared front half of every session request —
// analyze, advise and measure alike. The fleet has already routed and
// normalized req (Fleet.prepare) and resolved its spec, so req's Size
// and Seed are concrete. The prelude fails fast on a dead context,
// waits for the shared calibration when the caller needs the model
// (needCal), takes an admission slot, and builds the problem
// instance. On success the admission slot is still held — the caller
// must call release exactly once when done with the workload's memory
// (simulation, verification and measurement included).
func (a *Analyzer) prelude(ctx context.Context, spec KernelSpec, req Request, needCal, dropVerify bool) (*simRun, func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	r := &simRun{}
	var err error
	if needCal {
		// Wait for the shared calibration before taking a slot, so a
		// cold burst doesn't pin every admission slot for its whole
		// duration; the wait itself respects ctx.
		calCtx, calDone := r.phase(ctx, "calibration")
		r.cal, err = a.calibrationCtx(calCtx)
		calDone()
		if err != nil {
			return nil, nil, err
		}
	}
	// Admission control: at most cap(admit) requests hold input memory
	// and simulation resources at a time across the whole fleet; the
	// rest wait here holding nothing, abandoning the queue when their
	// context dies.
	_, admitDone := r.phase(ctx, "admission")
	select {
	case a.fleet.admit <- struct{}{}:
		admitDone()
	case <-ctx.Done():
		admitDone()
		return nil, nil, ctx.Err()
	}
	release := func() { <-a.fleet.admit }
	_, buildDone := r.phase(ctx, "build")
	r.w, err = spec.build(a.dev, Params{Size: req.Size, Seed: req.Seed})
	buildDone()
	if err != nil {
		release()
		return nil, nil, err
	}
	if dropVerify {
		// The Verify closure captures the host-side input copies
		// (large for big requests — exactly the cases that skip it);
		// dropping it frees them for the duration of the run.
		r.w.Verify = nil
	}
	return r, release, nil
}

// simulate runs the prelude and the functional simulation — the
// common front half of analyze and advise.
func (a *Analyzer) simulate(ctx context.Context, spec KernelSpec, req Request, dropVerify bool) (*simRun, func(), error) {
	r, release, err := a.prelude(ctx, spec, req, true, dropVerify)
	if err != nil {
		return nil, nil, err
	}
	engCtx, engDone := r.phase(ctx, "engine")
	r.stats, err = barra.RunContext(engCtx, a.dev, r.w.Launch, r.w.Mem,
		&barra.Options{
			Parallelism:         a.workers(req),
			Regions:             r.w.Regions,
			DisableBlockReplay:  a.fleet.opt.DisableBlockReplay || req.NoReplay,
			MaxWarpInstructions: r.w.MaxWarpInstructions,
		})
	engDone()
	if err != nil {
		release()
		return nil, nil, err
	}
	a.engine.add(r.stats.Engine)
	return r, release, nil
}

// EngineCounters is the cumulative functional-engine effectiveness
// summary of a fleet, summed across its sessions: how many blocks
// were actually simulated vs served by homogeneous-block replay, and
// how much single-step dispatch batched warp stepping absorbed.
// Exposed through GET /v1/stats.
type EngineCounters struct {
	// BlocksSimulated/BlocksReplayed split every simulated launch's
	// blocks by how the engine derived their statistics. Runs with
	// replay bypassed (hooks, -no-replay) count nothing.
	BlocksSimulated int64 `json:"blocks_simulated"`
	BlocksReplayed  int64 `json:"blocks_replayed"`
	// BatchedRuns/BatchedInstrs count the batched warp-stepping runs
	// the engine path issued and the instructions they covered.
	BatchedRuns   int64 `json:"batched_runs"`
	BatchedInstrs int64 `json:"batched_instrs"`
}

// engineCounters is the atomic accumulator behind EngineCounters.
type engineCounters struct {
	simulated, replayed, runs, instrs atomic.Int64
}

func (c *engineCounters) add(e barra.EngineStats) {
	c.simulated.Add(e.BlocksSimulated)
	c.replayed.Add(e.BlocksReplayed)
	c.runs.Add(e.BatchedRuns)
	c.instrs.Add(e.BatchedInstrs)
}

// engineCounters returns the session's cumulative simulation-engine
// counters across every request it has served.
func (a *Analyzer) engineCounters() EngineCounters {
	return EngineCounters{
		BlocksSimulated: a.engine.simulated.Load(),
		BlocksReplayed:  a.engine.replayed.Load(),
		BatchedRuns:     a.engine.runs.Load(),
		BatchedInstrs:   a.engine.instrs.Load(),
	}
}

// analyze runs the full workflow for one prepared request: build the
// kernel's deterministic problem instance, functionally simulate it
// (sharded across workers, abortable through ctx), apply the
// calibrated three-component model, verify the output against the
// CPU reference when the kernel has one, and — with Measure — time
// the same launch on the device simulator.
func (a *Analyzer) analyze(ctx context.Context, spec KernelSpec, req Request) (*Result, error) {
	r, release, err := a.simulate(ctx, spec, req, req.SkipVerify)
	if err != nil {
		return nil, err
	}
	defer release()
	_, modelDone := r.phase(ctx, "model")
	est, err := model.Analyze(r.cal, r.w.Launch, r.stats)
	modelDone()
	if err != nil {
		return nil, err
	}
	res := newResult(req, a.dev, r.w, est, r.stats)
	if spec.Unverified {
		res.VerifyError = "unverified: user-submitted"
	}

	if r.w.Verify != nil {
		verifyCtx, verifyDone := r.phase(ctx, "verify")
		worst, err := r.w.Verify(verifyCtx, r.w.Mem)
		verifyDone()
		if err != nil {
			return nil, err
		}
		res.MaxAbsError = &worst
	}

	if req.Measure {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		measCtx, measDone := r.phase(ctx, "measure")
		// The functional run consumed the inputs; builders are
		// deterministic per (size, seed), so rebuilding yields the
		// identical problem instance on fresh memory.
		w2, err := spec.build(a.dev, Params{Size: req.Size, Seed: req.Seed})
		if err != nil {
			measDone()
			return nil, err
		}
		meas, err := device.RunContext(measCtx, a.dev, w2.Launch, w2.Mem)
		measDone()
		if err != nil {
			return nil, err
		}
		res.MeasuredSeconds = meas.Seconds
		res.MeasuredDominant = meas.DominantComponent()
		res.PredictionError = est.CompareError(meas.Seconds)
	}
	// The phase breakdown rides Diagnostics so every response answers
	// "where did the time go" without a metrics endpoint.
	res.Diagnostics.PhaseSeconds = roundPhases(r.phases)
	a.observe(r)
	return res, nil
}

// advise runs the counterfactual advisor for one prepared request:
// build the kernel's problem instance, functionally simulate it once
// (sharded like analyze, abortable through ctx), then re-evaluate the
// calibrated model under the full what-if portfolio — perfect
// coalescing, conflict-free shared memory, no divergence, ideal
// stage overlap, and an occupancy mini-sweep — returning the ranked,
// quantified headroom per scenario (the paper's §4 analysis as a
// service). The scenarios are pure stat transforms over that single
// run, so advice costs one simulation regardless of portfolio size;
// the request's Measure and SkipVerify flags are ignored (advice
// never verifies or times the device simulator — pair it with
// Analyze on a variant kernel to compare predicted headroom against
// a measured sibling).
func (a *Analyzer) advise(ctx context.Context, spec KernelSpec, req Request) (*Advice, error) {
	// Advice needs only the statistics, so the verification closure
	// is always dropped.
	r, release, err := a.simulate(ctx, spec, req, true)
	if err != nil {
		return nil, err
	}
	defer release()
	_, modelDone := r.phase(ctx, "model")
	rep, err := advise.Run(r.cal, r.w.Launch, r.stats, &advise.Options{Parallelism: a.workers(req)})
	modelDone()
	if err != nil {
		return nil, err
	}
	a.observe(r)
	return newAdvice(req, a.dev, r.w, rep), nil
}

// Measurement is the device simulator's timing of one kernel, with
// no model involved (and so no calibration cost) — what an
// architecture sweep compares across device variants. Size and Seed
// echo the request after normalization.
type Measurement struct {
	Kernel   string  `json:"kernel"`
	Device   string  `json:"device"`
	Size     int     `json:"size"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Dominant string  `json:"dominant"`
}

// measure runs only the device simulator for one prepared request. It
// shares the prelude with analyze and advise — identical context
// handling and admission — but never waits for (or triggers) the
// model calibration: timing-only sweeps stay calibration-free.
func (a *Analyzer) measure(ctx context.Context, spec KernelSpec, req Request) (*Measurement, error) {
	// The timing simulator never reads the verification closure.
	r, release, err := a.prelude(ctx, spec, req, false, true)
	if err != nil {
		return nil, err
	}
	defer release()
	measCtx, measDone := r.phase(ctx, "measure")
	meas, err := device.RunContext(measCtx, a.dev, r.w.Launch, r.w.Mem)
	measDone()
	if err != nil {
		return nil, err
	}
	a.observe(r)
	return &Measurement{
		Kernel:   req.Kernel,
		Device:   a.dev.Name,
		Size:     req.Size,
		Seed:     req.Seed,
		Seconds:  meas.Seconds,
		Dominant: meas.DominantComponent(),
	}, nil
}
