package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gpuperf"
	"gpuperf/internal/barra"
)

// tracedPass accumulates what the traced requests of one run measured.
type tracedPass struct {
	tr        *Tracer
	attempted int
	failed    int
	family    map[int]string // request id → kernel family
	facade    float64        // Σ untraced one-client facade latency
	traced    float64        // Σ traced latency of the same requests
	covered   float64        // Σ time some layer span covers
	// nested is set when each request's layer spans nest under its
	// root in time (predict, validate), so their union is the covered
	// time; hot sets covered itself.
	nested   bool
	winstr   float64 // device-simulated warp instructions
	predErrs []float64
	values   map[string]float64
}

func (p *tracedPass) fail(log *slog.Logger, i int, req Request, err error) {
	p.failed++
	log.Error("traced request failed", "request", i, "what", req.String(), "err", err)
}

// Traced runs the workload's traced pass: a cold setup like the timed
// run's, then the digest prefix of its request list on one client,
// each request both through the layers' public functions under spans
// and through the front door untraced; then the engine scaling leg.
func Traced(ctx context.Context, cfg *Config, log *slog.Logger) (Outcome, *Digest, error) {
	pass := &tracedPass{tr: NewTracer(), family: map[int]string{}, values: map[string]float64{}}
	var digest *Digest
	var err error
	if cfg.Workload == "hot" {
		digest, err = tracedHot(ctx, cfg, log, pass)
	} else {
		digest, err = tracedFleet(ctx, cfg, log, pass)
	}
	if err != nil {
		return Outcome{}, nil, err
	}
	p1, pmax, err := ScalingLeg(ctx, cfg.Seed)
	if err != nil {
		return Outcome{}, nil, fmt.Errorf("engine scaling leg: %w", err)
	}
	v := pass.values
	v["engine.blocks_per_s.p1"], v["engine.blocks_per_s.pmax"] = p1, pmax
	pass.layerTimes()
	v["unattributed_frac"] = 1 - ratio(pass.covered, pass.facade)
	v["trace_overhead_frac"] = ratio(pass.traced, pass.facade) - 1
	if len(pass.predErrs) > 0 {
		sum, max := 0.0, 0.0
		for _, e := range pass.predErrs {
			sum += e
			if e > max {
				max = e
			}
		}
		v["pred_error_mean"], v["pred_error_max"] = sum/float64(len(pass.predErrs)), max
	}
	path := filepath.Join(cfg.Out, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
	if err := pass.tr.WriteFile(path); err != nil {
		return Outcome{}, nil, fmt.Errorf("writing spans: %w", err)
	}
	log.Info("spans written", "path", path)
	_, complete := digest.Sum()
	return NewOutcome(PerLayer, v, pass.attempted, pass.failed, pass.failed == 0 && complete), digest, nil
}

// layerTimes turns the recorded spans into the per-layer busy times,
// the calibration time per device and, where the spans nest (predict
// and validate), the covered time. Spans of failed requests count
// nowhere.
func (p *tracedPass) layerTimes() {
	spans := p.tr.Spans()
	self := SelfTimes(spans)
	total := map[string]float64{}
	byFamily := map[string]float64{}
	famCount := map[string]int{}
	for _, f := range p.family {
		famCount[f]++
	}
	var cal []float64
	var deviceSecs float64
	for i, s := range spans {
		if s.Name == "calibration" {
			cal = append(cal, s.Dur())
			continue
		}
		fam, ok := p.family[s.Request]
		if !ok {
			continue
		}
		total[s.Name] += self[i]
		byFamily[s.Name+"."+fam] += self[i]
		if s.Name == "measure.device" {
			deviceSecs += s.Dur()
		}
	}
	v, n := p.values, float64(len(p.family))
	v["calibration.busy_s"] = Median(cal)
	for _, name := range []string{"model.global-microbench", "build", "measure.build", "engine", "model",
		"advise", "verify", "measure.device"} {
		v[name+".busy_s"] = ratio(total[name], n)
	}
	for _, name := range []string{"engine", "measure.device"} {
		for _, fam := range []string{"matmul", "cr", "spmv"} {
			v[name+".busy_s."+fam] = ratio(byFamily[name+"."+fam], float64(famCount[fam]))
		}
	}
	v["measure.device.winstr_per_s"] = ratio(p.winstr, deviceSecs)
	if p.nested {
		for r, c := range Covered(spans) {
			if _, ok := p.family[r]; ok {
				p.covered += c
			}
		}
	}
}

// tracedFleet is the predict and validate traced pass: the outside-in
// pipeline against a library-default Fleet set up as in the timed run.
func tracedFleet(ctx context.Context, cfg *Config, log *slog.Logger, pass *tracedPass) (*Digest, error) {
	devs, warm := Devices, []Request(nil)
	reqs := ValidateRequests(cfg.Seed)
	if cfg.Workload == "predict" {
		devs, warm, reqs = Devices[:1], PredictWarmup(cfg.Seed), PredictRequests(cfg.Seed, 1)
	}
	sys, err := setupFleetSystem(ctx, cfg, nil, devs, warm, reqs)
	if err != nil {
		return nil, err
	}
	pipe := NewPipeline()
	if err := pipe.Calibrate(devs, pass.tr); err != nil {
		return nil, err
	}
	for _, w := range warm {
		wctx, cancel := context.WithTimeout(ctx, cfg.Deadline())
		_, err := pipe.Run(wctx, w, SpanRef{})
		cancel()
		if err != nil {
			return nil, fmt.Errorf("pipeline warm-up %s: %w", w, err)
		}
	}
	pipe.mu.Lock()
	pipe.Counting = true
	pipe.mu.Unlock()
	before := sys.fleet.CacheStats()
	for i, req := range reqs[:cfg.DigestPrefix()] {
		pass.attempted++
		var (
			out        Output
			legs       PipeOut
			ferr, perr error
			f, t       time.Duration
		)
		facade := func() {
			rctx, cancel := context.WithTimeout(ctx, cfg.Deadline())
			defer cancel()
			start := time.Now()
			out, ferr = RunFleet(rctx, sys.fleet, req)
			f = time.Since(start)
		}
		traced := func() {
			rctx, cancel := context.WithTimeout(ctx, cfg.Deadline())
			defer cancel()
			start := time.Now()
			root := pass.tr.Root("request", i)
			legs, perr = pipe.Run(rctx, req, root)
			root.End()
			t = time.Since(start)
		}
		// Alternate which side runs first, so neither always runs on the
		// caches the other warmed.
		if i%2 == 0 {
			traced()
			facade()
		} else {
			facade()
			traced()
		}
		err := errors.Join(ferr, perr)
		if err == nil {
			err = Check(req, out, cfg.Verifiable)
		}
		if err == nil {
			err = Agree(req, legs, out)
		}
		if err == nil && max(f, t) > cfg.Deadline() {
			err = fmt.Errorf("deadline %v overrun", cfg.Deadline())
		}
		if err == nil {
			err = sys.digest.Record(i, out)
		}
		if err != nil {
			pass.fail(log, i, req, err)
			continue
		}
		pass.family[i] = Family(req.Kernel)
		pass.family[i] = Family(req.Kernel)
		pass.facade += f.Seconds()
		pass.traced += t.Seconds()
		pass.predErrs = append(pass.predErrs, out.PredErrors()...)
	}
	after := sys.fleet.CacheStats()
	v := pass.values
	v["cache.hit_frac"] = hitFrac(before, after)
	pipe.mu.Lock()
	v["model.global-microbench.miss_frac"] = ratio(float64(pipe.GeoMisses), float64(pipe.GeoCalls))
	v["engine.replay_frac"] = ratio(float64(pipe.Replayed), float64(pipe.Blocks))
	pass.winstr = float64(pipe.WarpInstrs)
	pipe.mu.Unlock()
	pass.nested = true
	return sys.digest, nil
}

// hitFrac is the share of result-cache lookups between two snapshots
// that hit.
func hitFrac(before, after gpuperf.CacheStats) float64 {
	hits := after.Hits - before.Hits
	all := hits + after.Misses - before.Misses + after.Coalesced - before.Coalesced
	return ratio(float64(hits), float64(all))
}

// tracedHot is the hot traced pass. Each request is timed three ways,
// one span each: the Fleet *Cached hit on the owning worker ("cache"),
// the same request over HTTP straight to that worker ("http"), and
// through the router ("router"); a comparison's legs go to both
// owners concurrently, as the router sends them. Self times follow by
// difference: http = direct − cache, router = routed − direct.
func tracedHot(ctx context.Context, cfg *Config, log *slog.Logger, pass *tracedPass) (*Digest, error) {
	sys, err := setupHot(ctx, cfg, pass.tr)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	const n = 512
	fleets := func() gpuperf.CacheStats {
		var sum gpuperf.CacheStats
		for _, f := range sys.cl.Fleets {
			st := f.CacheStats()
			sum.Hits += st.Hits
			sum.Misses += st.Misses
			sum.Coalesced += st.Coalesced
		}
		return sum
	}
	before := fleets()
	var cacheS, directS, routedS float64
	for i := 0; i < n; i++ {
		r := sys.seq.At(i)
		pass.attempted++
		pass.family[i] = Family(r.Kernel)
		var routed, direct, cache, untraced time.Duration
		var errs [4]error
		tracedTrio := func() {
			rctx, cancel := context.WithTimeout(ctx, cfg.Deadline())
			defer cancel()
			root := pass.tr.Root("request", i)
			defer root.End()
			sp := root.Child("router")
			start := time.Now()
			errs[0] = sys.Do(rctx, i)
			routed = time.Since(start)
			sp.End()
			sp = root.Child("http")
			start = time.Now()
			errs[1] = sys.direct(rctx, r)
			direct = time.Since(start)
			sp.End()
			sp = root.Child("cache")
			start = time.Now()
			errs[2] = sys.cached(rctx, r)
			cache = time.Since(start)
			sp.End()
		}
		plain := func() {
			rctx, cancel := context.WithTimeout(ctx, cfg.Deadline())
			defer cancel()
			start := time.Now()
			errs[3] = sys.Do(rctx, i)
			untraced = time.Since(start)
		}
		if i%2 == 0 {
			tracedTrio()
			plain()
		} else {
			plain()
			tracedTrio()
		}
		if err := errors.Join(errs[:]...); err != nil {
			pass.fail(log, i, r, err)
			continue
		}
		pass.family[i] = Family(r.Kernel)
		cacheS += cache.Seconds()
		directS += direct.Seconds()
		routedS += routed.Seconds()
		pass.facade += untraced.Seconds()
		pass.traced += routed.Seconds()
	}
	after := fleets()
	ok := float64(len(pass.family))
	v := pass.values
	v["cache.hit_frac"] = hitFrac(before, after)
	v["cache.busy_s"] = ratio(cacheS, ok)
	v["http.busy_s"] = ratio(directS-cacheS, ok)
	v["router.busy_s"] = ratio(routedS-directS, ok)
	// The three layers chain inside the routed call, so the routed
	// call's traced time is the time they cover.
	pass.covered = routedS
	for i, t := range sys.tuples {
		out, err := DecodeOutput(t, sys.refs[i].Body)
		if err != nil {
			return nil, err
		}
		pass.predErrs = append(pass.predErrs, out.PredErrors()...)
	}
	return sys.digest, nil
}

// direct sends a hot request straight to its owning worker: analyze
// and advise as is, a comparison as its per-device analyses.
func (s *hotSystem) direct(ctx context.Context, r Request) error {
	if r.Op != OpCompare {
		etag := ""
		if r.Revalidate {
			etag = s.refs[r.Tuple].ETag
		}
		rep, err := s.cl.Post(ctx, s.cl.Owner[r.Device]+Path(r), s.bodies[r.Tuple], etag)
		if err != nil {
			return err
		}
		return s.refs[r.Tuple].Expect(rep, r.Revalidate)
	}
	return eachDevice(r, func(d string, leg gpuperf.Request) error {
		body, err := json.Marshal(leg)
		if err != nil {
			return err
		}
		rep, err := s.cl.Post(ctx, s.cl.Owner[d]+"/v1/analyze", body, "")
		if err != nil {
			return err
		}
		if rep.Status != http.StatusOK || rep.Cache != string(gpuperf.CacheHit) {
			return fmt.Errorf("direct %s leg answered %d X-Cache %q", d, rep.Status, rep.Cache)
		}
		return nil
	})
}

// cached serves a hot request from its owning worker's Fleet directly,
// which must be a result-cache hit equal to the slot's filling answer.
func (s *hotSystem) cached(ctx context.Context, r Request) error {
	f := s.cl.Fleets[s.cl.Owner[r.Device]]
	var (
		out Output
		st  gpuperf.CacheStatus
		err error
	)
	switch r.Op {
	case OpAnalyze:
		out.Result, st, err = f.AnalyzeCached(ctx, fleetRequest(r))
	case OpAdvise:
		out.Advice, st, err = f.AdviseCached(ctx, fleetRequest(r))
	case OpCompare:
		return eachDevice(r, func(d string, leg gpuperf.Request) error {
			_, st, err := s.cl.Fleets[s.cl.Owner[d]].AnalyzeCached(ctx, leg)
			if err == nil && st != gpuperf.CacheHit {
				err = fmt.Errorf("%s leg served %s", d, st)
			}
			return err
		})
	}
	if err != nil {
		return err
	}
	if st != gpuperf.CacheHit {
		return fmt.Errorf("served %s, want HIT", st)
	}
	got, err := out.Canonical()
	if err != nil {
		return err
	}
	ref, err := DecodeOutput(r, s.refs[r.Tuple].Body)
	if err != nil {
		return err
	}
	want, err := ref.Canonical()
	if err != nil {
		return err
	}
	if string(got) != string(want) {
		return errors.New("cached answer differs from the slot's filling answer")
	}
	return nil
}

// eachDevice runs a comparison's per-device analyses concurrently, as
// the compare fan-out builds them.
func eachDevice(r Request, fn func(dev string, leg gpuperf.Request) error) error {
	errs := make([]error, len(r.Devices))
	var wg sync.WaitGroup
	for i, d := range r.Devices {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(d, gpuperf.Request{Kernel: r.Kernel, Device: d, Size: r.Size, Seed: r.Seed,
				Measure: r.Measure, SkipVerify: true})
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ScalingLeg times barra.RunContext on every predict launch at
// Parallelism 1 and at GOMAXPROCS, on freshly built memory each time,
// and returns the blocks per second of each.
func ScalingLeg(ctx context.Context, seed int64) (p1, pmax float64, err error) {
	reg, cfg := gpuperf.DefaultRegistry(), gpuperf.DefaultDevice()
	rate := func(procs int) (float64, error) {
		var blocks, secs float64
		for i, ks := range predictShapes {
			w, err := reg.Build(cfg, ks.Kernel, gpuperf.Params{Size: ks.Size, Seed: inputSeed(seed, i, true)})
			if err != nil {
				return 0, err
			}
			start := time.Now()
			_, err = barra.RunContext(ctx, cfg, w.Launch, w.Mem, &barra.Options{Parallelism: procs, Regions: w.Regions})
			secs += time.Since(start).Seconds()
			if err != nil {
				return 0, err
			}
			blocks += float64(w.Launch.Grid)
		}
		return blocks / secs, nil
	}
	if p1, err = rate(1); err != nil {
		return 0, 0, err
	}
	pmax, err = rate(runtime.GOMAXPROCS(0))
	return p1, pmax, err
}
