package gpuperf

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"gpuperf/internal/asm"
	"gpuperf/internal/ingest"
	"gpuperf/internal/obs"
	"gpuperf/internal/resultstore"
)

// FleetOptions configures a Fleet.
type FleetOptions struct {
	// Catalog names the devices the fleet serves. Nil means
	// DefaultCatalog().
	Catalog *DeviceCatalog
	// DefaultDevice is the catalog entry used when a request leaves
	// its Device field empty ("" = DefaultCatalogDevice). It must name
	// a catalog entry; the first request to rely on it fails otherwise.
	DefaultDevice string
	// Parallelism is the functional-simulation worker ceiling per
	// request, applied to every session (0 = all host cores).
	Parallelism int
	// CalibrationDir, when set, is the fleet's on-disk calibration
	// cache: one file per device fingerprint, shared by every session
	// (and every fleet pointed at the same directory).
	CalibrationDir string
	// CacheDir, when set, is the fleet's on-disk result cache: one
	// content-addressed slot per request fingerprint, surviving
	// restarts and shared by every fleet (and process) pointed at the
	// same directory — the result-side sibling of CalibrationDir.
	CacheDir string
	// CacheBytes is the in-memory result-cache budget (sum of cached
	// payload sizes). 0 means DefaultCacheBytes; a negative value
	// disables the memory tier, leaving disk-only caching when
	// CacheDir is set — and no caching at all without it (identical
	// in-flight requests still coalesce).
	CacheBytes int64
	// SubmissionDir, when set, persists accepted kernel submissions
	// (POST /v1/kernels) as on-disk slots so a daemon restart keeps
	// them; empty keeps the submission store in memory only.
	SubmissionDir string
	// SubmissionLimits are the per-submission ceilings and store
	// budgets for user-submitted kernels; zero fields take the
	// defaults in internal/ingest.
	SubmissionLimits SubmissionLimits
}

// Fleet is the front door: every analyze, advise, measure and
// compare request enters here. It owns one lazily-calibrated
// Analyzer session per catalog entry, created on first use and
// reused for every later request naming that device, all behind one
// shared admission semaphore, one calibration cache directory and
// one result cache. Safe for concurrent use — a service handles all
// traffic with one Fleet.
type Fleet struct {
	opt     FleetOptions
	catalog *DeviceCatalog
	def     string
	// admit is the fleet-wide admission semaphore (GOMAXPROCS slots):
	// at most that many requests hold input memory and simulation
	// resources at once across ALL devices, so adding catalog entries
	// never multiplies the host's resource budget.
	admit chan struct{}
	// store is the result cache behind Analyze/Advise/Compare:
	// deterministic requests are memoized by fingerprint and identical
	// in-flight requests coalesce onto one simulation. Measure stays
	// uncached — it is calibration-free and cheap.
	store *resultstore.Store
	// subs is the one owner of accepted kernel submissions (lookup
	// resolves "subm-" names through it); subsErr defers a
	// submission-store open failure (an unwritable SubmissionDir) to
	// the first SubmitKernel instead of failing fleet construction.
	subs    *ingest.Store
	subsErr error

	// start anchors uptime_seconds; metrics is the fleet's /metrics
	// registry (always non-nil); reqOps counts front-door calls by
	// operation and phaseHist distributes computed requests' phase
	// timings.
	start     time.Time
	metrics   *obs.Registry
	reqOps    *obs.CounterVec
	phaseHist *obs.HistogramVec

	mu       sync.Mutex
	sessions map[string]*Analyzer
}

// NewFleet builds a fleet. Sessions (and their calibrations) are
// created lazily per device on first use.
func NewFleet(opt FleetOptions) *Fleet {
	catalog := opt.Catalog
	if catalog == nil {
		catalog = DefaultCatalog()
	}
	def := opt.DefaultDevice
	if def == "" {
		def = DefaultCatalogDevice
	}
	budget := opt.CacheBytes
	if budget == 0 {
		budget = DefaultCacheBytes
	} else if budget < 0 {
		budget = 0
	}
	f := &Fleet{
		opt:      opt,
		catalog:  catalog,
		def:      def,
		admit:    make(chan struct{}, runtime.GOMAXPROCS(0)),
		store:    resultstore.New(resultstore.Config{MemoryBytes: budget, Dir: opt.CacheDir}),
		start:    time.Now(),
		sessions: map[string]*Analyzer{},
	}
	f.openSubmissions()
	f.registerMetrics()
	return f
}

// Metrics returns the fleet's metric registry — what GET /metrics
// renders. Always non-nil; library embedders can register their own
// instruments beside the fleet's.
func (f *Fleet) Metrics() *Metrics { return f.metrics }

// Catalog returns the fleet's device catalog.
func (f *Fleet) Catalog() *DeviceCatalog { return f.catalog }

// Kernels lists the fleet's available kernel specs, the built-ins
// and the resident submissions, sorted by name.
func (f *Fleet) Kernels() []KernelSpec {
	specs := DefaultRegistry().Specs()
	if f.subs != nil {
		for _, sub := range f.subs.List() {
			specs = append(specs, submissionSpec(sub))
		}
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs
}

// lookup resolves a kernel name, the one place the fleet does. A
// submission id goes through the submission store, whose Get applies
// the TTL and refreshes the submission's recency, so every request
// that names a submission counts as a use; any other name goes
// through the built-in registry.
func (f *Fleet) lookup(name string) (KernelSpec, bool) {
	if !IsSubmissionID(name) {
		return DefaultRegistry().Lookup(name)
	}
	if f.subs == nil {
		return KernelSpec{}, false
	}
	sub, err := f.subs.Get(name)
	if err != nil {
		return KernelSpec{}, false
	}
	return submissionSpec(sub), true
}

// resolve looks name up and validates the normalized params without
// building anything — the cheap front half of a request, so callers
// can fail fast (or wait for calibration) before allocating inputs.
func (f *Fleet) resolve(name string, p Params) (KernelSpec, Params, error) {
	s, ok := f.lookup(name)
	if !ok {
		return KernelSpec{}, p, DefaultRegistry().unknown(name)
	}
	p = p.normalize(s.DefaultSize)
	if err := s.checkSize(p); err != nil {
		return KernelSpec{}, p, err
	}
	return s, p, nil
}

// Devices lists the fleet's device profiles, sorted by name — the
// GET /v1/devices response.
func (f *Fleet) Devices() []DeviceProfile { return f.catalog.Profiles() }

// DefaultDevice returns the catalog name empty-Device requests
// resolve to.
func (f *Fleet) DefaultDevice() string { return f.def }

// Session returns the per-device Analyzer for the named catalog
// entry ("" = the fleet default), creating it on first use — what a
// caller uses to calibrate a device ahead of traffic and inspect the
// outcome. All sessions share the fleet's admission semaphore and
// calibration cache directory; each owns its device's calibration.
func (f *Fleet) Session(device string) (*Analyzer, error) {
	if device == "" {
		device = f.def
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if a, ok := f.sessions[device]; ok {
		return a, nil
	}
	dev, err := f.catalog.Resolve(device)
	if err != nil {
		return nil, err
	}
	a := &Analyzer{fleet: f, dev: dev, calDone: make(chan struct{})}
	f.sessions[device] = a
	return a, nil
}

// EngineCounters sums the simulation-engine counters across every
// session the fleet has created.
func (f *Fleet) EngineCounters() EngineCounters {
	f.mu.Lock()
	defer f.mu.Unlock()
	var total EngineCounters
	for _, a := range f.sessions {
		c := a.engineCounters()
		total.BlocksSimulated += c.BlocksSimulated
		total.BlocksReplayed += c.BlocksReplayed
		total.BatchedRuns += c.BatchedRuns
		total.BatchedInstrs += c.BatchedInstrs
	}
	return total
}

// prepare is the front half every analyze, advise and measure
// request shares: route it to its device's session, pinning the
// resolved catalog name so results echo it, then resolve its kernel
// and normalize it against the spec. The concrete size and seed are
// pinned in place, so cache keys treat "size 0" and the kernel's
// explicit default as one request, and unverified (submitted) kernels
// get SkipVerify pinned true, so a caller toggling the flag cannot
// split one submission's results across two cache slots. An unknown
// device or kernel, or a rejected size, fails here — before any
// calibration wait, admission slot or cache probe.
func (f *Fleet) prepare(req *Request) (*Analyzer, KernelSpec, error) {
	a, err := f.Session(req.Device)
	if err != nil {
		return nil, KernelSpec{}, err
	}
	req.Device = a.dev.Name
	spec, p, err := f.resolve(req.Kernel, Params{Size: req.Size, Seed: req.Seed})
	if err != nil {
		return nil, KernelSpec{}, err
	}
	req.Size, req.Seed = p.Size, p.Seed
	if spec.Unverified {
		req.SkipVerify = true
	}
	return a, spec, nil
}

// Analyze routes the request to its device's session and runs the
// full workflow there, served through the fleet's result cache: build
// the kernel's deterministic problem instance, functionally simulate
// it (sharded across workers, abortable through ctx), apply the
// calibrated three-component model, verify the output against the
// CPU reference when the kernel has one, and — with Measure — time
// the same launch on the device simulator.
func (f *Fleet) Analyze(ctx context.Context, req Request) (*Result, error) {
	res, _, err := f.AnalyzeCached(ctx, req)
	return res, err
}

// AnalyzeCached is Analyze also reporting how the result cache served
// the request — the HTTP layer's X-Cache header. A repeat of an
// identical request (same kernel, normalized size/seed,
// output-affecting options and device hardware) is a hit; identical
// requests in flight at once coalesce onto one simulation.
func (f *Fleet) AnalyzeCached(ctx context.Context, req Request) (*Result, CacheStatus, error) {
	return decodeServed[Result](f.analyzeJSON(ctx, req))
}

// analyzeJSON is AnalyzeCached's answer as the stored, served body:
// what POST /v1/analyze writes. The body is shared and read-only.
func (f *Fleet) analyzeJSON(ctx context.Context, req Request) ([]byte, CacheStatus, error) {
	f.countRequest("analyze")
	return f.analyzeCached(ctx, req)
}

// analyzeCached is analyzeJSON without the per-op request count —
// the path Compare's per-device analyses take so they don't inflate
// the "analyze" counter.
func (f *Fleet) analyzeCached(ctx context.Context, req Request) ([]byte, CacheStatus, error) {
	a, spec, err := f.prepare(&req)
	if err != nil {
		return nil, CacheBypass, err
	}
	key := analyzeKey(req, DeviceFingerprint(a.dev))
	return cachedBody(ctx, f, key, func(ctx context.Context) (any, error) {
		return a.analyze(ctx, spec, req)
	})
}

// Advise routes the request to its device's session and runs the
// counterfactual advisor there, served through the fleet's result
// cache: one functional simulation, then the calibrated model
// re-evaluated under the what-if portfolio (perfect coalescing,
// conflict-free shared memory, no divergence, ideal stage overlap, an
// occupancy mini-sweep), ranked by predicted speedup.
func (f *Fleet) Advise(ctx context.Context, req Request) (*Advice, error) {
	adv, _, err := f.AdviseCached(ctx, req)
	return adv, err
}

// AdviseCached is Advise also reporting how the result cache served
// the request. Advice ignores Measure and SkipVerify, so requests
// differing only there share one cached slot.
func (f *Fleet) AdviseCached(ctx context.Context, req Request) (*Advice, CacheStatus, error) {
	return decodeServed[Advice](f.adviseJSON(ctx, req))
}

// adviseJSON is AdviseCached's answer as the stored, served body:
// what POST /v1/advise writes. The body is shared and read-only.
func (f *Fleet) adviseJSON(ctx context.Context, req Request) ([]byte, CacheStatus, error) {
	f.countRequest("advise")
	a, spec, err := f.prepare(&req)
	if err != nil {
		return nil, CacheBypass, err
	}
	key := adviseKey(req, DeviceFingerprint(a.dev))
	return cachedBody(ctx, f, key, func(ctx context.Context) (any, error) {
		return a.advise(ctx, spec, req)
	})
}

// Measure routes the request to its device's session and runs only
// the device simulator there — no model, so no calibration cost, and
// no result cache.
func (f *Fleet) Measure(ctx context.Context, req Request) (*Measurement, error) {
	f.countRequest("measure")
	a, spec, err := f.prepare(&req)
	if err != nil {
		return nil, err
	}
	return a.measure(ctx, spec, req)
}

// Disassemble renders the request's kernel as a native-ISA listing,
// resolving the kernel as Analyze does, so a submission id works too.
// It builds the full problem instance even though only the program
// is printed: some programs depend on the generated inputs'
// structure (SpMV's layout follows the matrix), and disassembly is a
// one-shot CLI path where the extra build cost is acceptable.
func (f *Fleet) Disassemble(req Request) (string, error) {
	a, spec, err := f.prepare(&req)
	if err != nil {
		return "", err
	}
	w, err := spec.build(a.dev, Params{Size: req.Size, Seed: req.Seed})
	if err != nil {
		return "", err
	}
	return asm.Disassemble(w.Launch.Prog), nil
}

// AnalyzeBatch analyzes many requests concurrently, routing each to
// its device's session. results[i] answers reqs[i]; a request that
// fails leaves a nil entry and its error — wrapped with the request's
// index and kernel name, so a joined multi-error still identifies its
// sources — joined into the returned error in request order.
// errors.Is still matches the underlying condition (ErrUnknownKernel,
// ErrInvalidRequest, context errors) through the wrapping. One
// failing request does not cancel its siblings — only ctx does.
func (f *Fleet) AnalyzeBatch(ctx context.Context, reqs []Request) ([]*Result, error) {
	results := make([]*Result, len(reqs))
	errs := make([]error, len(reqs))
	fanOut(len(reqs), func(i int) {
		results[i], errs[i] = f.Analyze(ctx, reqs[i])
		if errs[i] != nil {
			errs[i] = fmt.Errorf("request %d (kernel %q): %w", i, reqs[i].Kernel, errs[i])
		}
	})
	return results, errors.Join(errs...)
}

// fanOut runs fn(i) for every i in [0, n) on goroutines, at most
// GOMAXPROCS at a time, and waits for all of them.
func fanOut(n int, fn func(i int)) {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// CompareRequest asks how one kernel behaves across a set of catalog
// devices — the paper's architect questions ("would a 32-bank part
// fix my conflicts?") as one call.
type CompareRequest struct {
	// Kernel names a built-in kernel or a submission id; Size and Seed
	// select the problem instance, built identically for every device
	// per (size, seed).
	Kernel string `json:"kernel"`
	Size   int    `json:"size,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	// Parallelism overrides each per-device run's worker count like
	// Request.Parallelism.
	Parallelism int `json:"parallelism,omitempty"`
	// Devices are the catalog entries to compare; at least one is
	// required, duplicates are rejected.
	Devices []string `json:"devices"`
	// Baseline is the device speedups are measured against; empty
	// means Devices[0]. It must be one of Devices.
	Baseline string `json:"baseline,omitempty"`
	// Measure additionally times each device on the timing simulator,
	// filling every entry's MeasuredSeconds — predicted-vs-measured
	// agreement across the whole device set.
	Measure bool `json:"measure,omitempty"`
}

// Comparison is the fully serializable outcome of one cross-device
// comparison: one entry per requested device, ranked fastest first
// by predicted time (ties broken by device name — the ranking is
// deterministic at any parallelism). Like Result, every field
// round-trips through JSON unchanged; the HTTP service returns this
// struct verbatim.
type Comparison struct {
	// Kernel, Size and Seed echo the request after normalization.
	Kernel string `json:"kernel"`
	Size   int    `json:"size"`
	Seed   int64  `json:"seed"`
	// Baseline names the device every Speedup is relative to.
	Baseline string `json:"baseline"`
	// Entries holds one verdict per device, ranked fastest first.
	Entries []ComparisonEntry `json:"entries"`
	// Best is the top-ranked device name.
	Best string `json:"best"`
}

// ComparisonEntry is one device's verdict in a Comparison.
type ComparisonEntry struct {
	// Device is the catalog name; Fingerprint the canonical hardware
	// digest (the calibration-cache key).
	Device      string `json:"device"`
	Fingerprint string `json:"fingerprint"`
	// PredictedSeconds is the calibrated model's execution-time
	// prediction on this device; Bottleneck its verdict.
	PredictedSeconds float64 `json:"predicted_seconds"`
	Bottleneck       string  `json:"bottleneck"`
	// Speedup is the baseline device's predicted time divided by this
	// device's (>1 = faster than baseline).
	Speedup float64 `json:"speedup"`
	// MeasuredSeconds is the timing simulator's result (only when the
	// request set Measure).
	MeasuredSeconds float64 `json:"measured_seconds,omitempty"`
}

// validateCompare fail-fasts a compare request against a catalog:
// non-empty duplicate-free device set, every name resolvable, the
// baseline a member. It returns the effective baseline and the device
// set's hardware fingerprints (parallel to req.Devices) — the
// compare cache key's raw material. Shared by Fleet.Compare and the
// router, so local and proxied requests reject identically.
func validateCompare(cat *DeviceCatalog, req CompareRequest) (baseline string, fps []string, err error) {
	if len(req.Devices) == 0 {
		return "", nil, fmt.Errorf("%w: compare needs at least one device", ErrInvalidRequest)
	}
	seen := map[string]bool{}
	fps = make([]string, len(req.Devices))
	for i, d := range req.Devices {
		if seen[d] {
			return "", nil, fmt.Errorf("%w: duplicate device %q in compare set", ErrInvalidRequest, d)
		}
		seen[d] = true
		dev, err := cat.Resolve(d)
		if err != nil {
			return "", nil, err
		}
		fps[i] = DeviceFingerprint(dev)
	}
	baseline = req.Baseline
	if baseline == "" {
		baseline = req.Devices[0]
	}
	if !seen[baseline] {
		return "", nil, fmt.Errorf("%w: baseline %q is not in the compare set %v", ErrInvalidRequest, baseline, req.Devices)
	}
	return baseline, fps, nil
}

// compareLeg is the part of one device's Result a comparison reads.
// Decoding a served analysis into it skips building the rest of the
// Result: its stages, statistics and diagnostics.
type compareLeg struct {
	Size             int     `json:"size"`
	Seed             int64   `json:"seed"`
	PredictedSeconds float64 `json:"predicted_seconds"`
	Bottleneck       string  `json:"bottleneck"`
	MeasuredSeconds  float64 `json:"measured_seconds"`
}

// compareFanout runs one analysis per compare-set device through
// analyzeFn — a local session for Fleet.Compare, a remote worker for
// the router's scatter-gather — then ranks the entries and assembles
// the Comparison. One implementation, so a proxied comparison is
// byte-identical to a local one. allHit reports that every analysis
// was a cache hit.
func compareFanout(ctx context.Context, cat *DeviceCatalog, req CompareRequest, baseline string,
	analyzeFn func(context.Context, Request) (compareLeg, CacheStatus, error)) (cmp *Comparison, allHit bool, err error) {
	entries := make([]ComparisonEntry, len(req.Devices))
	errs := make([]error, len(req.Devices))
	hits := make([]bool, len(req.Devices))
	sizes := make([]int, len(req.Devices))
	seeds := make([]int64, len(req.Devices))
	fanOut(len(req.Devices), func(i int) {
		name := req.Devices[i]
		leg, st, err := analyzeFn(ctx, Request{
			Kernel:      req.Kernel,
			Device:      name,
			Size:        req.Size,
			Seed:        req.Seed,
			Parallelism: req.Parallelism,
			Measure:     req.Measure,
			SkipVerify:  true,
		})
		if err != nil {
			errs[i] = fmt.Errorf("device %q: %w", name, err)
			return
		}
		dev, _ := cat.Lookup(name)
		entries[i] = ComparisonEntry{
			Device:           name,
			Fingerprint:      DeviceFingerprint(dev),
			PredictedSeconds: leg.PredictedSeconds,
			Bottleneck:       leg.Bottleneck,
			MeasuredSeconds:  leg.MeasuredSeconds,
		}
		sizes[i], seeds[i] = leg.Size, leg.Seed
		hits[i] = st == CacheHit
	})
	if err := errors.Join(errs...); err != nil {
		return nil, false, err
	}

	var base float64
	for i := range entries {
		if entries[i].Device == baseline {
			base = entries[i].PredictedSeconds
		}
	}
	for i := range entries {
		if entries[i].PredictedSeconds > 0 {
			entries[i].Speedup = base / entries[i].PredictedSeconds
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].PredictedSeconds != entries[j].PredictedSeconds {
			return entries[i].PredictedSeconds < entries[j].PredictedSeconds
		}
		return entries[i].Device < entries[j].Device
	})
	return &Comparison{
		Kernel:   req.Kernel,
		Size:     sizes[0],
		Seed:     seeds[0],
		Baseline: baseline,
		Entries:  entries,
		Best:     entries[0].Device,
	}, !slices.Contains(hits, false), nil
}

// Compare runs one kernel across the requested device set and ranks
// the outcomes, served through the fleet's result cache. Each
// device's analysis runs in that device's session (calibrating it on
// first use, cached under its fingerprint); verification is skipped —
// the functional output is the same everywhere, only the timing
// differs. Any device failing fails the whole comparison, wrapped
// with the device name.
func (f *Fleet) Compare(ctx context.Context, req CompareRequest) (*Comparison, error) {
	c, _, err := f.CompareCached(ctx, req)
	return c, err
}

// CompareCached is Compare also reporting how the result cache served
// the request. The key is order-independent over the device set (as
// hardware fingerprints) given the same effective baseline, so
// reordering the devices field re-serves the cached ranking.
func (f *Fleet) CompareCached(ctx context.Context, req CompareRequest) (*Comparison, CacheStatus, error) {
	return decodeServed[Comparison](f.compareJSON(ctx, req))
}

// compareJSON is CompareCached's answer as the stored, served body:
// what POST /v1/compare writes. The body is shared and read-only.
func (f *Fleet) compareJSON(ctx context.Context, req CompareRequest) ([]byte, CacheStatus, error) {
	f.countRequest("compare")
	baseline, fps, err := validateCompare(f.catalog, req)
	if err != nil {
		return nil, CacheBypass, err
	}
	_, p, err := f.resolve(req.Kernel, Params{Size: req.Size, Seed: req.Seed})
	if err != nil {
		return nil, CacheBypass, err
	}
	norm := req
	norm.Size, norm.Seed = p.Size, p.Seed
	var baselineFP string
	for i, d := range req.Devices {
		if d == baseline {
			baselineFP = fps[i]
		}
	}
	return cachedBody(ctx, f, compareKey(norm, fps, baselineFP), func(ctx context.Context) (any, error) {
		cmp, _, err := compareFanout(ctx, f.catalog, req, baseline, f.analyzeLeg)
		return cmp, err
	})
}

// analyzeLeg is a local comparison's per-device unit: a cached
// analysis, read for its compareLeg. It skips the request counter:
// the caller asked for one compare, not N analyzes.
func (f *Fleet) analyzeLeg(ctx context.Context, req Request) (compareLeg, CacheStatus, error) {
	body, st, err := f.analyzeCached(ctx, req)
	if err != nil {
		return compareLeg{}, st, err
	}
	var leg compareLeg
	if err := json.Unmarshal(body, &leg); err != nil {
		return compareLeg{}, st, fmt.Errorf("gpuperf: decoding cached result: %w", err)
	}
	return leg, st, nil
}

// FleetHealth is the GET /healthz wire type: overall readiness plus
// one entry per device session the fleet has opened (the default
// device always appears, opened or not).
type FleetHealth struct {
	// Status is "ok" once the default device's calibration is loaded
	// or built, "error" if that calibration failed, "starting" before
	// either — the service answers 503 until "ok".
	Status  string         `json:"status"`
	Devices []DeviceHealth `json:"devices"`
}

// DeviceHealth is one device's readiness in a FleetHealth.
type DeviceHealth struct {
	Device      string `json:"device"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Default     bool   `json:"default,omitempty"`
	// Calibrated reports the session's calibration finished cleanly;
	// FromCache that it was loaded from CalibrationDir rather than
	// measured.
	Calibrated bool   `json:"calibrated"`
	FromCache  bool   `json:"from_cache,omitempty"`
	Error      string `json:"error,omitempty"`
}

// Health reports the fleet's readiness without triggering any work:
// probing never opens a session, never starts a calibration, and
// never blocks on one in progress — so a router polling every
// worker's /healthz cannot force workers to calibrate devices their
// shard will never be asked about. Use Session(...).Calibrate (the
// daemon's -precalibrate) to drive readiness.
func (f *Fleet) Health() FleetHealth {
	f.mu.Lock()
	sessions := make(map[string]*Analyzer, len(f.sessions))
	for name, a := range f.sessions {
		sessions[name] = a
	}
	f.mu.Unlock()

	names := make([]string, 0, len(sessions)+1)
	for name := range sessions {
		names = append(names, name)
	}
	if _, ok := sessions[f.def]; !ok {
		names = append(names, f.def)
	}
	sort.Strings(names)

	h := FleetHealth{Status: "starting"}
	for _, name := range names {
		d := DeviceHealth{Device: name, Default: name == f.def}
		if a, ok := sessions[name]; ok {
			d.Fingerprint = DeviceFingerprint(a.Device())
			done, err := a.calibrationReady()
			d.Calibrated = done && err == nil
			d.FromCache = a.CalibrationFromCache()
			if done && err != nil {
				d.Error = err.Error()
			}
		} else if dev, err := f.catalog.Resolve(name); err == nil {
			d.Fingerprint = DeviceFingerprint(dev)
		}
		if d.Default {
			switch {
			case d.Error != "":
				h.Status = "error"
			case d.Calibrated:
				h.Status = "ok"
			}
		}
		h.Devices = append(h.Devices, d)
	}
	return h
}

// Report renders the comparison as the human-readable ranking the
// gpuperf -compare command prints.
func (c *Comparison) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel: %s (size %d, seed %d) across %d devices, baseline %s\n",
		c.Kernel, c.Size, c.Seed, len(c.Entries), c.Baseline)
	for i, e := range c.Entries {
		fmt.Fprintf(&b, "%2d. %-24s predicted %9.6g ms  %5.2fx vs baseline  bottleneck: %s",
			i+1, e.Device, e.PredictedSeconds*1e3, e.Speedup, e.Bottleneck)
		if e.MeasuredSeconds > 0 {
			fmt.Fprintf(&b, "  (measured %.6g ms)", e.MeasuredSeconds*1e3)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
