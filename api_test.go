package gpuperf

// Facade tests. One fleet (and so one 6-SM calibration — the
// expensive part) is shared across the API and HTTP tests via
// testFleet; private fleets load that calibration from a
// fingerprint-keyed cache directory instead of recalibrating.

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

var (
	tfOnce sync.Once
	tf     *Fleet
	tfErr  error
	tfDir  string
)

// TestMain removes the shared fleet's calibration-cache directory
// after the run (it outlives any one test, so t.TempDir cannot own
// it).
func TestMain(m *testing.M) {
	code := m.Run()
	if tfDir != "" {
		os.RemoveAll(tfDir)
	}
	os.Exit(code)
}

// testFleet returns the shared fleet: the default catalog with
// "gtx285-6sm" (a 6-SM slice — fast, same per-SM behaviour as the
// full chip) as the default device, its calibration built once and
// written to the fleet's calibration directory.
func testFleet(t testing.TB) *Fleet {
	t.Helper()
	tfOnce.Do(func() {
		// Failures are stored, not t.Fatal-ed: the Once would stay
		// spent and every later caller would hit a nil fleet instead
		// of the real error.
		tfDir, tfErr = os.MkdirTemp("", "gpuperf-fleet-cal-")
		if tfErr != nil {
			return
		}
		f := NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: tfDir})
		a, err := f.Session("")
		if err == nil {
			err = a.Calibrate()
		}
		if tfErr = err; err == nil {
			tf = f
		}
	})
	if tf == nil {
		t.Fatalf("shared fleet init failed: %v", tfErr)
	}
	return tf
}

// testAnalyzer returns the shared fleet's calibrated default-device
// session.
func testAnalyzer(t testing.TB) *Analyzer {
	t.Helper()
	a, err := testFleet(t).Session("")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// prepared routes and normalizes req through f exactly as every fleet
// request is, returning the session, the resolved spec and the
// normalized request — for tests that call the session's
// analyze/advise/measure directly. That path bypasses the result
// cache, so each call recomputes: what tests comparing two
// computations (across parallelism, across sessions) need.
func prepared(t *testing.T, f *Fleet, req Request) (*Analyzer, KernelSpec, Request) {
	t.Helper()
	a, spec, err := f.prepare(&req)
	if err != nil {
		t.Fatal(err)
	}
	return a, spec, req
}

// TestRegistryDeterministicInputs: identical (kernel, size, seed)
// requests build bit-identical memory images — input generation
// depends only on the request, never on global state — while a
// different seed produces different inputs.
func TestRegistryDeterministicInputs(t *testing.T) {
	reg := DefaultRegistry()
	dev := DefaultDevice()
	for _, kernel := range []string{"matmul16", "cr", "spmv-ell"} {
		p := Params{Size: 0, Seed: 9}
		w1, err := reg.Build(dev, kernel, p)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := reg.Build(dev, kernel, p)
		if err != nil {
			t.Fatal(err)
		}
		img1, err := w1.Mem.ReadWords(0, w1.Mem.Size()/4)
		if err != nil {
			t.Fatal(err)
		}
		img2, err := w2.Mem.ReadWords(0, w2.Mem.Size()/4)
		if err != nil {
			t.Fatal(err)
		}
		if len(img1) != len(img2) {
			t.Fatalf("%s: rebuilt memory sized %d vs %d", kernel, len(img1), len(img2))
		}
		for i := range img1 {
			if img1[i] != img2[i] {
				t.Fatalf("%s: rebuilt memory differs at word %d", kernel, i)
			}
		}

		w3, err := reg.Build(dev, kernel, Params{Size: 0, Seed: 10})
		if err != nil {
			t.Fatal(err)
		}
		img3, err := w3.Mem.ReadWords(0, w3.Mem.Size()/4)
		if err != nil {
			t.Fatal(err)
		}
		same := len(img1) == len(img3)
		if same {
			for i := range img1 {
				if img1[i] != img3[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatalf("%s: seed 9 and seed 10 built identical inputs", kernel)
		}
	}
}

// TestAnalyzeHappyPath: the full workflow on a small matmul — the
// result carries a verdict, diagnostics, stats, stages, and a
// passing CPU verification.
func TestAnalyzeHappyPath(t *testing.T) {
	f := testFleet(t)
	res, err := f.Analyze(context.Background(), Request{Kernel: "matmul16", Size: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != "matmul16" || res.Size != 64 || res.Seed != 7 {
		t.Errorf("request echo wrong: %+v", res)
	}
	if res.Grid <= 0 || res.Block <= 0 {
		t.Errorf("bad geometry %dx%d", res.Grid, res.Block)
	}
	if res.PredictedSeconds <= 0 || res.UpperBoundSeconds < res.PredictedSeconds {
		t.Errorf("bad prediction interval [%g, %g]", res.PredictedSeconds, res.UpperBoundSeconds)
	}
	if res.Bottleneck == "" || res.NextBottleneck == "" || len(res.Causes) == 0 {
		t.Errorf("missing verdict: %+v", res)
	}
	if len(res.Stages) == 0 || res.Stats.WarpInstrs <= 0 {
		t.Errorf("missing breakdown/stats: %+v", res)
	}
	if res.MaxAbsError == nil {
		t.Error("matmul should be verified against the CPU reference")
	}
	if res.GFLOPS <= 0 {
		t.Error("matmul has a known flop count; GFLOPS should be set")
	}
	if res.MeasuredSeconds != 0 {
		t.Error("measured time set without Measure")
	}
}

// TestAnalyzeSkipVerify: the CPU-reference check (single-threaded
// host code) is skippable per request.
func TestAnalyzeSkipVerify(t *testing.T) {
	f := testFleet(t)
	res, err := f.Analyze(context.Background(), Request{Kernel: "matmul16", Size: 64, Seed: 7, SkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxAbsError != nil {
		t.Error("SkipVerify should leave MaxAbsError unset")
	}
}

// TestVerifyCancellable: the CPU-reference check itself observes
// ctx, so an abandoned request stops mid-verification instead of
// finishing the O(n³) reference product.
func TestVerifyCancellable(t *testing.T) {
	w, err := DefaultRegistry().Build(DefaultDevice(), "matmul16", Params{Size: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.Verify(ctx, w.Mem); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestAnalyzeMeasure: Measure adds the device simulator's time and
// the prediction-error metric.
func TestAnalyzeMeasure(t *testing.T) {
	f := testFleet(t)
	res, err := f.Analyze(context.Background(), Request{Kernel: "matmul16", Size: 64, Seed: 7, Measure: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredSeconds <= 0 || res.MeasuredDominant == "" {
		t.Errorf("Measure did not fill measured fields: %+v", res)
	}
}

// TestMeasuredAnalyzeBuildsOnce: a measured analyze builds its problem
// instance once and times a copy taken before the functional run
// consumed it, which a fresh build for Measure times the same.
func TestMeasuredAnalyzeBuildsOnce(t *testing.T) {
	a, spec, req := prepared(t, testFleet(t), Request{Kernel: "cr", Size: 64, Seed: 2, Measure: true})
	builds := 0
	build := spec.Build
	spec.Build = func(dev Device, p Params) (*Workload, error) {
		builds++
		return build(dev, p)
	}
	res, err := a.analyze(context.Background(), spec, req)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Errorf("measured analyze built its instance %d times, want 1", builds)
	}
	m, err := a.measure(context.Background(), spec, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredSeconds != m.Seconds || res.MeasuredDominant != m.Dominant {
		t.Errorf("analyze measured %v s (%s), Measure %v s (%s)", res.MeasuredSeconds, res.MeasuredDominant, m.Seconds, m.Dominant)
	}
}

// stripPhases clears Diagnostics.PhaseSeconds — wall-clock telemetry
// deliberately outside the determinism contract — so byte-identity
// tests compare only the simulation's output.
func stripPhases(results ...*Result) {
	for _, r := range results {
		r.Diagnostics.PhaseSeconds = nil
	}
}

// TestAnalyzeDeterministicAcrossParallelism: the Result is
// bit-identical however the functional run is sharded (the engine's
// guarantee, surfaced through the session). Parallelism is not part
// of the cache key, so both runs go to the session directly.
func TestAnalyzeDeterministicAcrossParallelism(t *testing.T) {
	var blobs [][]byte
	for _, p := range []int{1, 4} {
		a, spec, req := prepared(t, testFleet(t), Request{Kernel: "spmv-ell", Size: 512, Seed: 3, Parallelism: p})
		res, err := a.analyze(context.Background(), spec, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Diagnostics.PhaseSeconds) == 0 {
			t.Error("Analyze left Diagnostics.PhaseSeconds empty")
		}
		stripPhases(res)
		blob, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	if string(blobs[0]) != string(blobs[1]) {
		t.Errorf("results differ across parallelism:\nP=1: %s\nP=4: %s", blobs[0], blobs[1])
	}
}

// TestAnalyzeUnknownKernel maps to the sentinel error.
func TestAnalyzeUnknownKernel(t *testing.T) {
	f := testFleet(t)
	_, err := f.Analyze(context.Background(), Request{Kernel: "nope"})
	if !errors.Is(err, ErrUnknownKernel) {
		t.Fatalf("got %v, want ErrUnknownKernel", err)
	}
}

// TestAnalyzeInvalidSize: requests beyond a kernel's MaxSize ceiling
// (or that its builder rejects) fail fast with ErrInvalidRequest —
// a network client cannot make the service allocate unbounded
// memory.
func TestAnalyzeInvalidSize(t *testing.T) {
	f := testFleet(t)
	for _, req := range []Request{
		{Kernel: "matmul32", Size: 32768}, // beyond MaxSize (and the kernel's uint32 edge)
		{Kernel: "matmul16", Size: 100},   // builder rejects: not a power of two
		{Kernel: "cr", Size: -4},          // negative
		{Kernel: "spmv-ell", Size: 1 << 30},
	} {
		if _, err := f.Analyze(context.Background(), req); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("%+v: got %v, want ErrInvalidRequest", req, err)
		}
	}
}

// TestAnalyzeCancelled: a dead context aborts the session's run.
func TestAnalyzeCancelled(t *testing.T) {
	// The shared session is calibrated, so cancellation hits the run
	// itself.
	a, spec, req := prepared(t, testFleet(t), Request{Kernel: "spmv-ell", Size: 4096, Seed: 3})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := a.analyze(ctx, spec, req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestAnalyzeBatch: results align with requests, one bad request
// doesn't sink the batch, and batch answers match serial ones
// computed on the session directly (not served from the cache the
// batch just filled).
func TestAnalyzeBatch(t *testing.T) {
	f := testFleet(t)
	reqs := []Request{
		{Kernel: "matmul16", Size: 64, Seed: 7},
		{Kernel: "bogus"},
		{Kernel: "cr", Size: 8, Seed: 2},
	}
	results, err := f.AnalyzeBatch(context.Background(), reqs)
	if err == nil || !errors.Is(err, ErrUnknownKernel) {
		t.Fatalf("batch error should join the unknown-kernel failure, got %v", err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	if results[1] != nil {
		t.Error("failed request should leave a nil result")
	}
	for _, i := range []int{0, 2} {
		if results[i] == nil {
			t.Fatalf("request %d should have succeeded", i)
		}
		a, spec, req := prepared(t, f, reqs[i])
		serial, err := a.analyze(context.Background(), spec, req)
		if err != nil {
			t.Fatal(err)
		}
		stripPhases(results[i], serial)
		b1, _ := json.Marshal(results[i])
		b2, _ := json.Marshal(serial)
		if string(b1) != string(b2) {
			t.Errorf("request %d: batch and serial results differ", i)
		}
	}
}

// TestCalibrationDirReuse: a session with CalibrationDir loads its
// device's fingerprint-keyed cache entry instead of recalibrating,
// and produces identical analyses.
func TestCalibrationDirReuse(t *testing.T) {
	a := testAnalyzer(t)
	dir := t.TempDir()
	if err := a.cal.SaveCachedCalibration(dir); err != nil {
		t.Fatal(err)
	}
	f2 := NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: dir})
	a2, err := f2.Session("")
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if !a2.CalibrationFromCache() {
		t.Fatal("second session should have loaded the cache entry")
	}
	if a2.cal == a.cal {
		t.Fatal("second session should have loaded its own calibration")
	}
	// Both sessions compute (no result cache in between).
	_, spec, req := prepared(t, f2, Request{Kernel: "matmul16", Size: 64, Seed: 7})
	r1, err := a.analyze(context.Background(), spec, req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a2.analyze(context.Background(), spec, req)
	if err != nil {
		t.Fatal(err)
	}
	stripPhases(r1, r2)
	b1, _ := json.Marshal(r1)
	b2, _ := json.Marshal(r2)
	if string(b1) != string(b2) {
		t.Error("cached-calibration session disagrees with the original")
	}
}

// TestCalibrationSaveFailureDoesNotPoison: an unwritable cache
// directory must not invalidate a successful calibration — the
// session keeps serving from memory and surfaces the write error
// separately.
func TestCalibrationSaveFailureDoesNotPoison(t *testing.T) {
	// A regular file where the cache directory should be makes
	// MkdirAll fail.
	block := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(block, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: filepath.Join(block, "cache")})
	a, err := f.Session("")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Calibrate(); err != nil {
		t.Fatalf("calibration should survive a failed cache write, got %v", err)
	}
	if a.CalibrationSaveError() == nil {
		t.Error("the failed cache write should be reported via CalibrationSaveError")
	}
	if _, err := f.Analyze(context.Background(), Request{Kernel: "matmul16", Size: 64}); err != nil {
		t.Fatalf("analysis should work on the in-memory calibration: %v", err)
	}
}

// TestCalibrationCacheRejectsModifiedDevice: a cache written for one
// configuration must not load for a modified one, even under the
// same name — stale curves would silently skew every prediction.
// With the fingerprint-keyed directory the modified device simply
// has a different cache slot.
func TestCalibrationCacheRejectsModifiedDevice(t *testing.T) {
	a := testAnalyzer(t)
	dir := t.TempDir()
	if err := a.cal.SaveCachedCalibration(dir); err != nil {
		t.Fatal(err)
	}
	dev := a.Device()
	dev.SharedMemBanks = 17 // same Name, different hardware
	cat := NewDeviceCatalog()
	if err := cat.Register(dev.Name, dev); err != nil {
		t.Fatal(err)
	}
	a2, err := NewFleet(FleetOptions{Catalog: cat, DefaultDevice: dev.Name, CalibrationDir: dir}).Session("")
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if a2.CalibrationFromCache() {
		t.Error("cache for a different configuration was loaded")
	}
	// The fresh calibration landed in its own slot: the directory now
	// holds two distinct fingerprint-keyed files.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		names := []string{}
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("cache dir should hold 2 per-fingerprint entries, has %v", names)
	}
}

// TestCorruptCalibrationCacheFallsBack: garbage in the device's cache
// slot is a miss, not an error — the session calibrates fresh and
// repairs the slot.
func TestCorruptCalibrationCacheFallsBack(t *testing.T) {
	a := testAnalyzer(t)
	dir := t.TempDir()
	if err := a.cal.SaveCachedCalibration(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected one cache entry, got %v (%v)", entries, err)
	}
	slot := filepath.Join(dir, entries[0].Name())
	if err := os.WriteFile(slot, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	session := func() *Analyzer {
		t.Helper()
		s, err := NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: dir}).Session("")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a2 := session()
	if err := a2.Calibrate(); err != nil {
		t.Fatalf("corrupt cache must fall back to fresh calibration, got %v", err)
	}
	if a2.CalibrationFromCache() {
		t.Error("corrupt cache was served")
	}
	if a2.CalibrationSaveError() != nil {
		t.Errorf("repairing the slot failed: %v", a2.CalibrationSaveError())
	}
	// The repaired slot is valid again.
	a3 := session()
	if err := a3.Calibrate(); err != nil {
		t.Fatal(err)
	}
	if !a3.CalibrationFromCache() {
		t.Error("repaired cache entry should load")
	}
}

// TestWorkersCappedBySession: a request's parallelism override may
// lower but never exceed the operator's configured worker count —
// or the host's core count when the operator left it unset.
func TestWorkersCappedBySession(t *testing.T) {
	ncpu := runtime.GOMAXPROCS(0)
	lowCPU := 8
	if ncpu < lowCPU {
		lowCPU = ncpu
	}
	for _, tc := range []struct {
		session, request, want int
	}{
		{0, 0, ncpu},       // both defaults: all cores
		{0, 8, lowCPU},     // unset session: host cores still cap it
		{0, 1 << 20, ncpu}, // a wild request cannot outgrow the host
		{2, 0, 2},          // session default applies
		{2, 8, 2},          // request cannot exceed the session cap
		{4, 1, 1},          // request may lower it
	} {
		a, err := NewFleet(FleetOptions{Parallelism: tc.session}).Session("")
		if err != nil {
			t.Fatal(err)
		}
		if got := a.workers(Request{Parallelism: tc.request}); got != tc.want {
			t.Errorf("session %d, request %d: workers %d, want %d",
				tc.session, tc.request, got, tc.want)
		}
	}
}

// fillAdmission occupies every slot of f's admission semaphore and
// returns the func that releases them.
func fillAdmission(f *Fleet) (release func()) {
	for i := 0; i < cap(f.admit); i++ {
		f.admit <- struct{}{}
	}
	return func() {
		for i := 0; i < cap(f.admit); i++ {
			<-f.admit
		}
	}
}

// TestAdmissionControl: with every admission slot held, a caller
// waits without building anything and leaves the queue the moment
// its context dies.
func TestAdmissionControl(t *testing.T) {
	// A private fleet on the shared calibration: the session is
	// calibrated, so the only thing the request can block on is the
	// admission gate.
	f := NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: testFleet(t).opt.CalibrationDir})
	a, spec, req := prepared(t, f, Request{Kernel: "matmul16", Size: 64})
	if err := a.Calibrate(); err != nil {
		t.Fatal(err)
	}
	release := fillAdmission(f)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := a.analyze(ctx, spec, req)
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued request returned %v, want context.Canceled", err)
	}
	if len(f.admit) != cap(f.admit) {
		t.Fatalf("the abandoned request disturbed the admission gate: %d of %d slots held", len(f.admit), cap(f.admit))
	}
	release()
}

// TestMeasureNoCalibration: Measure works on a fresh session without
// ever calibrating (the architect-sweep path), and echoes the
// normalized size and seed.
func TestMeasureNoCalibration(t *testing.T) {
	f := NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm"})
	a, spec, req := prepared(t, f, Request{Kernel: "matmul16", Size: 64})
	m, err := a.measure(context.Background(), spec, req)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seconds <= 0 || m.Dominant == "" {
		t.Errorf("bad measurement %+v", m)
	}
	if m.Size != 64 || m.Seed != 1 {
		t.Errorf("measurement should echo normalized size/seed, got %d/%d", m.Size, m.Seed)
	}
	if n := len(f.admit); n != 0 {
		t.Errorf("Measure leaked %d admission slots", n)
	}
	select {
	case <-a.calDone:
		t.Error("Measure triggered a calibration")
	default:
	}
}

// TestMeasureSharesPrelude: Measure validates exactly like Analyze —
// same sentinel errors for unknown kernels, rejected sizes and dead
// contexts — without ever touching the calibration.
func TestMeasureSharesPrelude(t *testing.T) {
	f := NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm"})
	a, err := f.Session("")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := f.Measure(ctx, Request{Kernel: "nope"}); !errors.Is(err, ErrUnknownKernel) {
		t.Errorf("unknown kernel: got %v", err)
	}
	if _, err := f.Measure(ctx, Request{Kernel: "matmul32", Size: 32768}); !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("oversized request: got %v", err)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := f.Measure(dead, Request{Kernel: "matmul16", Size: 64}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled: got %v", err)
	}
	// None of the failures (nor the admission path) may have kicked
	// off a calibration: Measure is the calibration-free path.
	select {
	case <-a.calDone:
		t.Error("Measure triggered a calibration")
	default:
	}
}

// TestSliceDeviceIdempotent: slicing an already-sliced device
// replaces the -Nsm name suffix instead of stacking another, and
// re-slicing to the same count is a no-op.
func TestSliceDeviceIdempotent(t *testing.T) {
	base := DefaultDevice()
	once := SliceDevice(base, 6)
	if once.Name != "GTX285-6sm" || once.NumSMs != 6 {
		t.Fatalf("first slice: %q (%d SMs)", once.Name, once.NumSMs)
	}
	again := SliceDevice(once, 6)
	if again != once {
		t.Errorf("re-slicing to the same count changed the device: %+v vs %+v", again, once)
	}
	narrower := SliceDevice(SliceDevice(base, 15), 6)
	if narrower.Name != "GTX285-6sm" || narrower.NumSMs != 6 {
		t.Errorf("15sm→6sm: %q (%d SMs), want GTX285-6sm (6)", narrower.Name, narrower.NumSMs)
	}
	if narrower != once {
		t.Errorf("slicing via 15sm differs from slicing directly: %+v vs %+v", narrower, once)
	}
	// Slicing wider than the current chip keeps it untouched.
	if wider := SliceDevice(once, 12); wider != once {
		t.Errorf("slicing a 6-SM device to 12 changed it: %+v", wider)
	}
	// Option-decorated names keep their knob suffixes intact.
	dev := DefaultDevice()
	dev.Name = "GTX285+banks17"
	resliced := SliceDevice(SliceDevice(dev, 15), 6)
	if resliced.Name != "GTX285+banks17-6sm" {
		t.Errorf("knob suffix lost or stacked: %q", resliced.Name)
	}
	// Catalog variant names put the slice before the knob; re-slicing
	// one must replace that marker, not stack a second.
	variant, ok := DefaultCatalog().Lookup("gtx285-6sm+banks17")
	if !ok {
		t.Fatal("catalog lost gtx285-6sm+banks17")
	}
	sliced := SliceDevice(variant, 3)
	if sliced.Name != "gtx285+banks17-3sm" || sliced.NumSMs != 3 {
		t.Errorf("slice-before-knob name stacked: %q (%d SMs)", sliced.Name, sliced.NumSMs)
	}
	if again := SliceDevice(sliced, 3); again != sliced {
		t.Errorf("re-slicing the variant changed it: %+v vs %+v", again, sliced)
	}
}

// TestAdviseHappyPath: the advisor report for the naive matmul names
// coalescing as the top opportunity — the §4 walk's first step — with
// every cataloged scenario present and ranked.
func TestAdviseHappyPath(t *testing.T) {
	f := testFleet(t)
	adv, err := f.Advise(context.Background(), Request{Kernel: "matmul-naive", Size: 128, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Kernel != "matmul-naive" || adv.Size != 128 || adv.Seed != 7 {
		t.Errorf("request echo wrong: %+v", adv)
	}
	if adv.BaselineSeconds <= 0 || adv.Bottleneck != "global memory" {
		t.Errorf("baseline wrong: %.6g s, bottleneck %q", adv.BaselineSeconds, adv.Bottleneck)
	}
	if len(adv.Scenarios) != 5 {
		t.Fatalf("got %d scenarios, want 5", len(adv.Scenarios))
	}
	if adv.Top != "perfect-coalescing" || adv.Scenarios[0].Scenario != "perfect-coalescing" {
		t.Errorf("top advice %q (first ranked %q), want perfect-coalescing", adv.Top, adv.Scenarios[0].Scenario)
	}
	if adv.Scenarios[0].Speedup < 2 {
		t.Errorf("uncoalesced matmul should promise ≥2x from coalescing, got %.2fx", adv.Scenarios[0].Speedup)
	}
	for i, s := range adv.Scenarios {
		if s.Explanation == "" || s.PredictedSeconds <= 0 {
			t.Errorf("scenario %d (%s) incomplete: %+v", i, s.Scenario, s)
		}
		if i > 0 && adv.Scenarios[i-1].Speedup < s.Speedup {
			t.Errorf("ranking violated at %d", i)
		}
	}
}

// TestAdviseDeterministicAcrossParallelism: the ranked advice is
// bit-identical whether the functional run and scenario fan-out use
// one worker or eight. Both runs go to the session directly, since
// Parallelism is not part of the cache key.
func TestAdviseDeterministicAcrossParallelism(t *testing.T) {
	var reports [2]*Advice
	for i, p := range []int{1, 8} {
		a, spec, req := prepared(t, testFleet(t), Request{Kernel: "cr", Size: 16, Seed: 5, Parallelism: p})
		adv, err := a.advise(context.Background(), spec, req)
		if err != nil {
			t.Fatal(err)
		}
		adv.Device = "" // the same device either way; compare the verdicts
		reports[i] = adv
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Errorf("advice differs across parallelism:\nP=1: %+v\nP=8: %+v", reports[0], reports[1])
	}
}

// TestAdviseCRTopAdvice: for unpadded cyclic reduction the top
// recommendation is the bank-conflict remedy — the very optimization
// the registry's cr-nbc variant implements (paper Fig. 8).
func TestAdviseCRTopAdvice(t *testing.T) {
	f := testFleet(t)
	adv, err := f.Advise(context.Background(), Request{Kernel: "cr", Size: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if adv.Top != "conflict-free-shared" {
		t.Errorf("cr top advice %q, want conflict-free-shared", adv.Top)
	}
	spec, ok := DefaultRegistry().Lookup("cr-nbc")
	if !ok {
		t.Fatal("cr-nbc missing from the registry")
	}
	if spec.Optimization != adv.Top {
		t.Errorf("cr-nbc realizes %q, advisor recommends %q — the variant chain is broken", spec.Optimization, adv.Top)
	}
}

// TestAdviseUnknownKernelAndCancelled: Advise fails fast like Analyze,
// and a dead context aborts the session's run.
func TestAdviseUnknownKernelAndCancelled(t *testing.T) {
	f := testFleet(t)
	if _, err := f.Advise(context.Background(), Request{Kernel: "nope"}); !errors.Is(err, ErrUnknownKernel) {
		t.Errorf("unknown kernel: got %v", err)
	}
	a, spec, req := prepared(t, f, Request{Kernel: "matmul16", Size: 64})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.advise(ctx, spec, req); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled: got %v", err)
	}
}

// TestAnalyzeBatchErrorIndexing: each failed request's error carries
// its index and kernel name, in request order, and errors.Is still
// matches the underlying condition through the wrapping.
func TestAnalyzeBatchErrorIndexing(t *testing.T) {
	f := testFleet(t)
	reqs := []Request{
		{Kernel: "matmul16", Size: 64, Seed: 7},
		{Kernel: "no-such-kernel"},
		{Kernel: "matmul16", Size: 1 << 20},
	}
	results, err := f.AnalyzeBatch(context.Background(), reqs)
	if err == nil {
		t.Fatal("batch with bad requests returned no error")
	}
	if results[0] == nil || results[1] != nil || results[2] != nil {
		t.Errorf("result slots wrong: %v", results)
	}
	if !errors.Is(err, ErrUnknownKernel) || !errors.Is(err, ErrInvalidRequest) {
		t.Errorf("wrapping broke errors.Is matching: %v", err)
	}
	msg := err.Error()
	i1 := strings.Index(msg, `request 1 (kernel "no-such-kernel")`)
	i2 := strings.Index(msg, `request 2 (kernel "matmul16")`)
	if i1 < 0 || i2 < 0 {
		t.Fatalf("joined error does not identify failed requests:\n%s", msg)
	}
	if i1 > i2 {
		t.Errorf("joined errors out of request order:\n%s", msg)
	}
	if strings.Contains(msg, "request 0") {
		t.Errorf("successful request blamed in error:\n%s", msg)
	}
}

// TestKernelSpecFamilies: every built-in spec declares its variant
// family, and each declared Optimization names a real advisor
// scenario key.
func TestKernelSpecFamilies(t *testing.T) {
	valid := map[string]bool{
		"perfect-coalescing": true, "conflict-free-shared": true,
		"no-divergence": true, "ideal-overlap": true, "raise-occupancy": true,
	}
	families := map[string]int{}
	for _, s := range DefaultRegistry().Specs() {
		if s.Family == "" {
			t.Errorf("kernel %q has no family", s.Name)
		}
		families[s.Family]++
		if s.Optimization != "" && !valid[s.Optimization] {
			t.Errorf("kernel %q names unknown scenario %q", s.Name, s.Optimization)
		}
	}
	for _, f := range []string{"matmul", "cr", "spmv"} {
		if families[f] < 2 {
			t.Errorf("family %q has %d members, want a variant chain", f, families[f])
		}
	}
}
