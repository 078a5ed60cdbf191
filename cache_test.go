package gpuperf

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"gpuperf/internal/resultstore"
)

// cacheTestFleet builds a private fleet seeded with the shared test
// session's calibration, so cache tests measure the cache, not a
// 6-SM calibration per test.
func cacheTestFleet(t *testing.T, opt FleetOptions) *Fleet {
	t.Helper()
	a := testAnalyzer(t)
	dir := t.TempDir()
	if err := a.cal.SaveCachedCalibration(dir); err != nil {
		t.Fatal(err)
	}
	if opt.DefaultDevice == "" {
		opt.DefaultDevice = "gtx285-6sm"
	}
	opt.CalibrationDir = dir
	return NewFleet(opt)
}

// TestRequestFingerprintSeparation: every knob that can change the
// response separates two keys; nothing else does.
func TestRequestFingerprintSeparation(t *testing.T) {
	base := Request{Kernel: "matmul16", Size: 64, Seed: 7}
	const fp = "aaaa"
	baseKey := analyzeKey(base, fp)
	if len(baseKey) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", baseKey)
	}

	mutations := map[string]string{
		"kernel":      analyzeKey(Request{Kernel: "matmul8", Size: 64, Seed: 7}, fp),
		"size":        analyzeKey(Request{Kernel: "matmul16", Size: 128, Seed: 7}, fp),
		"seed":        analyzeKey(Request{Kernel: "matmul16", Size: 64, Seed: 8}, fp),
		"measure":     analyzeKey(Request{Kernel: "matmul16", Size: 64, Seed: 7, Measure: true}, fp),
		"skip_verify": analyzeKey(Request{Kernel: "matmul16", Size: 64, Seed: 7, SkipVerify: true}, fp),
		"device fp":   analyzeKey(base, "bbbb"),
		"op":          adviseKey(base, fp),
	}
	seen := map[string]string{baseKey: "base"}
	for knob, key := range mutations {
		if prev, dup := seen[key]; dup {
			t.Errorf("changing %s collides with %s", knob, prev)
		}
		seen[key] = knob
	}

	// The request's Parallelism and Device NAME are absent from the
	// pre-image: neither can change the response's bytes (results are
	// bit-identical at any worker count; the hardware fingerprint
	// already keys the device).
	para := base
	para.Parallelism = 4
	para.Device = "some-alias"
	if analyzeKey(para, fp) != baseKey {
		t.Error("Parallelism or Device name leaked into the fingerprint")
	}

	// Advise ignores Measure/SkipVerify, so its key must too.
	if adviseKey(para, fp) != adviseKey(Request{Kernel: "matmul16", Size: 64, Seed: 7, Measure: true, SkipVerify: true}, fp) {
		t.Error("adviseKey separates on options Advise ignores")
	}
}

// TestCompareFingerprint: the device set is order-independent for a
// fixed baseline, and the baseline (which anchors every speedup)
// separates.
func TestCompareFingerprint(t *testing.T) {
	req := CompareRequest{Kernel: "spmv-ell", Size: 4096}
	ab := compareKey(req, []string{"fpA", "fpB"}, "fpA")
	ba := compareKey(req, []string{"fpB", "fpA"}, "fpA")
	if ab != ba {
		t.Error("reordering the device set with the same baseline separated keys")
	}
	if compareKey(req, []string{"fpA", "fpB"}, "fpB") == ab {
		t.Error("changing the baseline did not separate keys")
	}
	if compareKey(req, []string{"fpA", "fpC"}, "fpA") == ab {
		t.Error("changing the device set did not separate keys")
	}
}

// TestFingerprintNormalization: "size 0" and the kernel's explicit
// default size are the same request, so they must share a slot after
// the fleet's prepare pass.
func TestFingerprintNormalization(t *testing.T) {
	f := NewFleet(FleetOptions{})
	_, _, implicit := prepared(t, f, Request{Kernel: "spmv-ell"})
	_, _, explicit := prepared(t, f, Request{Kernel: "spmv-ell", Size: 8192, Seed: 1})
	if implicit != explicit {
		t.Fatalf("normalize disagreed: %+v vs %+v", implicit, explicit)
	}
	if analyzeKey(implicit, "fp") != analyzeKey(explicit, "fp") {
		t.Error("default-size and explicit-default requests got different keys")
	}
}

// TestFleetCacheBitIdentical: a cached answer is byte-for-byte the
// computed one — across MISS/HIT and against a fleet that stores
// nothing and so recomputes.
func TestFleetCacheBitIdentical(t *testing.T) {
	f := cacheTestFleet(t, FleetOptions{})
	ctx := context.Background()
	req := Request{Kernel: "matmul16", Size: 64, Seed: 7, Measure: true}

	cold, st, err := f.AnalyzeCached(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st != CacheMiss {
		t.Fatalf("first request: %s, want MISS", st)
	}
	// Repeat with a different worker count and a renamed size=0 spelling
	// of the same tuple: still the same slot.
	warm, st, err := f.AnalyzeCached(ctx, Request{Kernel: "matmul16", Size: 64, Seed: 7, Measure: true, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st != CacheHit {
		t.Fatalf("repeat: %s, want HIT", st)
	}

	// No memory tier and no CacheDir: the fleet stores nothing, so its
	// answer is a fresh computation.
	bare := NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: f.opt.CalibrationDir, CacheBytes: -1})
	fresh, err := bare.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// PhaseSeconds is wall-clock telemetry, deliberately outside the
	// determinism contract: the cached HIT replays cold's breakdown
	// verbatim, but the storeless fleet's fresh computation times its
	// own.
	fresh.Diagnostics.PhaseSeconds = cold.Diagnostics.PhaseSeconds
	for name, v := range map[string]*Result{"hit": warm, "uncached": fresh} {
		a, _ := json.Marshal(cold)
		b, _ := json.Marshal(v)
		if !bytes.Equal(a, b) {
			t.Errorf("%s result differs from the cold computed one:\n%s\nvs\n%s", name, a, b)
		}
	}
}

// TestFleetCacheDeviceRename: two catalog names for identical
// hardware share one slot — the fingerprint keys the cache, exactly
// like the calibration cache ("renames don't separate").
func TestFleetCacheDeviceRename(t *testing.T) {
	dev, err := DefaultCatalog().Resolve("gtx285-6sm")
	if err != nil {
		t.Fatal(err)
	}
	cat := NewDeviceCatalog()
	for _, name := range []string{"alpha", "beta"} {
		if err := cat.Register(name, dev); err != nil {
			t.Fatal(err)
		}
	}
	f := cacheTestFleet(t, FleetOptions{Catalog: cat, DefaultDevice: "alpha"})
	ctx := context.Background()

	if _, st, err := f.AnalyzeCached(ctx, Request{Kernel: "matmul16", Size: 64, Device: "alpha"}); err != nil || st != CacheMiss {
		t.Fatalf("alpha: %s, %v", st, err)
	}
	res, st, err := f.AnalyzeCached(ctx, Request{Kernel: "matmul16", Size: 64, Device: "beta"})
	if err != nil || st != CacheHit {
		t.Fatalf("beta after alpha: %s, %v — identical hardware must share a slot", st, err)
	}
	// The cached body still echoes the first resolver's view; only the
	// hardware matters for the key.
	if res.Device != "alpha" {
		t.Logf("note: cached result echoes first requester's name %q", res.Device)
	}
}

// TestFleetSingleflight: N identical concurrent requests cost exactly
// one simulation; everyone else is a hit or coalesces onto the
// leader. Run with -race, this is also the cache's data-race proof.
func TestFleetSingleflight(t *testing.T) {
	f := cacheTestFleet(t, FleetOptions{})
	ctx := context.Background()
	req := Request{Kernel: "spmv-ell", Size: 2048, Seed: 5}

	const n = 8
	results := make([]*Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, err := f.AnalyzeCached(ctx, req)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()

	st := f.CacheStats()
	if st.Misses != 1 {
		t.Errorf("%d simulations ran, want exactly 1 (stats %+v)", st.Misses, st)
	}
	if st.Hits+st.Coalesced != n-1 {
		t.Errorf("hits %d + coalesced %d != %d followers", st.Hits, st.Coalesced, n-1)
	}
	blob, _ := json.Marshal(results[0])
	for i := 1; i < n; i++ {
		b, _ := json.Marshal(results[i])
		if !bytes.Equal(blob, b) {
			t.Fatalf("caller %d got a different result", i)
		}
	}
}

// TestFleetCacheDiskPersistence: with CacheDir set, hits survive
// fleet restarts; a corrupt slot degrades to a recompute that repairs
// the file, never a corrupt answer.
func TestFleetCacheDiskPersistence(t *testing.T) {
	cacheDir := t.TempDir()
	opt := FleetOptions{CacheDir: cacheDir}
	ctx := context.Background()
	req := Request{Kernel: "matmul16", Size: 64, Seed: 3}

	f1 := cacheTestFleet(t, opt)
	calDir := f1.opt.CalibrationDir
	cold, st, err := f1.AnalyzeCached(ctx, req)
	if err != nil || st != CacheMiss {
		t.Fatalf("cold: %s, %v", st, err)
	}
	coldBlob, _ := json.Marshal(cold)

	slots, err := filepath.Glob(filepath.Join(cacheDir, "res-*.json"))
	if err != nil || len(slots) != 1 {
		t.Fatalf("want exactly one slot file, got %v (%v)", slots, err)
	}
	slot := slots[0]
	// The slot's name is the content address of the normalized request.
	a1, _, norm := prepared(t, f1, req)
	want := resultstore.SlotPath(cacheDir, analyzeKey(norm, DeviceFingerprint(a1.Device())))
	if slot != want {
		t.Errorf("slot %s, want %s", slot, want)
	}

	// Restart: a fresh fleet's first answer comes from disk.
	f2 := NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: calDir, CacheDir: cacheDir})
	res, st, err := f2.AnalyzeCached(ctx, req)
	if err != nil || st != CacheHit {
		t.Fatalf("after restart: %s, %v", st, err)
	}
	if b, _ := json.Marshal(res); !bytes.Equal(coldBlob, b) {
		t.Error("disk-served result differs from the computed one")
	}
	if s := f2.CacheStats(); s.DiskHits != 1 {
		t.Errorf("restart stats: %+v, want one disk hit", s)
	}

	// Truncate the slot: the next fleet recomputes (MISS), repairs the
	// file, and still answers bit-identically.
	if err := os.WriteFile(slot, []byte(`{"version":1,`), 0644); err != nil {
		t.Fatal(err)
	}
	f3 := NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: calDir, CacheDir: cacheDir})
	res, st, err = f3.AnalyzeCached(ctx, req)
	if err != nil || st != CacheMiss {
		t.Fatalf("corrupt slot: %s, %v — must degrade to a recompute", st, err)
	}
	// A recompute re-times its phases; everything else must match.
	stripPhases(cold, res)
	normBlob, _ := json.Marshal(cold)
	if b, _ := json.Marshal(res); !bytes.Equal(normBlob, b) {
		t.Error("recomputed result differs")
	}
	f4 := NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: calDir, CacheDir: cacheDir})
	if _, st, err := f4.AnalyzeCached(ctx, req); err != nil || st != CacheHit {
		t.Fatalf("after repair: %s, %v — the recompute should have rewritten the slot", st, err)
	}
}

// TestFleetCompareCached: compare answers cache like the rest —
// MISS then HIT, and a reordered device set with the same baseline
// shares the slot.
func TestFleetCompareCached(t *testing.T) {
	f := cacheTestFleet(t, FleetOptions{})
	ctx := context.Background()
	req := CompareRequest{Kernel: "matmul16", Size: 64, Devices: []string{"gtx285-6sm", "gtx285-3sm"}}

	cold, st, err := f.CompareCached(ctx, req)
	if err != nil || st != CacheMiss {
		t.Fatalf("cold compare: %s, %v", st, err)
	}
	// Same baseline (first device), reordered tail — in a two-device
	// set reordering WOULD move the baseline, so repeat verbatim first.
	warm, st, err := f.CompareCached(ctx, req)
	if err != nil || st != CacheHit {
		t.Fatalf("repeat compare: %s, %v", st, err)
	}
	a, _ := json.Marshal(cold)
	b, _ := json.Marshal(warm)
	if !bytes.Equal(a, b) {
		t.Error("cached comparison differs from computed")
	}
	// Flipping the baseline is a different question: new slot.
	if _, st, err := f.CompareCached(ctx, CompareRequest{Kernel: "matmul16", Size: 64, Devices: []string{"gtx285-3sm", "gtx285-6sm"}}); err != nil {
		t.Fatal(err)
	} else if st != CacheMiss {
		t.Errorf("baseline flip: %s, want MISS", st)
	}
}
