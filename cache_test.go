package gpuperf

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gpuperf/internal/resultstore"
	"gpuperf/internal/slot"
	"gpuperf/internal/timing"
)

// cacheTestFleet builds a private fleet seeded with the shared test
// session's calibration, so cache tests measure the cache, not a
// 6-SM calibration per test.
func cacheTestFleet(t testing.TB, opt FleetOptions) *Fleet {
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
	file := slots[0]
	// The slot's name is the content address of the normalized request.
	a1, _, norm := prepared(t, f1, req)
	want := slot.Path(cacheDir, "res-"+analyzeKey(norm, DeviceFingerprint(a1.Device())))
	if file != want {
		t.Errorf("slot %s, want %s", file, want)
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
	if err := os.WriteFile(file, []byte(`{"version":1,`), 0644); err != nil {
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

// servedLegs are the result-cache hits TestCacheHitAllocs and
// BenchmarkCacheHit serve through NewHandler: a small and a large
// analysis (about 2 KB and 17 KB served) and an advice.
var servedLegs = []struct{ name, path, body string }{
	{"analyze", "/v1/analyze", `{"kernel":"spmv-ell"}`},
	{"analyze-17KB", "/v1/analyze", `{"kernel":"matmul8","size":256}`},
	{"advise", "/v1/advise", `{"kernel":"matmul16","size":64}`},
}

// postJSON serves one JSON POST through h, with If-None-Match when
// inm is set.
func postJSON(h http.Handler, path, body, inm string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestCacheHitAllocs: a result-cache HIT and a 304 revalidation
// through NewHandler make at most 100 allocations, for a small and a
// 17 KB body alike. The routes write the stored bytes; decoding and
// re-encoding them took 125 to 212, growing with the body.
func TestCacheHitAllocs(t *testing.T) {
	h := NewHandler(cacheTestFleet(t, FleetOptions{}))
	const runs = 20
	for _, leg := range servedLegs {
		miss := postJSON(h, leg.path, leg.body, "")
		if miss.Code != http.StatusOK {
			t.Fatalf("%s: %d (%s)", leg.name, miss.Code, miss.Body)
		}
		for _, c := range []struct {
			name, inm string
			code      int
		}{{"HIT", "", http.StatusOK}, {"304", miss.Header().Get("ETag"), http.StatusNotModified}} {
			// Requests and recorders are made outside the count.
			reqs := make([]*http.Request, runs+1)
			recs := make([]*httptest.ResponseRecorder, runs+1)
			for i := range reqs {
				reqs[i] = httptest.NewRequest("POST", leg.path, strings.NewReader(leg.body))
				if c.inm != "" {
					reqs[i].Header.Set("If-None-Match", c.inm)
				}
				recs[i] = httptest.NewRecorder()
			}
			i := 0
			allocs := testing.AllocsPerRun(runs, func() {
				h.ServeHTTP(recs[i], reqs[i])
				i++
			})
			for _, rec := range recs {
				if rec.Code != c.code || rec.Header().Get("X-Cache") != string(CacheHit) {
					t.Fatalf("%s %s: %d X-Cache %q, want %d HIT", leg.name, c.name, rec.Code, rec.Header().Get("X-Cache"), c.code)
				}
			}
			t.Logf("%s %s (%d B body): %.0f allocations", leg.name, c.name, miss.Body.Len(), allocs)
			if allocs > 100 {
				t.Errorf("%s %s (%d B body): %.0f allocations, want at most 100", leg.name, c.name, miss.Body.Len(), allocs)
			}
		}
	}
}

// BenchmarkCacheHit times result-cache hits through the HTTP layer,
// each request built by httptest inside the loop: an analyze HIT
// with a small and a 17 KB body, an advise HIT, a 304 revalidation,
// and a compare HIT routed over two workers, which gathers one
// analyze HIT per device over loopback HTTP. Access logs are
// discarded, as in the request benchmark's hot workload.
func BenchmarkCacheHit(b *testing.B) {
	quiet := Telemetry{Logger: slog.New(slog.DiscardHandler)}
	leg := func(b *testing.B, h http.Handler, path, body, inm string, code int) {
		b.Helper()
		if rec := postJSON(h, path, body, inm); rec.Code != code {
			b.Fatalf("%s: %d (%s)", path, rec.Code, rec.Body)
		}
		if rec := postJSON(h, path, body, inm); rec.Header().Get("X-Cache") != string(CacheHit) {
			b.Fatalf("%s: X-Cache %q on the repeat, want HIT", path, rec.Header().Get("X-Cache"))
		}
		b.ReportAllocs()
		for b.Loop() {
			postJSON(h, path, body, inm)
		}
	}
	h := NewObservedHandler(cacheTestFleet(b, FleetOptions{}), quiet)
	for _, l := range servedLegs {
		b.Run(l.name, func(b *testing.B) { leg(b, h, l.path, l.body, "", http.StatusOK) })
	}
	b.Run("304", func(b *testing.B) {
		l := servedLegs[0]
		etag := postJSON(h, l.path, l.body, "").Header().Get("ETag")
		leg(b, h, l.path, l.body, etag, http.StatusNotModified)
	})
	b.Run("compare-routed", func(b *testing.B) {
		var urls []string
		for range 2 {
			srv := httptest.NewServer(NewObservedHandler(cacheTestFleet(b, FleetOptions{}), quiet))
			b.Cleanup(srv.Close)
			urls = append(urls, srv.URL)
		}
		rt := routerOver(b, RouterOptions{Workers: urls, DefaultDevice: "gtx285-6sm", Telemetry: quiet})
		leg(b, rt.Handler(), "/v1/compare", `{"kernel":"matmul16","size":64,"devices":["gtx285-6sm","gtx285-3sm"]}`, "", http.StatusOK)
	})
}

// TestServedBodyRoundTrip: the body the store keeps for a computed
// value, and serves on every hit, equals encodeJSON of the value's
// compact JSON decoded again — the bytes the service sent when the
// store held the compact form — for an analysis, a measured
// analysis, an advice and a comparison.
func TestServedBodyRoundTrip(t *testing.T) {
	f := cacheTestFleet(t, FleetOptions{})
	ctx := context.Background()
	check := func(name string, compute func(context.Context) (any, error), decoded any) {
		t.Helper()
		var v any
		served, st, err := cachedBody(ctx, f, "round-trip "+name, func(ctx context.Context) (any, error) {
			var err error
			v, err = compute(ctx)
			return v, err
		})
		if err != nil || st != CacheMiss {
			t.Fatalf("%s: %s, %v", name, st, err)
		}
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(compact, decoded); err != nil {
			t.Fatal(err)
		}
		want, err := encodeJSON(decoded)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(served, want) {
			t.Errorf("%s: served body differs from the re-encoded compact form:\n%s\nvs\n%s", name, served, want)
		}
		if hit, st, err := cachedBody(ctx, f, "round-trip "+name, compute); err != nil || st != CacheHit || !bytes.Equal(hit, served) {
			t.Errorf("%s: hit %s, %v; body equal %v", name, st, err, bytes.Equal(hit, served))
		}
	}
	for _, req := range []Request{
		{Kernel: "matmul16", Size: 128, Seed: 5},
		{Kernel: "cr", Size: 64, Seed: 2, Measure: true},
	} {
		a, spec, req := prepared(t, f, req)
		check("analyze "+req.Kernel, func(ctx context.Context) (any, error) { return a.analyze(ctx, spec, req) }, new(Result))
		check("advise "+req.Kernel, func(ctx context.Context) (any, error) { return a.advise(ctx, spec, req) }, new(Advice))
	}
	creq := CompareRequest{Kernel: "spmv-ell", Devices: []string{"gtx285-6sm", "gtx285-3sm"}, Measure: true}
	check("compare", func(ctx context.Context) (any, error) {
		cmp, _, err := compareFanout(ctx, f.catalog, creq, creq.Devices[0], f.analyzeLeg)
		return cmp, err
	}, new(Comparison))
}

// TestServedBodyReadOnly: every caller shares the stored body and
// none can write into it. Concurrent HTTP hits, typed decodes and
// appends to the served slice on one key run together (under -race
// this fails if an append could reach the shared backing array), and
// bodies from memory and from disk come clipped.
func TestServedBodyReadOnly(t *testing.T) {
	cacheDir := t.TempDir()
	f := cacheTestFleet(t, FleetOptions{CacheDir: cacheDir})
	h := NewHandler(f)
	ctx := context.Background()
	const body = `{"kernel":"matmul16","size":64,"seed":11}`
	req := Request{Kernel: "matmul16", Size: 64, Seed: 11}
	want := postJSON(h, "/v1/analyze", body, "").Body.Bytes()

	var wg sync.WaitGroup
	for g := range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 10 {
				switch g % 3 {
				case 0:
					if rec := postJSON(h, "/v1/analyze", body, ""); rec.Header().Get("X-Cache") != string(CacheHit) || !bytes.Equal(rec.Body.Bytes(), want) {
						t.Errorf("concurrent HIT: X-Cache %q, body equal %v", rec.Header().Get("X-Cache"), bytes.Equal(rec.Body.Bytes(), want))
					}
				case 1:
					if _, st, err := f.AnalyzeCached(ctx, req); err != nil || st != CacheHit {
						t.Errorf("concurrent typed HIT: %s, %v", st, err)
					}
				case 2:
					b, _, err := f.analyzeJSON(ctx, req)
					if err != nil {
						t.Error(err)
						continue
					}
					// The append must copy, so this write lands in
					// the caller's copy, not the stored body.
					b = append(b, "appended by a caller"...)
					b[0] = 'x'
				}
			}
		}()
	}
	wg.Wait()
	if rec := postJSON(h, "/v1/analyze", body, ""); !bytes.Equal(rec.Body.Bytes(), want) {
		t.Error("a caller's append reached the stored body")
	}

	for name, fl := range map[string]*Fleet{
		"memory": f,
		"disk":   NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: f.opt.CalibrationDir, CacheDir: cacheDir}),
	} {
		b, st, err := fl.analyzeJSON(ctx, req)
		if err != nil || st != CacheHit {
			t.Fatalf("%s: %s, %v", name, st, err)
		}
		if cap(b) != len(b) || !bytes.Equal(b, want) {
			t.Errorf("%s hit: len %d cap %d, body equal %v; want a clipped copy of the served body", name, len(b), cap(b), bytes.Equal(b, want))
		}
	}
}

// TestFleetCacheCompactSlotIsAMiss: a disk slot an older build wrote,
// a version-1 envelope around the compact JSON that build stored,
// reads as a MISS. The recompute serves the bytes a fresh fleet
// serves and rewrites the slot, which the next fleet serves as a
// disk HIT.
func TestFleetCacheCompactSlotIsAMiss(t *testing.T) {
	const body = `{"kernel":"matmul16","size":64,"seed":3}`
	fresh := cacheTestFleet(t, FleetOptions{})
	calDir := fresh.opt.CalibrationDir
	first := postJSON(NewHandler(fresh), "/v1/analyze", body, "")
	if first.Code != http.StatusOK {
		t.Fatalf("fresh fleet: %d (%s)", first.Code, first.Body)
	}
	var res Result
	if err := json.Unmarshal(first.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	compact, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	a, _, norm := prepared(t, fresh, Request{Kernel: "matmul16", Size: 64, Seed: 3})
	key := analyzeKey(norm, DeviceFingerprint(a.Device()))
	cacheDir := t.TempDir()
	if err := slot.Write(cacheDir, "res-"+key, 1, key, compact, 0o644); err != nil {
		t.Fatal(err)
	}

	// Phase timings are re-measured by every computation; everything
	// else must match the fresh fleet's bytes.
	withoutPhases := func(b []byte) []byte {
		t.Helper()
		var r Result
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		stripPhases(&r)
		out, err := encodeJSON(&r)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	opt := FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: calDir, CacheDir: cacheDir}
	old := postJSON(NewHandler(NewFleet(opt)), "/v1/analyze", body, "")
	if old.Code != http.StatusOK || old.Header().Get("X-Cache") != string(CacheMiss) {
		t.Fatalf("version-1 slot: %d X-Cache %q, want 200 MISS", old.Code, old.Header().Get("X-Cache"))
	}
	if !bytes.Equal(withoutPhases(old.Body.Bytes()), withoutPhases(first.Body.Bytes())) {
		t.Errorf("recompute over a version-1 slot differs from a fresh fleet:\n%s\nvs\n%s", old.Body, first.Body)
	}
	f := NewFleet(opt)
	rewritten := postJSON(NewHandler(f), "/v1/analyze", body, "")
	if rewritten.Header().Get("X-Cache") != string(CacheHit) || f.CacheStats().DiskHits != 1 {
		t.Errorf("after the recompute: X-Cache %q, stats %+v; want a disk HIT", rewritten.Header().Get("X-Cache"), f.CacheStats())
	}
	if !bytes.Equal(rewritten.Body.Bytes(), old.Body.Bytes()) || rewritten.Header().Get("ETag") != old.Header().Get("ETag") {
		t.Error("the rewritten slot does not serve the recompute's body and ETag")
	}
}

// TestFleetCacheOtherModelVersionIsAMiss: a result slot written under
// another model version reads as a MISS, so a change that moves a
// prediction never serves an answer cached before it. At version 0
// every key equals the one earlier builds made, so their slots still
// hit.
func TestFleetCacheOtherModelVersionIsAMiss(t *testing.T) {
	if timing.ModelVersion == 0 {
		for got, want := range map[string]string{
			analyzeKey(Request{Kernel: "matmul16", Size: 64, Seed: 3}, "aaaa"):                        "df6f06bb51f29ceb2ef14d91c231f988f38c14265365596779d27fa00dff3bc5",
			adviseKey(Request{Kernel: "matmul16", Size: 64, Seed: 3}, "aaaa"):                         "4a4863e8fe59c6ca3a01ffa6d35695129a74bbe48fda7263fd31c9ca8cb92709",
			compareKey(CompareRequest{Kernel: "spmv-ell", Size: 4096}, []string{"fpB", "fpA"}, "fpA"): "ca741f46c2521053821797f6468e3769d503901c18c6dbc1ab93957cb828f8aa",
		} {
			if got != want {
				t.Errorf("key %s, want the earlier builds' %s", got, want)
			}
		}
	}
	const body = `{"kernel":"matmul16","size":64,"seed":3}`
	f := cacheTestFleet(t, FleetOptions{CacheDir: t.TempDir()})
	a, _, norm := prepared(t, f, Request{Kernel: "matmul16", Size: 64, Seed: 3})
	fp := DeviceFingerprint(a.Device())
	key := func(model int) string {
		return requestKey{Op: "analyze", Kernel: norm.Kernel, Size: norm.Size, Seed: norm.Seed, Device: fp, Model: model}.digest()
	}
	if key(timing.ModelVersion) != analyzeKey(norm, fp) {
		t.Fatal("analyzeKey's pre-image is not the one this test varies")
	}
	resultstore.New(resultstore.Config{Dir: f.opt.CacheDir}).Put(key(timing.ModelVersion+1), []byte("{\"stale\": true}\n"))
	rec := postJSON(NewHandler(f), "/v1/analyze", body, "")
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != string(CacheMiss) || strings.Contains(rec.Body.String(), "stale") {
		t.Errorf("slot of another model version: %d X-Cache %q body %.80s; want a computed 200 MISS", rec.Code, rec.Header().Get("X-Cache"), rec.Body)
	}
}
