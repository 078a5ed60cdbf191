package gpuperf

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHandlerAnalyzeHappyPath: POST /v1/analyze returns a complete
// JSON Result for a well-formed request.
func TestHandlerAnalyzeHappyPath(t *testing.T) {
	h := NewHandler(testFleet(t))
	req := httptest.NewRequest("POST", "/v1/analyze",
		strings.NewReader(`{"kernel":"matmul16","size":64,"seed":7}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	var res Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if res.Kernel != "matmul16" || res.Bottleneck == "" || res.PredictedSeconds <= 0 {
		t.Errorf("incomplete result: %+v", res)
	}
}

// TestHandlerAnalyzeUnknownKernel maps ErrUnknownKernel to 404.
func TestHandlerAnalyzeUnknownKernel(t *testing.T) {
	h := NewHandler(testFleet(t))
	req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(`{"kernel":"nope"}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404 (body %s)", rec.Code, rec.Body)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
		t.Errorf("error body should be {\"error\": ...}, got %s", rec.Body)
	}
}

// TestHandlerAnalyzeMalformedBody maps JSON errors to 400 — both
// syntax errors and unknown fields.
func TestHandlerAnalyzeMalformedBody(t *testing.T) {
	h := NewHandler(testFleet(t))
	for _, body := range []string{
		`{"kernel":`,
		`{"bogus_field":1}`,
		``,
		`{"kernel":"matmul16","size":64} {"kernel":"bogus"}`, // trailing object
		`{"kernel":"matmul16","size":64} junk`,               // trailing garbage
	} {
		req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, rec.Code)
		}
	}
}

// TestHandlerAnalyzeOversizedBody: a body past the byte cap gets 413.
func TestHandlerAnalyzeOversizedBody(t *testing.T) {
	h := NewHandler(testFleet(t))
	body := `{"kernel":"` + strings.Repeat("x", 1<<17) + `"}`
	req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rec.Code)
	}
}

// TestHandlerAnalyzeOversizedRequest: sizes beyond the kernel's
// ceiling are the client's fault — 400, not an OOM or a 500.
func TestHandlerAnalyzeOversizedRequest(t *testing.T) {
	h := NewHandler(testFleet(t))
	req := httptest.NewRequest("POST", "/v1/analyze",
		strings.NewReader(`{"kernel":"matmul32","size":32768}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", rec.Code, rec.Body)
	}
}

// TestHandlerAnalyzeCancelledContext: a dead request context (the
// client hung up) aborts the simulation and reports 503.
func TestHandlerAnalyzeCancelledContext(t *testing.T) {
	h := NewHandler(testFleet(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/analyze",
		strings.NewReader(`{"kernel":"spmv-ell","size":4096}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (body %s)", rec.Code, rec.Body)
	}
}

// TestHandlerKernels: GET /v1/kernels lists the registry.
func TestHandlerKernels(t *testing.T) {
	h := NewHandler(testFleet(t))
	req := httptest.NewRequest("GET", "/v1/kernels", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var specs []KernelSpec
	if err := json.Unmarshal(rec.Body.Bytes(), &specs); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	names := map[string]KernelSpec{}
	for _, s := range specs {
		names[s.Name] = s
	}
	for _, want := range []string{"matmul-naive", "matmul16", "cr-nbc", "spmv-bell-imiv"} {
		if _, ok := names[want]; !ok {
			t.Errorf("kernel list missing %s: %v", want, names)
		}
	}
	// The listing carries the discovery metadata advisor clients pair
	// counterfactuals with: description, size bounds, variant family
	// and the realized optimization.
	for name, s := range names {
		if s.Description == "" || s.MaxSize <= 0 || s.Family == "" {
			t.Errorf("kernel %s metadata incomplete on the wire: %+v", name, s)
		}
	}
	if got := names["cr-nbc"].Optimization; got != "conflict-free-shared" {
		t.Errorf("cr-nbc optimization on the wire = %q, want conflict-free-shared", got)
	}
	if names["cr"].Family != "cr" || names["cr-nbc"].Family != "cr" {
		t.Errorf("cr variant family broken: %+v vs %+v", names["cr"], names["cr-nbc"])
	}
}

// TestHandlerAdviseHappyPath: POST /v1/advise returns the ranked
// counterfactual report.
func TestHandlerAdviseHappyPath(t *testing.T) {
	h := NewHandler(testFleet(t))
	req := httptest.NewRequest("POST", "/v1/advise",
		strings.NewReader(`{"kernel":"matmul-naive","size":128,"seed":7}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	var adv Advice
	if err := json.Unmarshal(rec.Body.Bytes(), &adv); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if adv.Kernel != "matmul-naive" || len(adv.Scenarios) != 5 || adv.Top != "perfect-coalescing" {
		t.Errorf("incomplete advice: %+v", adv)
	}
}

// TestHandlerAdviseErrors: the advise endpoint shares the analyze
// endpoint's error mapping.
func TestHandlerAdviseErrors(t *testing.T) {
	h := NewHandler(testFleet(t))
	cases := []struct {
		body string
		want int
	}{
		{`{"kernel":"nope"}`, http.StatusNotFound},
		{`{"kernel":"matmul16","size":1048576}`, http.StatusBadRequest},
		{`{"kernel":`, http.StatusBadRequest},
		{`{"kernel":"cr"} trailing`, http.StatusBadRequest},
	}
	for _, c := range cases {
		req := httptest.NewRequest("POST", "/v1/advise", strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Errorf("body %q: status %d, want %d (%s)", c.body, rec.Code, c.want, rec.Body)
		}
	}
}

// TestHandlerAdviseCancelledContext: an aborted client maps to 503.
func TestHandlerAdviseCancelledContext(t *testing.T) {
	h := NewHandler(testFleet(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/advise",
		strings.NewReader(`{"kernel":"matmul16","size":64}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (body %s)", rec.Code, rec.Body)
	}
}

// TestHandlerHealthz: /healthz is readiness-aware — a JSON
// FleetHealth answering 503 "starting" until the default device's
// calibration is loaded or built, 200 "ok" after, and probing never
// triggers a calibration itself (a router polls workers' /healthz;
// the probe must not force every worker to calibrate its default
// device).
func TestHandlerHealthz(t *testing.T) {
	a := testAnalyzer(t)
	dir := t.TempDir()
	if err := a.cal.SaveCachedCalibration(dir); err != nil {
		t.Fatal(err)
	}
	f := NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: dir})
	h := NewHandler(f)

	get := func() (int, FleetHealth) {
		t.Helper()
		req := httptest.NewRequest("GET", "/healthz", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var fh FleetHealth
		if err := json.Unmarshal(rec.Body.Bytes(), &fh); err != nil {
			t.Fatalf("healthz body is not FleetHealth JSON: %v (%s)", err, rec.Body)
		}
		return rec.Code, fh
	}

	// Fresh fleet: not ready, and the probe itself must not change that.
	for i := 0; i < 2; i++ {
		code, fh := get()
		if code != http.StatusServiceUnavailable || fh.Status != "starting" {
			t.Fatalf("probe %d: %d %q, want 503 starting", i, code, fh.Status)
		}
		if len(fh.Devices) != 1 || fh.Devices[0].Device != "gtx285-6sm" || !fh.Devices[0].Default {
			t.Fatalf("probe %d devices: %+v", i, fh.Devices)
		}
		if fh.Devices[0].Calibrated {
			t.Fatalf("probe %d: default reported calibrated before any work", i)
		}
	}

	// Readiness arrives when the default device's calibration does
	// (here loaded from the seeded cache).
	sess, err := f.Session("")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Calibrate(); err != nil {
		t.Fatal(err)
	}
	code, fh := get()
	if code != http.StatusOK || fh.Status != "ok" {
		t.Fatalf("after calibration: %d %q, want 200 ok", code, fh.Status)
	}
	d := fh.Devices[0]
	if !d.Calibrated || !d.FromCache || d.Fingerprint == "" {
		t.Errorf("ready device entry incomplete: %+v", d)
	}
}

// TestHandlerStats: GET /v1/stats exposes the result-cache counters,
// and they move with traffic.
func TestHandlerStats(t *testing.T) {
	h := NewHandler(testFleet(t))
	get := func() CacheStats {
		t.Helper()
		req := httptest.NewRequest("GET", "/v1/stats", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("stats status %d", rec.Code)
		}
		var st CacheStats
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("bad stats JSON: %v", err)
		}
		return st
	}
	before := get()
	body := `{"kernel":"matmul16","size":64,"seed":41}`
	for i := 0; i < 2; i++ {
		req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("analyze %d: status %d (%s)", i, rec.Code, rec.Body)
		}
	}
	after := get()
	if after.Misses != before.Misses+1 {
		t.Errorf("misses %d -> %d, want exactly one more", before.Misses, after.Misses)
	}
	if after.Hits != before.Hits+1 {
		t.Errorf("hits %d -> %d, want exactly one more", before.Hits, after.Hits)
	}
	if after.Entries == 0 || after.Bytes == 0 || after.MemoryBudgetBytes != DefaultCacheBytes {
		t.Errorf("gauges look wrong: %+v", after)
	}
}

// TestHandlerStaticCachingHeaders: the listings carry a strong ETag
// and a matching If-None-Match turns into 304 with an empty body. The
// device listing is fully static and adds Cache-Control; the kernel
// listing does not — submissions make it change under a running
// server, so clients must revalidate.
func TestHandlerStaticCachingHeaders(t *testing.T) {
	h := NewHandler(testFleet(t))
	for _, path := range []string{"/v1/kernels", "/v1/devices"} {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
		etag := rec.Header().Get("ETag")
		if len(etag) < 4 || !strings.HasPrefix(etag, `"`) || !strings.HasSuffix(etag, `"`) {
			t.Fatalf("%s: ETag %q is not a quoted strong validator", path, etag)
		}
		cc := rec.Header().Get("Cache-Control")
		if path == "/v1/devices" && !strings.Contains(cc, "max-age") {
			t.Errorf("%s: Cache-Control %q", path, cc)
		}
		if path == "/v1/kernels" && cc != "" {
			t.Errorf("%s: dynamic listing carries Cache-Control %q", path, cc)
		}

		req = httptest.NewRequest("GET", path, nil)
		req.Header.Set("If-None-Match", etag)
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
			t.Errorf("%s revalidation: %d with %d body bytes, want bare 304", path, rec.Code, rec.Body.Len())
		}

		// A stale validator re-serves the full body.
		req = httptest.NewRequest("GET", path, nil)
		req.Header.Set("If-None-Match", `"deadbeef"`)
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Body.Len() == 0 {
			t.Errorf("%s stale revalidation: %d with %d body bytes, want full 200", path, rec.Code, rec.Body.Len())
		}
	}
}

// TestHandlerDevices: GET /v1/devices lists the catalog profiles
// with names, fingerprints and architectural knobs.
func TestHandlerDevices(t *testing.T) {
	h := NewHandler(testFleet(t))
	req := httptest.NewRequest("GET", "/v1/devices", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var profiles []DeviceProfile
	if err := json.Unmarshal(rec.Body.Bytes(), &profiles); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	byName := map[string]DeviceProfile{}
	for _, p := range profiles {
		byName[p.Name] = p
	}
	for _, want := range []string{"gtx285", "gtx285-6sm", "gtx285+banks17", "tesla-c1060"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("device list missing %s", want)
		}
	}
	for name, p := range byName {
		if p.Fingerprint == "" || p.NumSMs <= 0 || p.PeakGFLOPS <= 0 || p.SharedMemBanks <= 0 {
			t.Errorf("device %s profile incomplete on the wire: %+v", name, p)
		}
	}
	if byName["gtx285+banks17"].SharedMemBanks != 17 {
		t.Errorf("banks17 profile carries %d banks", byName["gtx285+banks17"].SharedMemBanks)
	}
	if byName["gtx285"].Fingerprint == byName["gtx285-6sm"].Fingerprint {
		t.Error("full chip and slice share a fingerprint on the wire")
	}
}

// TestHandlerAnalyzeDeviceRouting: the analyze body's device field
// selects the catalog entry; unknown devices map to 404.
func TestHandlerAnalyzeDeviceRouting(t *testing.T) {
	h := NewHandler(testFleet(t))
	req := httptest.NewRequest("POST", "/v1/analyze",
		strings.NewReader(`{"kernel":"matmul16","size":64,"seed":7,"device":"gtx285-6sm"}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	var res Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if res.Device != "gtx285-6sm" {
		t.Errorf("result device %q, want gtx285-6sm", res.Device)
	}
	req = httptest.NewRequest("POST", "/v1/analyze",
		strings.NewReader(`{"kernel":"matmul16","size":64,"device":"gtx999"}`))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown device: status %d, want 404 (body %s)", rec.Code, rec.Body)
	}
}

// TestHandlerMeasure: POST /v1/measure returns a Measurement without
// any model fields — the calibration-free timing path on the wire.
func TestHandlerMeasure(t *testing.T) {
	h := NewHandler(testFleet(t))
	req := httptest.NewRequest("POST", "/v1/measure",
		strings.NewReader(`{"kernel":"matmul16","size":64,"seed":7}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	var m Measurement
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if m.Kernel != "matmul16" || m.Device != "gtx285-6sm" || m.Seconds <= 0 || m.Dominant == "" {
		t.Errorf("incomplete measurement: %+v", m)
	}
	// The measure endpoint shares the analyze endpoint's error map.
	for body, want := range map[string]int{
		`{"kernel":"nope"}`:                       http.StatusNotFound,
		`{"kernel":"matmul16","device":"gtx999"}`: http.StatusNotFound,
		`{"kernel":"matmul32","size":32768}`:      http.StatusBadRequest,
		`{"kernel":`:                              http.StatusBadRequest,
	} {
		req := httptest.NewRequest("POST", "/v1/measure", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != want {
			t.Errorf("body %q: status %d, want %d", body, rec.Code, want)
		}
	}
}

// TestHandlerCompare: POST /v1/compare ranks the kernel across the
// requested devices.
func TestHandlerCompare(t *testing.T) {
	h := NewHandler(testFleet(t))
	req := httptest.NewRequest("POST", "/v1/compare",
		strings.NewReader(`{"kernel":"matmul16","size":256,"seed":7,"devices":["gtx285-3sm","gtx285-6sm"]}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	var cmp Comparison
	if err := json.Unmarshal(rec.Body.Bytes(), &cmp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(cmp.Entries) != 2 || cmp.Best != "gtx285-6sm" || cmp.Baseline != "gtx285-3sm" {
		t.Errorf("incomplete comparison: %+v", cmp)
	}
}

// TestHandlerCompareErrors: compare maps its validation failures to
// the shared status codes.
func TestHandlerCompareErrors(t *testing.T) {
	h := NewHandler(testFleet(t))
	cases := []struct {
		body string
		want int
	}{
		{`{"kernel":"matmul16"}`, http.StatusBadRequest},                                         // no devices
		{`{"kernel":"matmul16","devices":["gtx999"]}`, http.StatusNotFound},                      // unknown device
		{`{"kernel":"nope","devices":["gtx285-6sm"]}`, http.StatusNotFound},                      // unknown kernel
		{`{"kernel":"matmul16","devices":["gtx285-6sm","gtx285-6sm"]}`, http.StatusBadRequest},   // duplicate
		{`{"kernel":"matmul16","devices":["gtx285-6sm"],"bogus":1}`, http.StatusBadRequest},      // unknown field
		{`{"kernel":"matmul16","devices":["gtx285-6sm"]} junk`, http.StatusBadRequest},           // trailing garbage
		{`{"kernel":"matmul16","devices":["gtx285-6sm"],"baseline":"x"}`, http.StatusBadRequest}, // foreign baseline
	}
	for _, c := range cases {
		req := httptest.NewRequest("POST", "/v1/compare", strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Errorf("body %q: status %d, want %d (%s)", c.body, rec.Code, c.want, rec.Body)
		}
	}
}

// TestWriteJSONEncodeFailure: an unencodable value must not produce
// a silent 200 — the guard answers 500 with a JSON error body.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/test", nil)
	writeJSON(rec, req, http.StatusOK, math.NaN()) // JSON cannot encode NaN
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
		t.Errorf("error body should be {\"error\": ...}, got %q (%v)", rec.Body, err)
	}
	// And the happy path still writes the caller's status exactly once.
	rec = httptest.NewRecorder()
	writeJSON(rec, req, http.StatusTeapot, map[string]int{"x": 1})
	if rec.Code != http.StatusTeapot || !strings.Contains(rec.Body.String(), `"x": 1`) {
		t.Errorf("happy path: %d %q", rec.Code, rec.Body)
	}
}

// TestHTTPCacheSpeedupAndStats is the acceptance criterion for the
// result cache at the HTTP layer: a repeat of an identical
// /v1/analyze is served byte-identically from the cache, at least two
// orders of magnitude faster than the cold miss, with the X-Cache
// header flipping MISS -> HIT, the stats counters moving, and a
// revalidation via the cold response's ETag collapsing to a bare 304.
func TestHTTPCacheSpeedupAndStats(t *testing.T) {
	// A private fleet (seeded with the shared session's calibration so
	// the cold time measures simulation, not calibration) keeps the
	// counters deterministic.
	a := testAnalyzer(t)
	dir := t.TempDir()
	if err := a.cal.SaveCachedCalibration(dir); err != nil {
		t.Fatal(err)
	}
	f := NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: dir})
	h := NewHandler(f)

	const body = `{"kernel":"spmv-ell","size":4096,"seed":9}`
	post := func() (*httptest.ResponseRecorder, time.Duration) {
		t.Helper()
		req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(body))
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		elapsed := time.Since(start)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d (%s)", rec.Code, rec.Body)
		}
		return rec, elapsed
	}

	cold, coldTime := post()
	if got := cold.Header().Get("X-Cache"); got != string(CacheMiss) {
		t.Fatalf("cold X-Cache %q, want MISS", got)
	}
	warm, warmTime := post()
	if got := warm.Header().Get("X-Cache"); got != string(CacheHit) {
		t.Fatalf("warm X-Cache %q, want HIT", got)
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Error("cached response is not byte-identical to the computed one")
	}
	if warm.Header().Get("ETag") != cold.Header().Get("ETag") {
		t.Errorf("ETag changed across the hit: %q vs %q",
			cold.Header().Get("ETag"), warm.Header().Get("ETag"))
	}
	// The >=100x bar: a cold spmv-ell@4096 simulates for hundreds of
	// milliseconds; a hit decodes ~2 KB of JSON. Guard against a
	// pathologically fast cold run (CI noise) rather than fail falsely.
	if coldTime > 10*time.Millisecond && warmTime > coldTime/100 {
		t.Errorf("hit not >=100x faster: cold %v, warm %v", coldTime, warmTime)
	}
	t.Logf("cold %v, warm %v (%.0fx)", coldTime, warmTime,
		float64(coldTime)/float64(warmTime))

	// Conditional repeat: the client already holds the bytes.
	req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(body))
	req.Header.Set("If-None-Match", cold.Header().Get("ETag"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Errorf("revalidation: %d with %d body bytes, want bare 304",
			rec.Code, rec.Body.Len())
	}

	st := f.CacheStats()
	if st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Errorf("stats after cold+hit+304: %+v", st)
	}
}
