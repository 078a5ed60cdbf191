package gpuperf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gpuperf/internal/obs"
)

// TestWorkerMetricsEndpoint: GET /metrics serves a Prometheus text
// exposition whose counters reflect served traffic — the per-op
// request counter, the per-route HTTP counter, the latency histogram
// labeled by op and cache status, one phase sample per phase of every
// computed analyze, advise and measure, and the always-on
// runtime/engine series.
func TestWorkerMetricsEndpoint(t *testing.T) {
	h := NewHandler(cacheTestFleet(t, FleetOptions{}))
	for _, path := range []string{"/v1/analyze", "/v1/advise", "/v1/measure"} {
		req := httptest.NewRequest("POST", path,
			strings.NewReader(`{"kernel":"matmul16","size":64,"seed":7}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}

	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	if mrec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", mrec.Code)
	}
	if ct := mrec.Header().Get("Content-Type"); ct != obs.TextContentType {
		t.Errorf("Content-Type %q, want %q", ct, obs.TextContentType)
	}
	body := mrec.Body.String()
	for _, want := range []string{
		`gpuperf_requests_total{op="analyze"} 1`,
		`gpuperf_requests_total{op="compare"} 0`, // pre-created: absence of traffic is visible
		`gpuperf_http_requests_total{route="/v1/analyze",method="POST",code="200"} 1`,
		`gpuperf_http_request_seconds_count{op="analyze",cache="miss"} 1`,
		`gpuperf_phase_seconds_count{phase="engine"} 2`,  // analyze + advise
		`gpuperf_phase_seconds_count{phase="measure"} 1`, // measure
		`gpuperf_phase_seconds_count{phase="build"} 3`,   // all three
		"# TYPE gpuperf_http_request_seconds histogram",
		"gpuperf_uptime_seconds",
		"gpuperf_engine_blocks_simulated_total",
		"gpuperf_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
}

// TestRequestIDPropagation: a client-supplied X-Request-ID is echoed
// back; a missing or malformed one is replaced with a fresh id.
func TestRequestIDPropagation(t *testing.T) {
	h := NewHandler(testFleet(t))
	serve := func(id string) string {
		req := httptest.NewRequest("GET", "/healthz", nil)
		if id != "" {
			req.Header.Set("X-Request-ID", id)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Header().Get("X-Request-ID")
	}
	if got := serve("client-id-42"); got != "client-id-42" {
		t.Errorf("valid inbound id not echoed: %q", got)
	}
	if got := serve(""); got == "" {
		t.Error("no inbound id: response should carry a generated one")
	}
	if got := serve("bad id\nwith junk"); got == "" || strings.Contains(got, "\n") {
		t.Errorf("malformed inbound id should be replaced, got %q", got)
	}
}

// TestStatsUptimeAndRequests: /v1/stats reports service uptime and
// per-op request counts alongside the cache counters.
func TestStatsUptimeAndRequests(t *testing.T) {
	f := cacheTestFleet(t, FleetOptions{})
	h := NewHandler(f)
	areq := httptest.NewRequest("POST", "/v1/analyze",
		strings.NewReader(`{"kernel":"matmul16","size":64,"seed":7}`))
	h.ServeHTTP(httptest.NewRecorder(), areq)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	var st CacheStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.UptimeSeconds < 0 {
		t.Errorf("uptime %v, want >= 0", st.UptimeSeconds)
	}
	if st.Requests["analyze"] != 1 {
		t.Errorf("requests %v, want analyze=1", st.Requests)
	}
}

// TestSlowRequestTrace: a request slower than the threshold logs its
// span tree — the "why was this slow" breakdown — at WARN, and the
// Result itself carries the same phases in Diagnostics.
func TestSlowRequestTrace(t *testing.T) {
	var buf bytes.Buffer
	h := NewObservedHandler(cacheTestFleet(t, FleetOptions{}), Telemetry{
		Logger:      slog.New(slog.NewTextHandler(&buf, nil)),
		SlowRequest: time.Nanosecond, // everything is slow
	})
	req := httptest.NewRequest("POST", "/v1/analyze",
		strings.NewReader(`{"kernel":"matmul16","size":64,"seed":7}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("analyze: %d %s", rec.Code, rec.Body)
	}
	var res Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics.PhaseSeconds) == 0 {
		t.Error("Diagnostics.PhaseSeconds is empty")
	}
	logs := buf.String()
	if !strings.Contains(logs, "slow request") {
		t.Fatalf("no slow-request line in logs:\n%s", logs)
	}
	for _, span := range []string{"engine", "model", "cache"} {
		if !strings.Contains(logs, span) {
			t.Errorf("span tree is missing %q:\n%s", span, logs)
		}
	}
}

// TestRouterMetricsMerge: the router's /metrics is its own exposition
// plus every up worker's, each worker sample tagged with a
// worker="<url>" label and shared headers deduplicated.
func TestRouterMetricsMerge(t *testing.T) {
	fw := &fakeWorker{name: "w1", healthStatus: http.StatusOK}
	srv := httptest.NewServer(fw.handler(t))
	t.Cleanup(srv.Close)
	rt := routerOver(t, RouterOptions{Workers: []string{srv.URL}})

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.TextContentType {
		t.Errorf("Content-Type %q, want %q", ct, obs.TextContentType)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"gpuperf_router_uptime_seconds",
		fmt.Sprintf(`gpuperf_router_worker_up{worker=%q} 1`, srv.URL),
		fmt.Sprintf(`gpuperf_requests_total{worker=%q,op="analyze"} 3`, srv.URL),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("merged exposition is missing %q\n%s", want, body)
		}
	}
	if n := strings.Count(body, "# TYPE gpuperf_requests_total"); n != 1 {
		t.Errorf("TYPE header for gpuperf_requests_total appears %d times, want 1 (dedup)", n)
	}
}
