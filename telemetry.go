package gpuperf

import (
	"context"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gpuperf/internal/obs"
	"gpuperf/internal/resultstore"
)

// Metrics is the service's metric registry — atomic counters, gauges
// and fixed-bucket histograms with a Prometheus text-format exporter
// (see internal/obs). A Fleet and a Router each own one; GET /metrics
// renders it.
type Metrics = obs.Registry

// requestOps enumerates the fleet front-door operations the per-op
// request counter (and /v1/stats' requests map) reports. Fixed, so
// the metric's label set is bounded and /metrics shows every op at
// zero before traffic arrives.
var requestOps = []string{"analyze", "advise", "compare", "measure", "submit", "evict"}

// registerMetrics builds the fleet's registry: per-op request
// counters, phase-timing histograms, and scrape-time samples of the
// counters other subsystems already keep (result cache, submission
// store, engine, runtime). Engine instrumentation deliberately rides
// the existing EngineCounters seam — no obs calls inside the
// simulator hot path.
func (f *Fleet) registerMetrics() {
	f.metrics = obs.NewRegistry()
	f.reqOps = f.metrics.NewCounterVec("gpuperf_requests_total",
		"Fleet front-door requests by operation.", "op")
	for _, op := range requestOps {
		f.reqOps.With(op)
	}
	f.phaseHist = f.metrics.NewHistogramVec("gpuperf_phase_seconds",
		"Per-phase wall clock of computed requests (cache hits record nothing).",
		obs.DefLatencyBuckets, "phase")
	f.metrics.NewGaugeFunc("gpuperf_uptime_seconds",
		"Seconds since the fleet was built.",
		func() float64 { return time.Since(f.start).Seconds() })
	registerRuntimeMetrics(f.metrics)

	engine := func(field func(EngineCounters) int64) func() float64 {
		return func() float64 { return float64(field(f.EngineCounters())) }
	}
	f.metrics.NewCounterFunc("gpuperf_engine_blocks_simulated_total",
		"Blocks actually simulated.", engine(func(c EngineCounters) int64 { return c.BlocksSimulated }))
	f.metrics.NewCounterFunc("gpuperf_engine_blocks_replayed_total",
		"Blocks served by homogeneous-block replay.", engine(func(c EngineCounters) int64 { return c.BlocksReplayed }))
	f.metrics.NewCounterFunc("gpuperf_engine_batched_runs_total",
		"Batched warp-stepping runs.", engine(func(c EngineCounters) int64 { return c.BatchedRuns }))
	f.metrics.NewCounterFunc("gpuperf_engine_batched_instrs_total",
		"Instructions covered by batched warp stepping.", engine(func(c EngineCounters) int64 { return c.BatchedInstrs }))

	cache := func(field func(resultstore.Stats) int64) func() float64 {
		return func() float64 { return float64(field(f.store.Stats())) }
	}
	f.metrics.NewCounterFunc("gpuperf_cache_hits_total", "Result-cache hits (memory + disk).",
		cache(func(s resultstore.Stats) int64 { return s.Hits }))
	f.metrics.NewCounterFunc("gpuperf_cache_memory_hits_total", "Result-cache memory-tier hits.",
		cache(func(s resultstore.Stats) int64 { return s.MemoryHits }))
	f.metrics.NewCounterFunc("gpuperf_cache_disk_hits_total", "Result-cache disk-tier hits.",
		cache(func(s resultstore.Stats) int64 { return s.DiskHits }))
	f.metrics.NewCounterFunc("gpuperf_cache_misses_total", "Result-cache misses (simulations run).",
		cache(func(s resultstore.Stats) int64 { return s.Misses }))
	f.metrics.NewCounterFunc("gpuperf_cache_coalesced_total", "Requests coalesced onto an in-flight computation.",
		cache(func(s resultstore.Stats) int64 { return s.Coalesced }))
	f.metrics.NewCounterFunc("gpuperf_cache_evictions_total", "Memory-tier entries evicted for the byte budget.",
		cache(func(s resultstore.Stats) int64 { return s.Evictions }))
	f.metrics.NewCounterFunc("gpuperf_cache_save_errors_total", "Failed best-effort disk writes.",
		cache(func(s resultstore.Stats) int64 { return s.SaveErrors }))
	f.metrics.NewGaugeFunc("gpuperf_cache_entries", "Resident memory-tier entries.",
		cache(func(s resultstore.Stats) int64 { return int64(s.Entries) }))
	f.metrics.NewGaugeFunc("gpuperf_cache_bytes", "Memory-tier payload bytes.",
		cache(func(s resultstore.Stats) int64 { return s.Bytes }))
	f.metrics.NewGaugeFunc("gpuperf_cache_inflight", "Simulations running right now.",
		cache(func(s resultstore.Stats) int64 { return int64(s.InFlight) }))
	if f.subs != nil {
		f.metrics.NewGaugeFunc("gpuperf_submissions", "Resident user-submitted kernels.",
			func() float64 { n, _, _ := f.subs.Stats(); return float64(n) })
		f.metrics.NewGaugeFunc("gpuperf_submission_bytes", "Submission-store byte weight.",
			func() float64 { _, b, _ := f.subs.Stats(); return float64(b) })
		f.metrics.NewCounterFunc("gpuperf_submission_evictions_total",
			"Submissions removed (LRU, TTL or deletion).",
			func() float64 { _, _, e := f.subs.Stats(); return float64(e) })
	}
}

// registerRuntimeMetrics adds process-level gauges shared by worker
// and router registries.
func registerRuntimeMetrics(reg *Metrics) {
	reg.NewGaugeFunc("gpuperf_goroutines", "Live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.NewGaugeFunc("gpuperf_heap_alloc_bytes", "Heap bytes in use.",
		func() float64 {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return float64(m.HeapAlloc)
		})
}

// countRequest bumps the fleet's per-op request counter.
func (f *Fleet) countRequest(op string) { f.reqOps.With(op).Inc() }

// requestCounts snapshots the nonzero per-op totals for /v1/stats.
func (f *Fleet) requestCounts() map[string]int64 {
	out := make(map[string]int64, len(requestOps))
	for _, op := range requestOps {
		if v := f.reqOps.With(op).Value(); v > 0 {
			out[op] = v
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Telemetry configures the HTTP observability layer a handler wraps
// every route with: request ids, structured access logs, per-route
// latency histograms and slow-request span traces. The zero value is
// fully functional (default logger, no slow threshold).
type Telemetry struct {
	// Logger receives access logs and slow-request traces; nil means
	// slog.Default().
	Logger *slog.Logger
	// SlowRequest, when positive, logs the full span tree of any
	// request that takes longer — the gpuperfd -slow-ms flag.
	SlowRequest time.Duration
}

func (t Telemetry) logger() *slog.Logger {
	if t.Logger != nil {
		return t.Logger
	}
	return slog.Default()
}

type loggerKey struct{}

// requestLogger returns the request-scoped logger the telemetry
// middleware installed (already tagged with the request id), or the
// default logger for bare handlers in tests.
func requestLogger(ctx context.Context) *slog.Logger {
	if l, ok := ctx.Value(loggerKey{}).(*slog.Logger); ok {
		return l
	}
	return slog.Default()
}

// statusWriter records the status code and body size the handler
// produced, defaulting to 200 on an implicit WriteHeader.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(b)
	sw.bytes += int64(n)
	return n, err
}

// Flush forwards http.Flusher so streaming writers keep working
// through the wrapper.
func (sw *statusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// sanitizeRequestID accepts a client-supplied X-Request-ID only when
// it is short and printable-token-shaped; anything else is replaced,
// so log lines and proxied headers cannot carry injected garbage.
func sanitizeRequestID(id string) string {
	if n := len(id); n == 0 || n > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return ""
		}
	}
	return id
}

// routeOp maps a matched route pattern (method stripped) and method
// to the bounded op label of the HTTP latency histogram.
func routeOp(route, method string) string {
	switch route {
	case "/v1/analyze":
		return "analyze"
	case "/v1/advise":
		return "advise"
	case "/v1/measure":
		return "measure"
	case "/v1/compare":
		return "compare"
	case "/v1/kernels":
		if method == http.MethodPost {
			return "submit"
		}
		return "kernels"
	case "/v1/kernels/{id}":
		return "evict"
	case "/v1/devices":
		return "devices"
	case "/v1/stats":
		return "stats"
	case "/healthz":
		return "healthz"
	case "/metrics":
		return "metrics"
	}
	return "other"
}

// telemetryMiddleware wraps a route mux with the observability layer:
// it assigns or propagates X-Request-ID, installs a request-scoped
// trace and logger in the context, emits one structured access-log
// line per request (route, kernel, device, cache status, duration,
// status code), observes the per-op/per-cache-status latency
// histogram, and logs the full span tree of requests slower than the
// configured threshold.
func telemetryMiddleware(mux *http.ServeMux, reg *Metrics, tel Telemetry) http.Handler {
	httpReqs := reg.NewCounterVec("gpuperf_http_requests_total",
		"HTTP requests by route, method and status code.", "route", "method", "code")
	httpLat := reg.NewHistogramVec("gpuperf_http_request_seconds",
		"HTTP request latency by op and cache status.", obs.DefLatencyBuckets, "op", "cache")
	inflight := reg.NewGauge("gpuperf_http_inflight", "HTTP requests being served right now.")

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := sanitizeRequestID(r.Header.Get("X-Request-ID"))
		if rid == "" {
			rid = obs.NewRequestID()
		}
		tr := obs.NewTrace(rid)
		logger := tel.logger().With("component", "http", "id", rid)
		ctx := obs.WithTrace(r.Context(), tr)
		ctx = context.WithValue(ctx, loggerKey{}, logger)
		w.Header().Set("X-Request-ID", rid)

		sw := &statusWriter{ResponseWriter: w}
		inflight.Add(1)
		start := time.Now()
		mux.ServeHTTP(sw, r.WithContext(ctx))
		dur := time.Since(start)
		inflight.Add(-1)
		if sw.status == 0 {
			// Handler wrote nothing (e.g. a 304 path writes headers
			// only through WriteHeader, which records; this is the
			// truly-silent case).
			sw.status = http.StatusOK
		}

		// The wrapped mux matched on its own shallow copy of r, so ask
		// it again for the pattern; unmatched requests label as the
		// 404 they are rather than exploding cardinality with raw
		// paths.
		_, pattern := mux.Handler(r)
		route := pattern
		if i := strings.IndexByte(route, ' '); i >= 0 {
			route = route[i+1:]
		}
		if route == "" || route == "/" {
			route = "unmatched"
		}
		cache := sw.Header().Get("X-Cache")
		if cache == "" {
			cache = "none"
		}
		httpReqs.With(route, r.Method, statusText(sw.status)).Inc()
		httpLat.With(routeOp(route, r.Method), strings.ToLower(cache)).Observe(dur.Seconds())

		attrs := []any{
			"method", r.Method,
			"route", route,
			"path", r.URL.Path,
			"status", sw.status,
			"dur_ms", math.Round(dur.Seconds()*1e6) / 1e3,
			"cache", strings.ToLower(cache),
			"bytes", sw.bytes,
		}
		if k := tr.Attr("kernel"); k != "" {
			attrs = append(attrs, "kernel", k)
		}
		if d := tr.Attr("device"); d != "" {
			attrs = append(attrs, "device", d)
		}
		logger.LogAttrs(ctx, slog.LevelInfo, "request", slogAttrs(attrs)...)

		if tel.SlowRequest > 0 && dur >= tel.SlowRequest {
			slow := append(attrs, "threshold_ms", tel.SlowRequest.Milliseconds(), "trace", "\n"+tr.Tree())
			if orphans := tr.Orphans(); len(orphans) > 0 {
				slow = append(slow, "orphan_spans", strings.Join(orphans, ","))
			}
			logger.LogAttrs(ctx, slog.LevelWarn, "slow request", slogAttrs(slow)...)
		}
	})
}

// slogAttrs converts a key-value pair list into slog.Attr values.
func slogAttrs(kv []any) []slog.Attr {
	out := make([]slog.Attr, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		out = append(out, slog.Any(kv[i].(string), kv[i+1]))
	}
	return out
}

// statusText renders a status code for the bounded "code" label.
func statusText(code int) string { return strconv.Itoa(code) }

// metricsHandler serves a registry in Prometheus text format.
func metricsHandler(reg *Metrics) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.TextContentType)
		if err := reg.WritePrometheus(w); err != nil {
			requestLogger(r.Context()).Warn("writing /metrics", "err", err)
		}
	}
}

// annotate tags the request's trace (kernel, device) so access logs
// and slow-request trees identify what the request was about.
func annotate(r *http.Request, key, value string) {
	if value != "" {
		obs.TraceFrom(r.Context()).Annotate(key, value)
	}
}
