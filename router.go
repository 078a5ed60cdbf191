package gpuperf

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"gpuperf/internal/obs"
)

// RouterOptions configures a Router.
type RouterOptions struct {
	// Workers are the worker base URLs (e.g. "http://127.0.0.1:8098"),
	// each a gpuperfd serving the full /v1 API. At least one is
	// required.
	Workers []string
	// Catalog resolves device names for shard routing; it must agree
	// with the workers' catalogs. Nil means DefaultCatalog().
	Catalog *DeviceCatalog
	// DefaultDevice resolves requests with an empty device field
	// ("" = DefaultCatalogDevice), like FleetOptions.DefaultDevice.
	DefaultDevice string
	// HealthInterval is the delay between worker /healthz polls
	// (0 = 2s).
	HealthInterval time.Duration
	// Client issues the proxied requests (nil = http.DefaultClient,
	// which imposes no overall timeout — analyses can run long and
	// respect the inbound request's context instead).
	Client *http.Client
	// Telemetry tunes the router's observability layer (logger, slow
	// threshold); the zero value is fully functional.
	Telemetry Telemetry
}

// Router is gpuperfd's scale-out front door: it consistent-hashes
// every request's device HARDWARE FINGERPRINT across the worker set
// (rendezvous hashing — adding a worker moves only the shards it
// wins), so each worker owns a stable fingerprint shard and
// calibrations and result caches never duplicate across workers.
// Cross-shard comparisons are scatter-gathered: one per-device
// analyze to each owning worker, assembled with the exact fanout
// Fleet.Compare uses, so a proxied comparison is byte-identical to a
// local one. A request whose shard owner is down fails fast with 503
// — it is never rerouted, because serving it elsewhere would
// duplicate that shard's calibrations and pollute the survivor's
// cache.
type Router struct {
	opt     RouterOptions
	catalog *DeviceCatalog
	def     string
	workers []string
	client  *http.Client

	// start anchors the router's own uptime gauge; metrics is its
	// /metrics registry (worker scrapes are merged in at serve time);
	// proxyLat/proxyErrs are the per-worker proxy instruments.
	start     time.Time
	metrics   *obs.Registry
	proxyLat  *obs.HistogramVec
	proxyErrs *obs.CounterVec

	mu    sync.RWMutex
	state map[string]*workerState

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// workerState is one worker's last-probed health: up means it
// answered /healthz at all (routable), ready that it answered 200
// (its default device is calibrated).
type workerState struct {
	up    bool
	ready bool
}

// NewRouter builds a router, probes every worker once synchronously
// (so routing decisions are meaningful immediately), and starts the
// background health loop. Close releases it.
func NewRouter(opt RouterOptions) (*Router, error) {
	if len(opt.Workers) == 0 {
		return nil, fmt.Errorf("gpuperf: router needs at least one worker URL")
	}
	catalog := opt.Catalog
	if catalog == nil {
		catalog = DefaultCatalog()
	}
	def := opt.DefaultDevice
	if def == "" {
		def = DefaultCatalogDevice
	}
	client := opt.Client
	if client == nil {
		client = http.DefaultClient
	}
	rt := &Router{
		opt:     opt,
		catalog: catalog,
		def:     def,
		client:  client,
		state:   map[string]*workerState{},
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	seen := map[string]bool{}
	for _, w := range opt.Workers {
		u := strings.TrimRight(strings.TrimSpace(w), "/")
		if u == "" {
			return nil, fmt.Errorf("gpuperf: empty worker URL in %v", opt.Workers)
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		if seen[u] {
			return nil, fmt.Errorf("gpuperf: duplicate worker URL %q", u)
		}
		seen[u] = true
		rt.workers = append(rt.workers, u)
		rt.state[u] = &workerState{}
	}
	rt.registerMetrics()
	rt.probeAll()
	go rt.healthLoop()
	return rt, nil
}

// registerMetrics builds the router's own registry: uptime, runtime
// gauges, per-worker health flags sampled at scrape time, and the
// per-worker proxy latency/error instruments rt.do records into.
func (rt *Router) registerMetrics() {
	rt.start = time.Now()
	rt.metrics = obs.NewRegistry()
	rt.metrics.NewGaugeFunc("gpuperf_router_uptime_seconds",
		"Seconds since the router was built.",
		func() float64 { return time.Since(rt.start).Seconds() })
	registerRuntimeMetrics(rt.metrics)
	up := rt.metrics.NewGaugeFuncVec("gpuperf_router_worker_up",
		"Worker answered its last /healthz probe (1/0).", "worker")
	ready := rt.metrics.NewGaugeFuncVec("gpuperf_router_worker_ready",
		"Worker /healthz answered 200 — default device calibrated (1/0).", "worker")
	for _, wk := range rt.workers {
		wk := wk
		up.Register(func() float64 { return boolGauge(rt.isUp(wk)) }, wk)
		ready.Register(func() float64 { return boolGauge(rt.isReady(wk)) }, wk)
	}
	rt.proxyLat = rt.metrics.NewHistogramVec("gpuperf_router_proxy_seconds",
		"Proxied request latency by worker.", obs.DefLatencyBuckets, "worker")
	rt.proxyErrs = rt.metrics.NewCounterVec("gpuperf_router_proxy_errors_total",
		"Proxied request transport failures by worker.", "worker")
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Metrics returns the router's own metric registry (worker metrics
// are merged in only on the /metrics route).
func (rt *Router) Metrics() *Metrics { return rt.metrics }

// do issues one proxied request: it forwards the inbound request id
// (so one id threads router and worker logs), opens a proxy span in
// the request trace, and records the per-worker latency histogram and
// transport-error counter. Callers still own markDown decisions.
func (rt *Router) do(wk string, req *http.Request) (*http.Response, error) {
	if tr := obs.TraceFrom(req.Context()); tr != nil {
		req.Header.Set("X-Request-ID", tr.ID())
	}
	_, sp := obs.StartSpan(req.Context(), "proxy")
	resp, err := rt.client.Do(req)
	sp.End()
	rt.proxyLat.With(wk).Observe(sp.Duration().Seconds())
	if err != nil {
		rt.proxyErrs.With(wk).Inc()
	}
	return resp, err
}

// Close stops the health loop. The router keeps serving with its last
// known worker states.
func (rt *Router) Close() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	<-rt.done
}

// Workers returns the normalized worker URLs, in configuration order.
func (rt *Router) Workers() []string { return append([]string(nil), rt.workers...) }

// ShardFor returns the worker URL owning the catalog device's
// fingerprint shard.
func (rt *Router) ShardFor(device string) (string, error) {
	if device == "" {
		device = rt.def
	}
	dev, err := rt.catalog.Resolve(device)
	if err != nil {
		return "", err
	}
	return rt.shardFor(DeviceFingerprint(dev)), nil
}

// shardFor rendezvous-hashes a device hardware fingerprint over the
// worker set: each worker's score is the digest of (fingerprint,
// worker) and the highest score wins, so every (fingerprint, worker
// set) pair has exactly one deterministic owner and a membership
// change only moves the shards the changed worker won.
func (rt *Router) shardFor(fp string) string {
	var best string
	var bestScore [sha256.Size]byte
	for _, wk := range rt.workers {
		score := sha256.Sum256([]byte(fp + "\x00" + wk))
		if best == "" || bytes.Compare(score[:], bestScore[:]) > 0 {
			best, bestScore = wk, score
		}
	}
	return best
}

// healthLoop re-probes every worker on a ticker until Close.
func (rt *Router) healthLoop() {
	defer close(rt.done)
	interval := rt.opt.HealthInterval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			rt.probeAll()
		case <-rt.stop:
			return
		}
	}
}

// probeAll checks every worker's /healthz once. Any HTTP response at
// all means the worker is up (routable) — a worker still calibrating
// answers 503 but can absolutely take traffic; only 200 marks it
// ready.
func (rt *Router) probeAll() {
	for _, wk := range rt.workers {
		up, ready := rt.probe(wk)
		rt.mu.Lock()
		st := rt.state[wk]
		st.up, st.ready = up, ready
		rt.mu.Unlock()
	}
}

func (rt *Router) probe(wk string) (up, ready bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, wk+"/healthz", nil)
	if err != nil {
		return false, false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return false, false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return true, resp.StatusCode == http.StatusOK
}

func (rt *Router) isUp(wk string) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	st, ok := rt.state[wk]
	return ok && st.up
}

func (rt *Router) isReady(wk string) bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	st, ok := rt.state[wk]
	return ok && st.ready
}

// markDown records a failed proxied request immediately instead of
// waiting for the next probe, so a crashed worker fails fast for the
// requests behind the one that discovered it.
func (rt *Router) markDown(wk string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if st, ok := rt.state[wk]; ok {
		st.up, st.ready = false, false
	}
}

// RouterHealth is the router's GET /healthz wire type.
type RouterHealth struct {
	// Status is "ok" with every worker up, "degraded" with some up,
	// "down" with none; the endpoint answers 503 unless "ok" — a
	// degraded router serves the live shards but an operator's probe
	// should see the outage.
	Status  string         `json:"status"`
	Workers []RouterWorker `json:"workers"`
	// Shards maps every catalog device name to the worker URL owning
	// its fingerprint shard — the routing table, flat and greppable.
	Shards map[string]string `json:"shards"`
}

// RouterWorker is one worker's health in a RouterHealth.
type RouterWorker struct {
	URL string `json:"url"`
	// Up: the worker answered its last /healthz probe at all.
	// Ready: it answered 200 (default device calibrated).
	Up    bool `json:"up"`
	Ready bool `json:"ready"`
}

// Health reports the router's view of the worker set and the shard
// table.
func (rt *Router) Health() RouterHealth {
	h := RouterHealth{Shards: map[string]string{}}
	nup := 0
	rt.mu.RLock()
	for _, wk := range rt.workers {
		st := rt.state[wk]
		h.Workers = append(h.Workers, RouterWorker{URL: wk, Up: st.up, Ready: st.ready})
		if st.up {
			nup++
		}
	}
	rt.mu.RUnlock()
	for _, p := range rt.catalog.Profiles() {
		h.Shards[p.Name] = rt.shardFor(p.Fingerprint)
	}
	switch {
	case nup == len(rt.workers):
		h.Status = "ok"
	case nup > 0:
		h.Status = "degraded"
	default:
		h.Status = "down"
	}
	return h
}

// proxyError carries a worker's (or the router's own) HTTP verdict
// through the compare fanout's error joining; errors.As recovers the
// status code on the far side.
type proxyError struct {
	code int
	msg  string
}

func (e *proxyError) Error() string { return e.msg }

// writeProxyError maps a proxied failure to its status: a worker's
// own verdict when one is embedded, the local analysis mapping
// otherwise.
func writeProxyError(w http.ResponseWriter, r *http.Request, err error) {
	var pe *proxyError
	if errors.As(err, &pe) {
		writeError(w, r, pe.code, err)
		return
	}
	writeAnalysisError(w, r, err)
}

// Handler exposes the router over HTTP: the same /v1 surface as a
// worker, plus a router-shaped /healthz and a /metrics that merges
// every up worker's exposition (tagged with worker labels) into the
// router's own. Proxied responses carry X-Shard naming the worker
// that served them, and the inbound X-Request-ID is forwarded so one
// id threads router and worker logs.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := rt.Health()
		status := http.StatusOK
		if h.Status != "ok" {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, r, status, h)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, r, http.StatusOK, rt.aggregateStats(r.Context()))
	})
	mux.HandleFunc("GET /v1/kernels", func(w http.ResponseWriter, r *http.Request) {
		rt.proxyStatic(w, r, "/v1/kernels")
	})
	mux.HandleFunc("POST /v1/kernels", rt.handleSubmit)
	mux.HandleFunc("DELETE /v1/kernels/{id}", rt.handleDeleteKernel)
	mux.HandleFunc("GET /v1/devices", func(w http.ResponseWriter, r *http.Request) {
		rt.proxyStatic(w, r, "/v1/devices")
	})
	for _, path := range []string{"/v1/analyze", "/v1/advise", "/v1/measure"} {
		path := path
		mux.HandleFunc("POST "+path, func(w http.ResponseWriter, r *http.Request) {
			rt.proxyByDevice(w, r, path)
		})
	}
	mux.HandleFunc("POST /v1/compare", rt.handleCompare)
	return telemetryMiddleware(mux, rt.metrics, rt.opt.Telemetry)
}

// handleMetrics scrapes every up worker's /metrics and merges the
// expositions into the router's own, each worker's samples tagged
// with worker="<url>" — one endpoint shows the whole deployment.
// Workers that fail to answer are skipped (their absence is visible
// through gpuperf_router_worker_up).
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var own bytes.Buffer
	rt.metrics.WritePrometheus(&own)
	var parts []obs.LabeledExposition
	for _, wk := range rt.workers {
		if !rt.isUp(wk) {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, wk+"/metrics", nil)
		if err != nil {
			continue
		}
		resp, err := rt.do(wk, req)
		if err != nil {
			continue
		}
		text, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		parts = append(parts, obs.LabeledExposition{LabelValue: wk, Text: text})
	}
	w.Header().Set("Content-Type", obs.TextContentType)
	if err := obs.MergeExpositions(w, "worker", own.Bytes(), parts); err != nil {
		requestLogger(r.Context()).Warn("writing merged /metrics", "component", "router", "err", err)
	}
}

// aggregateStats sums every up worker's /v1/stats — the fleet-wide
// cache picture. Workers that fail to answer are skipped; sharding
// guarantees no entry is counted twice.
func (rt *Router) aggregateStats(ctx context.Context) CacheStats {
	var agg CacheStats
	for _, wk := range rt.workers {
		if !rt.isUp(wk) {
			continue
		}
		var st CacheStats
		if err := rt.getJSON(ctx, wk, "/v1/stats", &st); err != nil {
			continue
		}
		agg.Hits += st.Hits
		agg.MemoryHits += st.MemoryHits
		agg.DiskHits += st.DiskHits
		agg.Misses += st.Misses
		agg.Coalesced += st.Coalesced
		agg.Evictions += st.Evictions
		agg.SaveErrors += st.SaveErrors
		agg.InFlight += st.InFlight
		agg.Entries += st.Entries
		agg.Bytes += st.Bytes
		agg.MemoryBudgetBytes += st.MemoryBudgetBytes
		agg.Submissions += st.Submissions
		agg.SubmissionBytes += st.SubmissionBytes
		agg.SubmissionEvictions += st.SubmissionEvictions
		// Uptime aggregates as the oldest worker's: "how long has this
		// deployment been serving" rather than a meaningless sum.
		if st.UptimeSeconds > agg.UptimeSeconds {
			agg.UptimeSeconds = st.UptimeSeconds
		}
		for op, n := range st.Requests {
			if agg.Requests == nil {
				agg.Requests = make(map[string]int64)
			}
			agg.Requests[op] += n
		}
	}
	return agg
}

// getJSON fetches one worker path through rt.do (so the call carries
// the request id and is timed like every other proxied request) and
// decodes the JSON body into v.
func (rt *Router) getJSON(ctx context.Context, wk, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, wk+path, nil)
	if err != nil {
		return err
	}
	resp, err := rt.do(wk, req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gpuperf: %s%s answered %d", wk, path, resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 1<<22)).Decode(v)
}

// proxiedHeaders are the response headers a proxied answer carries
// through to the client.
var proxiedHeaders = []string{"Content-Type", "ETag", "Cache-Control", "X-Cache"}

// relay copies a worker's response — status, caching headers, body —
// to the client verbatim, so HIT/MISS verdicts and ETags survive the
// hop, and tags it with X-Shard naming the worker that served it.
func relay(w http.ResponseWriter, resp *http.Response, shard string) {
	defer resp.Body.Close()
	for _, h := range proxiedHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if shard != "" {
		w.Header().Set("X-Shard", shard)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// proxyStatic forwards a catalog/registry listing to the first up
// worker — the listings are identical on every worker, so any one
// answers for all. If-None-Match rides along, so 304s work end to
// end.
func (rt *Router) proxyStatic(w http.ResponseWriter, r *http.Request, path string) {
	for _, wk := range rt.workers {
		if !rt.isUp(wk) {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, wk+path, nil)
		if err != nil {
			writeError(w, r, http.StatusInternalServerError, err)
			return
		}
		if inm := r.Header.Get("If-None-Match"); inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := rt.do(wk, req)
		if err != nil {
			rt.markDown(wk)
			continue
		}
		relay(w, resp, wk)
		return
	}
	writeError(w, r, http.StatusServiceUnavailable, fmt.Errorf("gpuperf: no worker is up"))
}

// proxyByDevice routes one single-device request to its device's
// shard owner and relays the answer. The body is peeked leniently for
// the device name only — the owning worker's strict decoder is the
// authority on malformed bodies, so router and worker reject
// identically.
func (rt *Router) proxyByDevice(w http.ResponseWriter, r *http.Request, path string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
	if err != nil {
		if maxErr := new(http.MaxBytesError); errors.As(err, &maxErr) {
			writeError(w, r, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, r, http.StatusBadRequest, err)
		}
		return
	}
	var peek struct {
		Device string `json:"device"`
		Kernel string `json:"kernel"`
	}
	// Lenient on purpose: a body the peek cannot parse still proxies
	// (to the default shard) and fails the worker's strict decode.
	json.Unmarshal(body, &peek)
	name := peek.Device
	if name == "" {
		name = rt.def
	}
	dev, err := rt.catalog.Resolve(name)
	if err != nil {
		writeAnalysisError(w, r, err)
		return
	}
	wk := rt.shardFor(DeviceFingerprint(dev))
	if !rt.isUp(wk) {
		writeError(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("gpuperf: shard %s (device %q) is down", wk, name))
		return
	}
	req, err := forwardPost(r, wk+path, body)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	resp, err := rt.do(wk, req)
	if err != nil {
		rt.markDown(wk)
		writeError(w, r, http.StatusBadGateway, fmt.Errorf("gpuperf: shard %s: %w", wk, err))
		return
	}
	// Submitted kernels live on the shard owning their PROGRAM hash,
	// which is generally not the device shard this request landed on.
	// A 404 for a submission id from a foreign shard retries once on
	// the submission's owner — the one worker that can hold it.
	if resp.StatusCode == http.StatusNotFound && IsSubmissionID(peek.Kernel) {
		if owner := rt.shardFor(peek.Kernel); owner != wk && rt.isUp(owner) {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			req2, err := forwardPost(r, owner+path, body)
			if err != nil {
				writeError(w, r, http.StatusInternalServerError, err)
				return
			}
			resp2, err := rt.do(owner, req2)
			if err != nil {
				rt.markDown(owner)
				writeError(w, r, http.StatusBadGateway, fmt.Errorf("gpuperf: shard %s: %w", owner, err))
				return
			}
			relay(w, resp2, owner)
			return
		}
	}
	relay(w, resp, wk)
}

// forwardPost builds the proxied copy of the inbound POST r with the
// already-read body, for url. It carries the inbound If-None-Match,
// so revalidation answers 304 end to end on every hop — retries
// included.
func forwardPost(r *http.Request, url string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	return req, nil
}

// handleSubmit routes POST /v1/kernels to the worker owning the
// submission's content-addressed id (rendezvous-hashed like device
// fingerprints), so exactly one shard ever holds a given program and
// its analyze results stay on the shard that can serve them. A body
// whose id cannot be computed (unparsable program or spec) goes to
// any up worker, whose strict admission pipeline is the authority on
// the rejection.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmissionBody))
	if err != nil {
		if maxErr := new(http.MaxBytesError); errors.As(err, &maxErr) {
			writeError(w, r, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, r, http.StatusBadRequest, err)
		}
		return
	}
	var wk string
	var sub KernelSubmission
	if json.Unmarshal(body, &sub) == nil {
		if id, err := SubmissionID(sub); err == nil {
			wk = rt.shardFor(id)
		}
	}
	if wk == "" {
		wk = rt.firstUp()
	}
	if wk == "" || !rt.isUp(wk) {
		writeError(w, r, http.StatusServiceUnavailable, fmt.Errorf("gpuperf: submission shard is down"))
		return
	}
	req, err := forwardPost(r, wk+"/v1/kernels", body)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	resp, err := rt.do(wk, req)
	if err != nil {
		rt.markDown(wk)
		writeError(w, r, http.StatusBadGateway, fmt.Errorf("gpuperf: shard %s: %w", wk, err))
		return
	}
	relay(w, resp, wk)
}

// handleDeleteKernel routes DELETE /v1/kernels/{id} to the shard
// owning the submission id.
func (rt *Router) handleDeleteKernel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wk := rt.shardFor(id)
	if !rt.isUp(wk) {
		writeError(w, r, http.StatusServiceUnavailable, fmt.Errorf("gpuperf: shard %s (submission %q) is down", wk, id))
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodDelete, wk+"/v1/kernels/"+id, nil)
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	resp, err := rt.do(wk, req)
	if err != nil {
		rt.markDown(wk)
		writeError(w, r, http.StatusBadGateway, fmt.Errorf("gpuperf: shard %s: %w", wk, err))
		return
	}
	relay(w, resp, wk)
}

// firstUp returns the first up worker, or "" with none.
func (rt *Router) firstUp() string {
	for _, wk := range rt.workers {
		if rt.isUp(wk) {
			return wk
		}
	}
	return ""
}

// remoteAnalyze is the compare scatter-gather's per-device unit: one
// /v1/analyze against the device's shard owner. Worker-side failures
// come back as proxyError so the assembled comparison reports the
// worker's own verdict.
func (rt *Router) remoteAnalyze(ctx context.Context, req Request) (*Result, CacheStatus, error) {
	dev, err := rt.catalog.Resolve(req.Device)
	if err != nil {
		return nil, CacheBypass, err
	}
	wk := rt.shardFor(DeviceFingerprint(dev))
	if !rt.isUp(wk) {
		return nil, CacheBypass, &proxyError{
			code: http.StatusServiceUnavailable,
			msg:  fmt.Sprintf("gpuperf: shard %s (device %q) is down", wk, req.Device),
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, CacheBypass, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, wk+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return nil, CacheBypass, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := rt.do(wk, hreq)
	if err != nil {
		rt.markDown(wk)
		return nil, CacheBypass, &proxyError{
			code: http.StatusBadGateway,
			msg:  fmt.Sprintf("gpuperf: shard %s: %v", wk, err),
		}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return nil, CacheBypass, &proxyError{code: http.StatusBadGateway, msg: fmt.Sprintf("gpuperf: shard %s: %v", wk, err)}
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return nil, CacheBypass, &proxyError{code: resp.StatusCode, msg: msg}
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, CacheBypass, &proxyError{code: http.StatusBadGateway, msg: fmt.Sprintf("gpuperf: shard %s: decoding result: %v", wk, err)}
	}
	st := CacheStatus(resp.Header.Get("X-Cache"))
	if st == "" {
		st = CacheBypass
	}
	return &res, st, nil
}

// handleCompare scatter-gathers a cross-device comparison: each
// device's analysis goes to ITS shard owner (so no worker ever
// calibrates outside its shard), and the entries are assembled with
// the same fanout Fleet.Compare uses. Fail-fast: if any requested
// device's shard is down the comparison is refused with 503 before
// any work is dispatched. The response's X-Cache is HIT only when
// every per-device answer was a hit — the comparison was fully served
// from the fleet's caches.
func (rt *Router) handleCompare(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody[CompareRequest](w, r)
	if !ok {
		return
	}
	baseline, fps, err := validateCompare(rt.catalog, req)
	if err != nil {
		writeAnalysisError(w, r, err)
		return
	}
	for i, d := range req.Devices {
		if wk := rt.shardFor(fps[i]); !rt.isUp(wk) {
			writeError(w, r, http.StatusServiceUnavailable,
				fmt.Errorf("gpuperf: shard %s (device %q) is down", wk, d))
			return
		}
	}
	var mu sync.Mutex
	allHit := true
	analyzeFn := func(ctx context.Context, areq Request) (*Result, error) {
		res, st, err := rt.remoteAnalyze(ctx, areq)
		mu.Lock()
		if st != CacheHit {
			allHit = false
		}
		mu.Unlock()
		return res, err
	}
	cmp, err := compareFanout(r.Context(), rt.catalog, req, baseline, analyzeFn)
	if err != nil {
		writeProxyError(w, r, err)
		return
	}
	st := CacheMiss
	if allHit {
		st = CacheHit
	}
	writeCachedJSON(w, r, cmp, st, "")
}
