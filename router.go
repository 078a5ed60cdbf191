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
// per-worker proxy latency/error instruments send records into.
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
	// The listings are identical on every worker, so any one answers
	// for all.
	listing := func(w http.ResponseWriter, r *http.Request) { rt.proxyAny(w, r, nil) }
	mux.HandleFunc("GET /v1/kernels", listing)
	mux.HandleFunc("GET /v1/devices", listing)
	mux.HandleFunc("POST /v1/kernels", rt.handleSubmit)
	mux.HandleFunc("DELETE /v1/kernels/{id}", func(w http.ResponseWriter, r *http.Request) {
		rt.forward(w, r, rt.shardFor(r.PathValue("id")), nil)
	})
	mux.HandleFunc("POST /v1/analyze", rt.proxyByDevice)
	mux.HandleFunc("POST /v1/advise", rt.proxyByDevice)
	mux.HandleFunc("POST /v1/measure", rt.proxyByDevice)
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
		if text, _, err := rt.fetch(r.Context(), wk, http.MethodGet, "/metrics", nil); err == nil {
			parts = append(parts, obs.LabeledExposition{LabelValue: wk, Text: text})
		}
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
		data, _, err := rt.fetch(ctx, wk, http.MethodGet, "/v1/stats", nil)
		var st CacheStats
		if err != nil || json.Unmarshal(data, &st) != nil {
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
		agg.Engine.BlocksSimulated += st.Engine.BlocksSimulated
		agg.Engine.BlocksReplayed += st.Engine.BlocksReplayed
		agg.Engine.BatchedRuns += st.Engine.BatchedRuns
		agg.Engine.BatchedInstrs += st.Engine.BatchedInstrs
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

// send is the one place the router builds and issues a request to a
// worker. A down worker answers 503 without a dial. The request
// carries Content-Type when it has a body, the client's If-None-Match
// (so revalidation answers 304 end to end) and the request id (so one
// id threads router and worker logs); it runs in a proxy span and
// lands in the per-worker latency histogram. A transport failure while
// the caller still waits counts as a proxy error, marks the worker
// down so the requests behind it fail fast, and answers 502. A caller
// that gave up gets its context error back and leaves the worker up:
// its hang-up says nothing about the worker.
func (rt *Router) send(ctx context.Context, wk, method, path string, body []byte, inm string) (*http.Response, error) {
	if !rt.isUp(wk) {
		return nil, &proxyError{code: http.StatusServiceUnavailable, msg: fmt.Sprintf("gpuperf: shard %s is down", wk)}
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, wk+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	if tr := obs.TraceFrom(ctx); tr != nil {
		req.Header.Set("X-Request-ID", tr.ID())
	}
	_, sp := obs.StartSpan(ctx, "proxy")
	resp, err := rt.client.Do(req)
	sp.End()
	rt.proxyLat.With(wk).Observe(sp.Duration().Seconds())
	if err != nil {
		if ctx.Err() != nil {
			return nil, fmt.Errorf("gpuperf: shard %s: %w", wk, ctx.Err())
		}
		rt.proxyErrs.With(wk).Inc()
		rt.markDown(wk)
		return nil, &proxyError{code: http.StatusBadGateway, msg: fmt.Sprintf("gpuperf: shard %s: %v", wk, err)}
	}
	return resp, nil
}

// fetch is send for an answer the router reads itself: the body of a
// 200, up to 4 MiB, and its headers. Any other status becomes a
// proxyError carrying the worker's status and error message.
func (rt *Router) fetch(ctx context.Context, wk, method, path string, body []byte) ([]byte, http.Header, error) {
	resp, err := rt.send(ctx, wk, method, path, body, "")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return nil, nil, &proxyError{code: http.StatusBadGateway, msg: fmt.Sprintf("gpuperf: shard %s: %v", wk, err)}
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return nil, nil, &proxyError{code: resp.StatusCode, msg: msg}
	}
	return data, resp.Header, nil
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

// forward sends the inbound request r, with body, to wk and relays the
// answer. It forwards r's escaped path, so an escaped path segment
// such as a submission id stays one segment on the hop.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, wk string, body []byte) {
	resp, err := rt.send(r.Context(), wk, r.Method, r.URL.EscapedPath(), body, r.Header.Get("If-None-Match"))
	if err != nil {
		writeProxyError(w, r, err)
		return
	}
	relay(w, resp, wk)
}

// proxyAny sends the inbound request r, with body, to each worker in
// configuration order and relays the first answer — for requests every
// worker answers alike.
func (rt *Router) proxyAny(w http.ResponseWriter, r *http.Request, body []byte) {
	for _, wk := range rt.workers {
		resp, err := rt.send(r.Context(), wk, r.Method, r.URL.EscapedPath(), body, r.Header.Get("If-None-Match"))
		if err == nil {
			relay(w, resp, wk)
			return
		}
	}
	writeError(w, r, http.StatusServiceUnavailable, fmt.Errorf("gpuperf: no worker is up"))
}

// readBody reads a POST body the router peeks at before forwarding it,
// up to limit bytes. On failure it has written the error response
// itself (ok=false).
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		writeBodyError(w, r, err)
		return nil, false
	}
	return body, true
}

// proxyByDevice routes one single-device request to its device's
// shard owner and relays the answer. The body is peeked leniently for
// the device name only — the owning worker's strict decoder is the
// authority on malformed bodies, so router and worker reject
// identically.
func (rt *Router) proxyByDevice(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, 1<<16)
	if !ok {
		return
	}
	var peek struct {
		Device string `json:"device"`
		Kernel string `json:"kernel"`
	}
	// Lenient on purpose: a body the peek cannot parse still proxies
	// (to the default shard) and fails the worker's strict decode.
	json.Unmarshal(body, &peek)
	wk, err := rt.ShardFor(peek.Device)
	if err != nil {
		writeAnalysisError(w, r, err)
		return
	}
	resp, err := rt.send(r.Context(), wk, r.Method, r.URL.EscapedPath(), body, r.Header.Get("If-None-Match"))
	if err != nil {
		writeProxyError(w, r, err)
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
			rt.forward(w, r, owner, body)
			return
		}
	}
	relay(w, resp, wk)
}

// handleSubmit routes POST /v1/kernels to the worker owning the
// submission's content-addressed id (rendezvous-hashed like device
// fingerprints), so exactly one shard ever holds a given program and
// its analyze results stay on the shard that can serve them. A body
// whose id cannot be computed (unparsable program or spec) goes to
// any up worker, whose strict admission pipeline is the authority on
// the rejection.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxSubmissionBody)
	if !ok {
		return
	}
	var sub KernelSubmission
	if json.Unmarshal(body, &sub) == nil {
		if id, err := SubmissionID(sub); err == nil {
			rt.forward(w, r, rt.shardFor(id), body)
			return
		}
	}
	rt.proxyAny(w, r, body)
}

// remoteAnalyze is the compare scatter-gather's per-device unit: one
// /v1/analyze against the device's shard owner, read for the fields a
// comparison uses. Worker-side failures come back as proxyError so
// the assembled comparison reports the worker's own verdict; an
// answer that is not an analysis is the router's 502.
func (rt *Router) remoteAnalyze(ctx context.Context, req Request) (compareLeg, CacheStatus, error) {
	wk, err := rt.ShardFor(req.Device)
	if err != nil {
		return compareLeg{}, CacheBypass, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return compareLeg{}, CacheBypass, err
	}
	data, hdr, err := rt.fetch(ctx, wk, http.MethodPost, "/v1/analyze", body)
	if err != nil {
		return compareLeg{}, CacheBypass, err
	}
	var leg compareLeg
	if err := json.Unmarshal(data, &leg); err != nil {
		return compareLeg{}, CacheBypass, &proxyError{code: http.StatusBadGateway, msg: fmt.Sprintf("gpuperf: shard %s: decoding result: %v", wk, err)}
	}
	st := CacheStatus(hdr.Get("X-Cache"))
	if st == "" {
		st = CacheBypass
	}
	return leg, st, nil
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
	// send refuses a down shard too, but only this check keeps the up
	// shards from calibrating and simulating for a doomed comparison.
	for i, d := range req.Devices {
		if wk := rt.shardFor(fps[i]); !rt.isUp(wk) {
			writeError(w, r, http.StatusServiceUnavailable,
				fmt.Errorf("gpuperf: shard %s (device %q) is down", wk, d))
			return
		}
	}
	cmp, allHit, err := compareFanout(r.Context(), rt.catalog, req, baseline, rt.remoteAnalyze)
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
