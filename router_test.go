package gpuperf

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeWorker is a canned gpuperfd worker: it answers /healthz with a
// configurable status, echoes analyze/advise bodies back with
// recognizable headers, and records every request it saw. An analyze
// of kernel "hang" never answers: it waits for its request to end;
// one of kernel "not-json" answers 200 with a body that is not JSON.
type fakeWorker struct {
	name         string
	healthStatus int // status for GET /healthz

	mu   sync.Mutex
	seen []string // "METHOD path device"
	ids  []string // each request's X-Request-ID, parallel to seen
}

func (fw *fakeWorker) record(r *http.Request, device string) {
	fw.mu.Lock()
	fw.seen = append(fw.seen, r.Method+" "+r.URL.Path+" "+device)
	fw.ids = append(fw.ids, r.Header.Get("X-Request-ID"))
	fw.mu.Unlock()
}

func (fw *fakeWorker) handler(t *testing.T) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fw.record(r, "")
		writeJSON(w, r, fw.healthStatus, map[string]string{"status": "canned", "worker": fw.name})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		fw.record(r, "")
		writeJSON(w, r, http.StatusOK, CacheStats{Hits: 2, Misses: 1, Entries: 1, Bytes: 100,
			Engine: EngineCounters{BlocksSimulated: 3, BlocksReplayed: 61, BatchedRuns: 500, BatchedInstrs: 7000}})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		fw.record(r, "")
		w.Write([]byte("# HELP gpuperf_requests_total Fleet front-door calls by operation.\n" +
			"# TYPE gpuperf_requests_total counter\n" +
			"gpuperf_requests_total{op=\"analyze\"} 3\n"))
	})
	mux.HandleFunc("GET /v1/kernels", func(w http.ResponseWriter, r *http.Request) {
		fw.record(r, "")
		writeCachedJSON(w, r, []string{"canned-kernel-list", fw.name}, CacheBypass, staticCacheControl)
	})
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
		fw.record(r, req.Device)
		switch req.Kernel {
		case "hang":
			<-r.Context().Done()
			return
		case "not-json":
			w.Write([]byte("not json"))
			return
		}
		writeCachedJSON(w, r, Result{Kernel: req.Kernel, Device: req.Device, PredictedSeconds: 1}, CacheMiss, "")
	})
	return mux
}

// routerOver builds a Router across the given workers with a long
// health interval (tests flip state explicitly via markDown).
func routerOver(t testing.TB, opt RouterOptions) *Router {
	t.Helper()
	opt.HealthInterval = time.Hour
	rt, err := NewRouter(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// TestRouterWorkerValidation: URL normalization, duplicate and empty
// rejection.
func TestRouterWorkerValidation(t *testing.T) {
	if _, err := NewRouter(RouterOptions{}); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := NewRouter(RouterOptions{Workers: []string{"http://a:1", " "}}); err == nil {
		t.Error("blank worker URL accepted")
	}
	if _, err := NewRouter(RouterOptions{Workers: []string{"http://a:1/", "a:1"}}); err == nil {
		t.Error("duplicate worker (after normalization) accepted")
	}
	rt := routerOver(t, RouterOptions{Workers: []string{"127.0.0.1:1/", " http://127.0.0.1:2 "}})
	want := []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	got := rt.Workers()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("normalized workers %v, want %v", got, want)
	}
}

// TestRouterShardTable: the shard map is deterministic, keyed by
// hardware fingerprint (identical hardware shares a shard regardless
// of name), consistent between ShardFor and Health().Shards, and
// spreads the default catalog across both workers.
func TestRouterShardTable(t *testing.T) {
	// Unreachable fixed URLs: shard math needs no live workers, and
	// fixed strings keep the rendezvous outcome deterministic.
	rt := routerOver(t, RouterOptions{Workers: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}})

	h := rt.Health()
	if len(h.Shards) != len(rt.catalog.Profiles()) {
		t.Fatalf("shard table has %d entries, want one per catalog device", len(h.Shards))
	}
	used := map[string]int{}
	for _, p := range rt.catalog.Profiles() {
		wk, err := rt.ShardFor(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		if wk != h.Shards[p.Name] {
			t.Errorf("%s: ShardFor says %s, Health says %s", p.Name, wk, h.Shards[p.Name])
		}
		if again, _ := rt.ShardFor(p.Name); again != wk {
			t.Errorf("%s: shard not stable", p.Name)
		}
		used[wk]++
	}
	if len(used) != 2 {
		t.Errorf("all shards landed on one worker: %v", used)
	}
	// Same fingerprint, same owner — renames cannot move a shard.
	byFP := map[string]string{}
	for _, p := range rt.catalog.Profiles() {
		if prev, ok := byFP[p.Fingerprint]; ok && prev != h.Shards[p.Name] {
			t.Errorf("fingerprint %s owned by both %s and %s", p.Fingerprint, prev, h.Shards[p.Name])
		}
		byFP[p.Fingerprint] = h.Shards[p.Name]
	}
	// Empty device name resolves like a worker would: to the default.
	def, err := rt.ShardFor("")
	if err != nil {
		t.Fatal(err)
	}
	if want := h.Shards[DefaultCatalogDevice]; def != want {
		t.Errorf("default shard %s, want %s", def, want)
	}
}

// TestRouterProxyByDevice: a single-device request lands on exactly
// its shard owner with the worker's caching headers relayed; a down
// shard fails fast with 503 and is never rerouted; an unknown device
// is 404 at the router.
func TestRouterProxyByDevice(t *testing.T) {
	fws := []*fakeWorker{
		{name: "w1", healthStatus: http.StatusOK},
		{name: "w2", healthStatus: http.StatusOK},
	}
	var urls []string
	byURL := map[string]*fakeWorker{}
	for _, fw := range fws {
		srv := httptest.NewServer(fw.handler(t))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
		byURL[srv.URL] = fw
	}
	rt := routerOver(t, RouterOptions{Workers: urls, DefaultDevice: "gtx285-6sm"})
	h := rt.Handler()

	post := func(body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	owner, err := rt.ShardFor("gtx285")
	if err != nil {
		t.Fatal(err)
	}
	rec := post(`{"kernel":"matmul16","device":"gtx285"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("proxied analyze: %d (%s)", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Cache"); got != "MISS" {
		t.Errorf("X-Cache not relayed: %q", got)
	}
	if rec.Header().Get("ETag") == "" {
		t.Errorf("ETag not relayed")
	}
	saw := byURL[owner].seen[len(byURL[owner].seen)-1]
	if saw != "POST /v1/analyze gtx285" {
		t.Errorf("owner %s saw %q", owner, saw)
	}
	for u, fw := range byURL {
		if u == owner {
			continue
		}
		for _, s := range fw.seen {
			if strings.Contains(s, "/v1/analyze") {
				t.Errorf("non-owner %s handled %q", u, s)
			}
		}
	}

	// Empty device routes to the router's default.
	defOwner, _ := rt.ShardFor("")
	before := len(byURL[defOwner].seen)
	if rec := post(`{"kernel":"matmul16"}`); rec.Code != http.StatusOK {
		t.Fatalf("default-device analyze: %d", rec.Code)
	}
	if saw := byURL[defOwner].seen[len(byURL[defOwner].seen)-1]; len(byURL[defOwner].seen) == before || !strings.Contains(saw, "analyze") {
		t.Errorf("default shard %s did not receive the request (saw %v)", defOwner, byURL[defOwner].seen)
	}

	// Unknown device: refused at the router, no worker bothered.
	if rec := post(`{"kernel":"matmul16","device":"nope"}`); rec.Code != http.StatusNotFound {
		t.Errorf("unknown device: %d, want 404", rec.Code)
	}

	// Bodies past the router's caps: 413, no worker bothered.
	seen := func() (n int) {
		for _, fw := range fws {
			fw.mu.Lock()
			n += len(fw.seen)
			fw.mu.Unlock()
		}
		return n
	}
	before = seen()
	if rec := post(`{"kernel":"matmul16","device":"gtx285","pad":"` + strings.Repeat("x", 1<<16) + `"}`); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized analyze: %d, want 413", rec.Code)
	}
	sreq := httptest.NewRequest("POST", "/v1/kernels", strings.NewReader(`{"label":"`+strings.Repeat("x", maxSubmissionBody)+`"}`))
	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, sreq)
	if srec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submission: %d, want 413", srec.Code)
	}
	if n := seen() - before; n != 0 {
		t.Errorf("workers saw %d requests with oversized bodies, want 0", n)
	}

	// Down shard: fail fast, never rerouted to the survivor.
	rt.markDown(owner)
	rec = post(`{"kernel":"matmul16","device":"gtx285"}`)
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "down") {
		t.Errorf("down shard: %d %q, want 503 ...down", rec.Code, rec.Body)
	}
	for u, fw := range byURL {
		if u == owner {
			continue
		}
		for _, s := range fw.seen {
			if strings.Contains(s, "gtx285 ") {
				t.Errorf("request for the dead shard rerouted to %s (%q)", u, s)
			}
		}
	}
	// And the router's own healthz reports the degradation.
	req := httptest.NewRequest("GET", "/healthz", nil)
	hrec := httptest.NewRecorder()
	h.ServeHTTP(hrec, req)
	if hrec.Code != http.StatusServiceUnavailable || !strings.Contains(hrec.Body.String(), "degraded") {
		t.Errorf("degraded healthz: %d %q", hrec.Code, hrec.Body)
	}
}

// TestRouterClientCancelKeepsShardUp: a client that gives up
// mid-request gets 503 and leaves its shard up and its proxy-error
// count alone; a worker that is gone answers 502 once, is counted and
// marked down, and the request behind it fails fast with 503.
func TestRouterClientCancelKeepsShardUp(t *testing.T) {
	fw := &fakeWorker{name: "w1", healthStatus: http.StatusOK}
	srv := httptest.NewServer(fw.handler(t))
	t.Cleanup(srv.Close)
	rt := routerOver(t, RouterOptions{Workers: []string{srv.URL}})
	h := rt.Handler()
	errs := rt.proxyErrs.With(srv.URL)
	post := func(ctx context.Context, kernel string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(`{"kernel":"`+kernel+`"}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req.WithContext(ctx))
		return rec
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if rec := post(ctx, "hang"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("client deadline: %d (%s), want 503", rec.Code, rec.Body)
	}
	if !rt.isUp(srv.URL) || errs.Value() != 0 {
		t.Errorf("after the client gave up: up=%v with %d proxy errors, want up with 0", rt.isUp(srv.URL), errs.Value())
	}
	if rec := post(context.Background(), "matmul16"); rec.Code != http.StatusOK {
		t.Errorf("next request: %d (%s), want 200", rec.Code, rec.Body)
	}

	srv.Close()
	if rec := post(context.Background(), "matmul16"); rec.Code != http.StatusBadGateway || rt.isUp(srv.URL) {
		t.Errorf("worker gone: %d with up=%v, want 502 and marked down", rec.Code, rt.isUp(srv.URL))
	}
	if rec := post(context.Background(), "matmul16"); rec.Code != http.StatusServiceUnavailable || errs.Value() != 1 {
		t.Errorf("behind a down worker: %d with %d proxy errors, want 503 with 1", rec.Code, errs.Value())
	}
}

// TestRouterCompareDownShardFailsFast: a compare with one device's
// shard down answers 503 naming that shard before dispatching any
// analysis, so the up shard does no work for a comparison that is
// going to fail.
func TestRouterCompareDownShardFailsFast(t *testing.T) {
	// TestRouterShardTable's fixed worker URLs keep the rendezvous
	// outcome deterministic (they split the catalog); the client dials
	// each one's test server instead.
	workers := []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	addrs := map[string]string{}
	fws := map[string]*fakeWorker{}
	for _, wk := range workers {
		fw := &fakeWorker{name: wk, healthStatus: http.StatusOK}
		srv := httptest.NewServer(fw.handler(t))
		t.Cleanup(srv.Close)
		addrs[strings.TrimPrefix(wk, "http://")] = srv.Listener.Addr().String()
		fws[wk] = fw
	}
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return (&net.Dialer{}).DialContext(ctx, network, addrs[addr])
		},
	}}
	t.Cleanup(client.CloseIdleConnections)
	rt := routerOver(t, RouterOptions{Workers: workers, Client: client})

	down, err := rt.ShardFor("gtx285")
	if err != nil {
		t.Fatal(err)
	}
	var other string
	for _, p := range rt.catalog.Profiles() {
		if wk, _ := rt.ShardFor(p.Name); wk != down {
			other = p.Name
			break
		}
	}
	if other == "" {
		t.Fatal("every catalog device is on one worker")
	}
	rt.markDown(down)
	body := fmt.Sprintf(`{"kernel":"matmul16","devices":[%q,"gtx285"]}`, other)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/compare", strings.NewReader(body)))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), down) {
		t.Errorf("compare over a down shard: %d %q, want 503 naming %s", rec.Code, rec.Body, down)
	}
	for wk, fw := range fws {
		fw.mu.Lock()
		for _, s := range fw.seen {
			if strings.Contains(s, "/v1/analyze") {
				t.Errorf("worker %s analyzed %q for a compare that had to fail", wk, s)
			}
		}
		fw.mu.Unlock()
	}
}

// TestRouterCompareUndecodableAnalysis: a worker whose 200 answer to
// a compare's per-device analyze is not an analysis fails the routed
// compare with 502 naming that shard.
func TestRouterCompareUndecodableAnalysis(t *testing.T) {
	fw := &fakeWorker{name: "w1", healthStatus: http.StatusOK}
	srv := httptest.NewServer(fw.handler(t))
	t.Cleanup(srv.Close)
	rt := routerOver(t, RouterOptions{Workers: []string{srv.URL}})
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/compare",
		strings.NewReader(`{"kernel":"not-json","devices":["gtx285","gtx285-6sm"]}`)))
	if rec.Code != http.StatusBadGateway || !strings.Contains(rec.Body.String(), "shard "+srv.URL) ||
		!strings.Contains(rec.Body.String(), "decoding result") {
		t.Errorf("compare over an undecodable analysis: %d %q, want 502 naming shard %s", rec.Code, rec.Body, srv.URL)
	}
}

// TestRouterStartingWorkerIsRoutable: a worker answering 503
// ("starting", still calibrating) is up — it takes traffic — just not
// ready.
func TestRouterStartingWorkerIsRoutable(t *testing.T) {
	fw := &fakeWorker{name: "w1", healthStatus: http.StatusServiceUnavailable}
	srv := httptest.NewServer(fw.handler(t))
	t.Cleanup(srv.Close)
	rt := routerOver(t, RouterOptions{Workers: []string{srv.URL}})

	h := rt.Health()
	if h.Status != "ok" || !h.Workers[0].Up || h.Workers[0].Ready {
		t.Errorf("starting worker: %+v, want up && !ready with status ok", h)
	}
	req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(`{"kernel":"matmul16"}`))
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("analyze against a starting worker: %d, want proxied 200", rec.Code)
	}
}

// TestRouterStatsAggregation: /v1/stats sums the per-worker counters.
func TestRouterStatsAggregation(t *testing.T) {
	var urls []string
	for _, name := range []string{"w1", "w2"} {
		srv := httptest.NewServer((&fakeWorker{name: name, healthStatus: http.StatusOK}).handler(t))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	rt := routerOver(t, RouterOptions{Workers: urls})
	req := httptest.NewRequest("GET", "/v1/stats", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	var st CacheStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Hits != 4 || st.Misses != 2 || st.Entries != 2 || st.Bytes != 200 {
		t.Errorf("aggregated stats %+v, want sums of two canned workers", st)
	}
	if want := (EngineCounters{BlocksSimulated: 6, BlocksReplayed: 122, BatchedRuns: 1000, BatchedInstrs: 14000}); st.Engine != want {
		t.Errorf("aggregated engine counters %+v, want %+v", st.Engine, want)
	}
}

// TestRouterStatsForwardsRequestID: the /v1/stats fan-out is a
// proxied request like any other — every worker sees the inbound
// X-Request-ID, and each call lands in the per-worker proxy latency
// histogram.
func TestRouterStatsForwardsRequestID(t *testing.T) {
	var fws []*fakeWorker
	var urls []string
	for _, name := range []string{"w1", "w2"} {
		fw := &fakeWorker{name: name, healthStatus: http.StatusOK}
		srv := httptest.NewServer(fw.handler(t))
		t.Cleanup(srv.Close)
		fws = append(fws, fw)
		urls = append(urls, srv.URL)
	}
	rt := routerOver(t, RouterOptions{Workers: urls})
	req := httptest.NewRequest("GET", "/v1/stats", nil)
	req.Header.Set("X-Request-ID", "stats-fanout-7")
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats: %d", rec.Code)
	}
	for i, fw := range fws {
		fw.mu.Lock()
		var got []string
		for j, s := range fw.seen {
			if strings.HasPrefix(s, "GET /v1/stats") {
				got = append(got, fw.ids[j])
			}
		}
		fw.mu.Unlock()
		if len(got) != 1 || got[0] != "stats-fanout-7" {
			t.Errorf("worker %s saw /v1/stats request ids %q, want [stats-fanout-7]", urls[i], got)
		}
	}
	var expo bytes.Buffer
	if err := rt.Metrics().WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	for _, u := range urls {
		if want := fmt.Sprintf(`gpuperf_router_proxy_seconds_count{worker=%q} 1`, u); !strings.Contains(expo.String(), want) {
			t.Errorf("router exposition is missing %q", want)
		}
	}
}

// TestRouterStaticProxy: listings come from any up worker with the
// caching headers intact, and If-None-Match rides through for
// end-to-end 304s.
func TestRouterStaticProxy(t *testing.T) {
	fw := &fakeWorker{name: "w1", healthStatus: http.StatusOK}
	srv := httptest.NewServer(fw.handler(t))
	t.Cleanup(srv.Close)
	rt := routerOver(t, RouterOptions{Workers: []string{srv.URL}})
	h := rt.Handler()

	req := httptest.NewRequest("GET", "/v1/kernels", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "canned-kernel-list") {
		t.Fatalf("proxied kernels: %d %q", rec.Code, rec.Body)
	}
	etag := rec.Header().Get("ETag")
	if etag == "" || !strings.Contains(rec.Header().Get("Cache-Control"), "max-age") {
		t.Errorf("caching headers lost in the hop: %v", rec.Header())
	}
	req = httptest.NewRequest("GET", "/v1/kernels", nil)
	req.Header.Set("If-None-Match", etag)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Errorf("end-to-end revalidation: %d with %d body bytes, want bare 304", rec.Code, rec.Body.Len())
	}

	rt.markDown(srv.URL)
	req = httptest.NewRequest("GET", "/v1/kernels", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("no worker up: %d, want 503", rec.Code)
	}
}

// TestRouterEndToEnd drives a router over two REAL workers (full
// NewHandler fleets) exactly as smoke.sh does: analyze MISS then HIT
// through the router, a cross-shard compare byte-identical to a local
// fleet's, router X-Cache HIT on the repeat, and shard purity — no
// worker ever opened a session outside its shard.
func TestRouterEndToEnd(t *testing.T) {
	a := testAnalyzer(t)
	calDir := t.TempDir()
	if err := a.cal.SaveCachedCalibration(calDir); err != nil {
		t.Fatal(err)
	}
	newWorker := func() *Fleet {
		return NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: calDir})
	}
	fleets := []*Fleet{newWorker(), newWorker()}
	var urls []string
	byURL := map[string]*Fleet{}
	for _, f := range fleets {
		srv := httptest.NewServer(NewHandler(f))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
		byURL[srv.URL] = f
	}
	rt := routerOver(t, RouterOptions{Workers: urls, DefaultDevice: "gtx285-6sm"})
	h := rt.Handler()

	do := func(path, body string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d (%s)", path, rec.Code, rec.Body)
		}
		return rec
	}

	// Analyze through the router: MISS then HIT, byte-identical.
	const analyzeBody = `{"kernel":"matmul16","size":64,"seed":7}`
	cold := do("/v1/analyze", analyzeBody)
	warm := do("/v1/analyze", analyzeBody)
	if cold.Header().Get("X-Cache") != "MISS" || warm.Header().Get("X-Cache") != "HIT" {
		t.Errorf("X-Cache through router: %q then %q, want MISS then HIT",
			cold.Header().Get("X-Cache"), warm.Header().Get("X-Cache"))
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Error("router-proxied hit differs from the miss")
	}

	// Cross-shard compare, twice: the repeat is fully cache-served.
	const compareBody = `{"kernel":"matmul16","size":64,"devices":["gtx285-6sm","gtx285-3sm"]}`
	c1 := do("/v1/compare", compareBody)
	c2 := do("/v1/compare", compareBody)
	if c2.Header().Get("X-Cache") != "HIT" {
		t.Errorf("repeat compare X-Cache %q, want HIT (all shards hit)", c2.Header().Get("X-Cache"))
	}
	if !bytes.Equal(c1.Body.Bytes(), c2.Body.Bytes()) {
		t.Error("repeat comparison differs")
	}

	// Byte-identical to a local fleet answering the same compare.
	local := NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: calDir})
	cmp, _, err := local.CompareCached(httptest.NewRequest("POST", "/", nil).Context(),
		CompareRequest{Kernel: "matmul16", Size: 64, Devices: []string{"gtx285-6sm", "gtx285-3sm"}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := encodeJSON(cmp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c1.Body.Bytes(), want) {
		t.Errorf("proxied comparison differs from local:\n%s\nvs\n%s", c1.Body.Bytes(), want)
	}

	// Shard purity: every session a worker opened belongs to its shard.
	for url, f := range byURL {
		f.mu.Lock()
		for name := range f.sessions {
			owner, err := rt.ShardFor(name)
			if err != nil {
				t.Errorf("worker %s opened session for unresolvable %q", url, name)
				continue
			}
			if owner != url {
				t.Errorf("worker %s opened session %q owned by %s", url, name, owner)
			}
		}
		f.mu.Unlock()
	}

	// The aggregated stats see the traffic.
	req := httptest.NewRequest("GET", "/v1/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var st CacheStats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("aggregated stats after traffic: %+v", st)
	}
}
