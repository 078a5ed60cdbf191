package gpuperf

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// submitReduceSource mirrors the internal/ingest canonical test
// kernel: a shared-memory tree reduction over 64-thread blocks whose
// guarded halving steps exercise the bounds verifier end to end.
func submitReduceSource(grid int) string {
	var b strings.Builder
	b.WriteString(".kernel reduce64\n.regs 13\n.smem 256\n")
	b.WriteString(`
s2r r0, %tid
s2r r1, %ctaid
s2r r2, %ntid
imad r3, r1, r2, r0
shl r4, r3, 2
gld r5, r4
shl r6, r0, 2
sst r6, r5
bar.sync
`)
	for s := 32; s >= 1; s /= 2 {
		fmt.Fprintf(&b, "isetp.lt p0, r0, %d\n", s)
		fmt.Fprintf(&b, "@p0 iadd r7, r0, %d\n", s)
		b.WriteString(`@p0 shl r7, r7, 2
@p0 sld r8, r7
@p0 sld r9, r6
@p0 fadd r9, r9, r8
@p0 sst r6, r9
bar.sync
`)
	}
	fmt.Fprintf(&b, `isetp.eq p1, r0, 0
mov r10, 0
@p1 sld r11, r10
@p1 shl r12, r1, 2
@p1 iadd r12, r12, %d
@p1 gst r12, r11
exit
`, 4*grid*64)
	return b.String()
}

func submitReduceRequest(grid int) KernelSubmission {
	return KernelSubmission{
		Label:  "tree-reduction",
		Source: submitReduceSource(grid),
		Grid:   grid,
		Block:  64,
		Buffers: []BufferSpec{
			{Name: "in", Elem: "f32", Count: grid * 64, Fill: "random"},
			{Name: "out", Elem: "f32", Count: grid, Fill: "zeros"},
		},
	}
}

// listed returns the spec f.Kernels() lists under name.
func listed(f *Fleet, name string) (KernelSpec, bool) {
	for _, s := range f.Kernels() {
		if s.Name == name {
			return s, true
		}
	}
	return KernelSpec{}, false
}

func TestSubmitKernelLifecycle(t *testing.T) {
	f := NewFleet(FleetOptions{CalibrationDir: t.TempDir()})
	rec, err := f.SubmitKernel(submitReduceRequest(4))
	if err != nil {
		t.Fatalf("SubmitKernel: %v", err)
	}
	if !IsSubmissionID(rec.ID) || rec.Kernel != "reduce64" || rec.Existing {
		t.Fatalf("bad receipt: %+v", rec)
	}
	if rec.Instructions == 0 || rec.Registers != 13 || rec.FootprintBytes == 0 {
		t.Fatalf("static summary missing: %+v", rec)
	}
	if id, err := SubmissionID(submitReduceRequest(4)); err != nil || id != rec.ID {
		t.Fatalf("SubmissionID = %q, %v; want %q", id, err, rec.ID)
	}

	// Submissions appear in the kernel listing like any built-in.
	spec, ok := listed(f, rec.ID)
	if !ok || !spec.Unverified || spec.Family != "submitted" {
		t.Fatalf("submission spec not listed: %+v ok=%v", spec, ok)
	}
	if _, ok := DefaultRegistry().Lookup(rec.ID); ok {
		t.Fatal("submission leaked into the process-global registry")
	}

	// Analyze by id: MISS then HIT; the result carries the
	// measure-only verification policy.
	ctx := context.Background()
	res, st, err := f.AnalyzeCached(ctx, Request{Kernel: rec.ID})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if st != CacheMiss {
		t.Fatalf("first analyze: X-Cache %s, want MISS", st)
	}
	if res.Bottleneck == "" || res.Grid != 4 || res.Block != 64 {
		t.Fatalf("result: %+v", res)
	}
	if res.VerifyError != "unverified: user-submitted" || res.MaxAbsError != nil {
		t.Fatalf("verification policy not applied: verify_error=%q max_abs_error=%v", res.VerifyError, res.MaxAbsError)
	}
	// SkipVerify is pinned for submissions: toggling it must not split
	// the cache slot.
	if _, st, err = f.AnalyzeCached(ctx, Request{Kernel: rec.ID, SkipVerify: true}); err != nil || st != CacheHit {
		t.Fatalf("second analyze: X-Cache %s, %v; want HIT", st, err)
	}

	// Resubmission dedupes.
	again := submitReduceRequest(4)
	again.Label = "renamed"
	rec2, err := f.SubmitKernel(again)
	if err != nil || rec2.ID != rec.ID || !rec2.Existing {
		t.Fatalf("resubmit: %+v, %v", rec2, err)
	}
	if n, _, _ := f.subs.Stats(); n != 1 {
		t.Fatalf("resubmission duplicated the store: %d entries", n)
	}
	if cs := f.CacheStats(); cs.Submissions != 1 || cs.SubmissionBytes == 0 {
		t.Fatalf("stats gauges: %+v", cs)
	}

	// Delete retires the id end to end.
	if err := f.DeleteKernel(rec.ID); err != nil {
		t.Fatalf("DeleteKernel: %v", err)
	}
	if err := f.DeleteKernel(rec.ID); !errors.Is(err, ErrUnknownKernel) {
		t.Fatalf("double delete: %v", err)
	}
	if _, ok := listed(f, rec.ID); ok {
		t.Fatal("deleted submission still listed")
	}
	if _, err := f.Analyze(ctx, Request{Kernel: rec.ID}); !errors.Is(err, ErrUnknownKernel) {
		t.Fatalf("analyze after delete: %v", err)
	}
}

func TestSubmitKernelRejections(t *testing.T) {
	f := NewFleet(FleetOptions{})
	oob := submitReduceRequest(4)
	oob.Buffers[0].Count = 3 * 64 // program addresses 4*64 elements
	_, err := f.SubmitKernel(oob)
	if !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("out-of-bounds submission: %v", err)
	}
	if !strings.Contains(err.Error(), "envelope") {
		t.Fatalf("rejection does not name the envelope: %v", err)
	}

	tight := NewFleet(FleetOptions{SubmissionLimits: SubmissionLimits{MaxInstructions: 4}})
	_, err = tight.SubmitKernel(submitReduceRequest(4))
	if !errors.Is(err, ErrInvalidRequest) || !strings.Contains(err.Error(), "instruction ceiling") {
		t.Fatalf("over-budget submission: %v", err)
	}

	// dadd reads the pair r2,r3, but only 3 registers are declared.
	pair := KernelSubmission{
		Source:  ".kernel pair\n.regs 3\ndadd r0, r2, r2\nexit\n",
		Grid:    1,
		Block:   32,
		Buffers: []BufferSpec{{Name: "b", Elem: "u32", Count: 32, Fill: "zeros"}},
	}
	_, err = f.SubmitKernel(pair)
	if !errors.Is(err, ErrInvalidRequest) || !strings.Contains(err.Error(), "declares 3 registers but uses 4") {
		t.Fatalf("submission reading past its declared registers: %v", err)
	}
}

// TestMeasureHonoursSubmissionBudget: a submission's admission-time
// instruction budget bounds the device simulator too, so a
// measure-only request — which never runs the functional engine —
// cannot run a looping submission past its ceiling. The kernel
// issues about 7.4k warp instructions at grid 64; the ceiling is 5k.
func TestMeasureHonoursSubmissionBudget(t *testing.T) {
	f := NewFleet(FleetOptions{SubmissionLimits: SubmissionLimits{MaxWarpInstructions: 5000}})
	rec, err := f.SubmitKernel(submitReduceRequest(64))
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Measure(context.Background(), Request{Kernel: rec.ID})
	if err == nil || !strings.Contains(err.Error(), "instruction budget exhausted") {
		t.Fatalf("measure over the submission's budget: got %v, want an exhausted budget", err)
	}
}

// TestSubmittedKernelFaultIs422: a submission the verifier admits but
// that faults at run time is the kernel's fault, not the server's:
// analyze, advise and measure answer 422 naming the fault, a routed
// analyze relays it, and /metrics counts these apart from 500s. One
// program loads from an unaligned address; the other loops until it
// spends its instruction budget.
func TestSubmittedKernelFaultIs422(t *testing.T) {
	f := cacheTestFleet(t, FleetOptions{SubmissionLimits: SubmissionLimits{MaxWarpInstructions: 5000}})
	h := NewHandler(f)
	worker := httptest.NewServer(h)
	t.Cleanup(worker.Close)
	routed := routerOver(t, RouterOptions{Workers: []string{worker.URL}, DefaultDevice: "gtx285-6sm"}).Handler()
	buf := []BufferSpec{{Name: "buf", Elem: "u32", Count: 64, Fill: "zeros"}}
	faults := []struct {
		source, fault string
	}{
		{".kernel unal\n.regs 3\ns2r r0, %tid\nshl r1, r0, 2\niadd r1, r1, 2\ngld r2, r1\nexit\n", "unaligned access at 0x2"},
		{".kernel spin\n.regs 1\nmov r0, 0\niadd r0, r0, 1\nbra @1\nexit\n", "instruction budget exhausted"},
	}
	for _, c := range faults {
		rec, err := f.SubmitKernel(KernelSubmission{Source: c.source, Grid: 1, Block: 32, Buffers: buf})
		if err != nil {
			t.Fatalf("admission: %v", err)
		}
		body := fmt.Sprintf(`{"kernel":%q}`, rec.ID)
		for _, path := range []string{"/v1/analyze", "/v1/advise", "/v1/measure"} {
			got := postJSON(h, path, body, "")
			if got.Code != http.StatusUnprocessableEntity || !strings.Contains(got.Body.String(), c.fault) {
				t.Errorf("%s %s: %d (%s), want 422 naming %q", rec.Kernel, path, got.Code, got.Body, c.fault)
			}
		}
		if got := postJSON(routed, "/v1/analyze", body, ""); got.Code != http.StatusUnprocessableEntity || !strings.Contains(got.Body.String(), c.fault) {
			t.Errorf("%s routed analyze: %d (%s), want 422 naming %q", rec.Kernel, got.Code, got.Body, c.fault)
		}
	}
	metrics := httptest.NewRecorder()
	h.ServeHTTP(metrics, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range []string{
		`gpuperf_http_requests_total{route="/v1/analyze",method="POST",code="422"} 4`,
		`gpuperf_http_requests_total{route="/v1/measure",method="POST",code="422"} 2`,
	} {
		if !strings.Contains(metrics.Body.String(), line) {
			t.Errorf("metrics lack %s", line)
		}
	}
	if strings.Contains(metrics.Body.String(), `code="500"`) {
		t.Error("a kernel fault was counted as a server error")
	}
}

// TestSubmitKernelEvictionDeregisters: an LRU-evicted submission
// leaves the kernel listing; the resident one stays.
func TestSubmitKernelEvictionDeregisters(t *testing.T) {
	f := NewFleet(FleetOptions{SubmissionLimits: SubmissionLimits{MaxCount: 1}})
	a, err := f.SubmitKernel(submitReduceRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.SubmitKernel(submitReduceRequest(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := listed(f, a.ID); ok {
		t.Fatal("LRU-evicted submission still listed")
	}
	if _, ok := listed(f, b.ID); !ok {
		t.Fatal("resident submission missing from the kernel listing")
	}
}

// TestSubmitKernelExpiredIsUnknown: a submission past its TTL is
// gone for the very next call that names it, whichever call that is:
// it is absent from Kernels(), and Measure, Analyze and DeleteKernel
// of it report ErrUnknownKernel, with no other store call in between.
// Each probe gets a fleet of its own, so no probe's lookup expires
// the submission for another.
func TestSubmitKernelExpiredIsUnknown(t *testing.T) {
	ctx := context.Background()
	probes := []struct {
		name string
		run  func(f *Fleet, id string) error
	}{
		{"Kernels", func(f *Fleet, id string) error {
			if _, ok := listed(f, id); ok {
				return errors.New("still listed")
			}
			return nil
		}},
		{"Measure", func(f *Fleet, id string) error {
			_, err := f.Measure(ctx, Request{Kernel: id})
			return wantUnknownKernel(err)
		}},
		{"Analyze", func(f *Fleet, id string) error {
			_, err := f.Analyze(ctx, Request{Kernel: id})
			return wantUnknownKernel(err)
		}},
		{"DeleteKernel", func(f *Fleet, id string) error {
			return wantUnknownKernel(f.DeleteKernel(id))
		}},
	}
	fleets := make([]*Fleet, len(probes))
	ids := make([]string, len(probes))
	for i := range probes {
		fleets[i] = NewFleet(FleetOptions{SubmissionLimits: SubmissionLimits{TTL: 50 * time.Millisecond}})
		rec, err := fleets[i].SubmitKernel(submitReduceRequest(2))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = rec.ID
	}
	time.Sleep(120 * time.Millisecond)
	for i, p := range probes {
		if err := p.run(fleets[i], ids[i]); err != nil {
			t.Errorf("%s of an expired submission: %v", p.name, err)
		}
	}
}

func wantUnknownKernel(err error) error {
	if !errors.Is(err, ErrUnknownKernel) {
		return fmt.Errorf("got %v, want ErrUnknownKernel", err)
	}
	return nil
}

// TestSubmitKernelUseRefreshesRecency: analyzing a submission is a
// use of it. With room for two, a submission analyzed after a newer
// one was admitted survives the next admission, and the idle one is
// the one evicted.
func TestSubmitKernelUseRefreshesRecency(t *testing.T) {
	ctx := context.Background()
	f := cacheTestFleet(t, FleetOptions{SubmissionLimits: SubmissionLimits{MaxCount: 2}})
	submit := func(grid int) string {
		t.Helper()
		rec, err := f.SubmitKernel(submitReduceRequest(grid))
		if err != nil {
			t.Fatal(err)
		}
		return rec.ID
	}
	used, idle := submit(2), submit(3)
	if _, err := f.Analyze(ctx, Request{Kernel: used}); err != nil {
		t.Fatal(err)
	}
	newest := submit(4)
	for _, id := range []string{used, newest} {
		if _, ok := listed(f, id); !ok {
			t.Errorf("%s evicted; want it resident", id)
		}
	}
	if _, ok := listed(f, idle); ok {
		t.Errorf("idle %s kept; want it evicted", idle)
	}
	if _, err := f.Measure(ctx, Request{Kernel: idle}); !errors.Is(err, ErrUnknownKernel) {
		t.Errorf("measure of the evicted submission: %v", err)
	}
}

// TestSubmitKernelConcurrentOneNew: goroutines submitting one program
// at once all get its id, and exactly one receipt says it was newly
// admitted — the store decides that under its own lock.
func TestSubmitKernelConcurrentOneNew(t *testing.T) {
	f := NewFleet(FleetOptions{})
	const n = 8
	recs := make([]*SubmissionReceipt, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			recs[i], errs[i] = f.SubmitKernel(submitReduceRequest(4))
		}()
	}
	close(start)
	wg.Wait()
	fresh := 0
	for i, rec := range recs {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if rec.ID != recs[0].ID {
			t.Fatalf("submit %d got id %s, want %s", i, rec.ID, recs[0].ID)
		}
		if !rec.Existing {
			fresh++
		}
	}
	if fresh != 1 {
		t.Errorf("%d of %d receipts are new, want exactly 1", fresh, n)
	}
	if count, _, _ := f.subs.Stats(); count != 1 {
		t.Errorf("store holds %d submissions, want 1", count)
	}
}

func TestHandlerSubmitKernelRoundTrip(t *testing.T) {
	// A private fleet: the shared testFleet must stay submission-free.
	h := NewHandler(cacheTestFleet(t, FleetOptions{}))
	do := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	body, err := json.Marshal(submitReduceRequest(4))
	if err != nil {
		t.Fatal(err)
	}

	// Submit: 200 with a receipt naming the id.
	rec := do("POST", "/v1/kernels", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("submit: %d (%s)", rec.Code, rec.Body)
	}
	var receipt SubmissionReceipt
	if err := json.Unmarshal(rec.Body.Bytes(), &receipt); err != nil {
		t.Fatal(err)
	}
	if !IsSubmissionID(receipt.ID) || receipt.Kernel != "reduce64" || receipt.Existing {
		t.Fatalf("receipt: %+v", receipt)
	}

	// The listing now carries the submission.
	rec = do("GET", "/v1/kernels", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), receipt.ID) {
		t.Fatalf("kernel listing misses submission: %d (%s)", rec.Code, rec.Body)
	}

	// Analyze by id: MISS then HIT, unverified policy on the wire.
	analyzeBody := fmt.Sprintf(`{"kernel":%q}`, receipt.ID)
	cold := do("POST", "/v1/analyze", analyzeBody)
	if cold.Code != http.StatusOK {
		t.Fatalf("analyze: %d (%s)", cold.Code, cold.Body)
	}
	var res Result
	if err := json.Unmarshal(cold.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Bottleneck == "" || res.VerifyError != "unverified: user-submitted" {
		t.Fatalf("result on the wire: bottleneck=%q verify_error=%q", res.Bottleneck, res.VerifyError)
	}
	if got := cold.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("first analyze X-Cache %q", got)
	}
	warm := do("POST", "/v1/analyze", analyzeBody)
	if got := warm.Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("second analyze X-Cache %q", got)
	}

	// Resubmission dedupes on the wire.
	rec = do("POST", "/v1/kernels", string(body))
	var again SubmissionReceipt
	if err := json.Unmarshal(rec.Body.Bytes(), &again); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || again.ID != receipt.ID || !again.Existing {
		t.Fatalf("resubmit: %d %+v", rec.Code, again)
	}

	// Delete: 204, then 404 on the repeat and on analyze.
	if rec = do("DELETE", "/v1/kernels/"+receipt.ID, ""); rec.Code != http.StatusNoContent {
		t.Fatalf("delete: %d (%s)", rec.Code, rec.Body)
	}
	if rec = do("DELETE", "/v1/kernels/"+receipt.ID, ""); rec.Code != http.StatusNotFound {
		t.Fatalf("double delete: %d", rec.Code)
	}
	if rec = do("POST", "/v1/analyze", analyzeBody); rec.Code != http.StatusNotFound {
		t.Fatalf("analyze after delete: %d", rec.Code)
	}
}

func TestHandlerSubmitKernelRejections(t *testing.T) {
	h := NewHandler(NewFleet(FleetOptions{}))
	do := func(body string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest("POST", "/v1/kernels", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	// Out of bounds: 400 naming the envelope.
	oob := submitReduceRequest(4)
	oob.Buffers[0].Count = 3 * 64
	body, _ := json.Marshal(oob)
	if rec := do(string(body)); rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "envelope") {
		t.Fatalf("out-of-bounds submission: %d (%s)", rec.Code, rec.Body)
	}

	// Unparsable program: 400.
	bad := submitReduceRequest(2)
	bad.Source = "this is not assembly"
	body, _ = json.Marshal(bad)
	if rec := do(string(body)); rec.Code != http.StatusBadRequest {
		t.Fatalf("garbage source: %d (%s)", rec.Code, rec.Body)
	}

	// Oversized body: 413 from the submission cap.
	huge := submitReduceRequest(2)
	huge.Label = strings.Repeat("x", maxSubmissionBody)
	body, _ = json.Marshal(huge)
	if rec := do(string(body)); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submission: %d", rec.Code)
	}
}

// TestRouterSubmitEndToEnd drives submissions through a router over
// two real workers: the submission lands on the shard owning its
// program hash, and an analyze that first hits the device's shard is
// retried on the submission's owner after the foreign 404.
func TestRouterSubmitEndToEnd(t *testing.T) {
	fleets := []*Fleet{cacheTestFleet(t, FleetOptions{}), cacheTestFleet(t, FleetOptions{})}
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
	deviceShard, err := rt.ShardFor("")
	if err != nil {
		t.Fatal(err)
	}

	// Pick a grid whose submission id hashes to the OTHER worker than
	// the default device's shard, so the analyze MUST take the
	// foreign-404 retry path to succeed.
	var sub KernelSubmission
	var id string
	for grid := 2; grid < 64; grid++ {
		cand := submitReduceRequest(grid)
		cid, err := SubmissionID(cand)
		if err != nil {
			t.Fatal(err)
		}
		if rt.shardFor(cid) != deviceShard {
			sub, id = cand, cid
			break
		}
	}
	if id == "" {
		t.Fatal("no grid produced a cross-shard submission id")
	}

	do := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	body, _ := json.Marshal(sub)
	rec := do("POST", "/v1/kernels", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("submit via router: %d (%s)", rec.Code, rec.Body)
	}
	var receipt SubmissionReceipt
	if err := json.Unmarshal(rec.Body.Bytes(), &receipt); err != nil {
		t.Fatal(err)
	}
	if receipt.ID != id {
		t.Fatalf("router receipt id %q, want %q", receipt.ID, id)
	}
	// Only the owner shard holds it.
	owner := rt.shardFor(id)
	if n, _, _ := byURL[owner].subs.Stats(); n != 1 {
		t.Fatalf("owner shard holds %d submissions, want 1", n)
	}
	if n, _, _ := byURL[deviceShard].subs.Stats(); n != 0 {
		t.Fatalf("foreign shard holds %d submissions, want 0", n)
	}

	// Analyze routes by device, 404s on the foreign shard, and the
	// router retries on the owner: the client sees plain 200s.
	analyzeBody := fmt.Sprintf(`{"kernel":%q}`, id)
	cold := do("POST", "/v1/analyze", analyzeBody)
	if cold.Code != http.StatusOK {
		t.Fatalf("analyze via router: %d (%s)", cold.Code, cold.Body)
	}
	if got := cold.Header().Get("X-Cache"); got != "MISS" {
		t.Fatalf("first analyze X-Cache %q", got)
	}
	warm := do("POST", "/v1/analyze", analyzeBody)
	if got := warm.Header().Get("X-Cache"); got != "HIT" {
		t.Fatalf("second analyze X-Cache %q", got)
	}
	// Revalidation takes the same retry: the If-None-Match must reach
	// the owner shard too, so the client gets a bare 304.
	req := httptest.NewRequest("POST", "/v1/analyze", strings.NewReader(analyzeBody))
	req.Header.Set("If-None-Match", warm.Header().Get("ETag"))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Fatalf("cross-shard revalidation: %d with %d body bytes, want bare 304", rec.Code, rec.Body.Len())
	}

	// An escaped '?' stays part of the id on the hop: deleting
	// "<id>?<s>", which routes to the same owner, must not delete <id>.
	var suffix string
	for i := 0; i < 64 && suffix == ""; i++ {
		if s := fmt.Sprint(i); rt.shardFor(id+"?"+s) == owner {
			suffix = s
		}
	}
	if suffix == "" {
		t.Fatal("no suffix routed the escaped id to the owner shard")
	}
	if rec = do("DELETE", "/v1/kernels/"+id+"%3F"+suffix, ""); rec.Code != http.StatusNotFound {
		t.Fatalf("delete of an escaped id via router: %d (%s), want 404", rec.Code, rec.Body)
	}
	if n, _, _ := byURL[owner].subs.Stats(); n != 1 {
		t.Fatalf("owner shard holds %d submissions after an escaped-id delete, want 1", n)
	}

	// Delete routes by id; afterwards analyze 404s on every shard.
	if rec = do("DELETE", "/v1/kernels/"+id, ""); rec.Code != http.StatusNoContent {
		t.Fatalf("delete via router: %d (%s)", rec.Code, rec.Body)
	}
	if rec = do("POST", "/v1/analyze", analyzeBody); rec.Code != http.StatusNotFound {
		t.Fatalf("analyze after delete via router: %d (%s)", rec.Code, rec.Body)
	}
}

func TestSubmitKernelPersistenceAcrossFleets(t *testing.T) {
	dir := t.TempDir()
	f1 := NewFleet(FleetOptions{SubmissionDir: dir})
	rec, err := f1.SubmitKernel(submitReduceRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	f2 := NewFleet(FleetOptions{SubmissionDir: dir})
	if _, ok := listed(f2, rec.ID); !ok {
		t.Fatal("submission not reloaded by a fresh fleet")
	}
	subs := f2.Submissions()
	if len(subs) != 1 || subs[0].ID != rec.ID || subs[0].Label != "tree-reduction" {
		t.Fatalf("Submissions() after restart: %+v", subs)
	}
}
