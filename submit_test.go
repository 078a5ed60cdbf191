package gpuperf

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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

	// Submissions appear in the kernel listing like any registry entry.
	spec, ok := f.Registry().Lookup(rec.ID)
	if !ok || !spec.Unverified || spec.Family != "submitted" {
		t.Fatalf("submission spec not registered: %+v ok=%v", spec, ok)
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
	if _, ok := f.Registry().Lookup(rec.ID); ok {
		t.Fatal("deleted submission still registered")
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
	if _, ok := f.Registry().Lookup(a.ID); ok {
		t.Fatal("LRU-evicted submission still registered")
	}
	if _, ok := f.Registry().Lookup(b.ID); !ok {
		t.Fatal("resident submission missing from registry")
	}
}

// submissionFleet is a dedicated fleet for submission tests (the
// shared testFleet must stay submission-free), seeded with the shared
// session's calibration so nothing recalibrates.
func submissionFleet(t *testing.T) *Fleet {
	t.Helper()
	a := testAnalyzer(t)
	dir := t.TempDir()
	if err := a.cal.SaveCachedCalibration(dir); err != nil {
		t.Fatal(err)
	}
	return NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: dir})
}

func TestHandlerSubmitKernelRoundTrip(t *testing.T) {
	h := NewHandler(submissionFleet(t))
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
	a := testAnalyzer(t)
	calDir := t.TempDir()
	if err := a.cal.SaveCachedCalibration(calDir); err != nil {
		t.Fatal(err)
	}
	fleets := []*Fleet{
		NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: calDir}),
		NewFleet(FleetOptions{DefaultDevice: "gtx285-6sm", CalibrationDir: calDir}),
	}
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
	if _, ok := f2.Registry().Lookup(rec.ID); !ok {
		t.Fatal("submission not reloaded by a fresh fleet")
	}
	subs := f2.Submissions()
	if len(subs) != 1 || subs[0].ID != rec.ID || subs[0].Label != "tree-reduction" {
		t.Fatalf("Submissions() after restart: %+v", subs)
	}
}
