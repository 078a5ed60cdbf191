package gpuperf

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"gpuperf/internal/obs"
	"gpuperf/internal/resultstore"
	"gpuperf/internal/timing"
)

// The result cache exploits the system's end-to-end determinism: a
// (kernel, normalized size/seed, output-affecting options,
// device-fingerprint) tuple always yields a bit-identical Result,
// Advice or Comparison, so every analysis is perfectly memoizable.
// Requests are addressed by a canonical fingerprint mirroring
// gpu.Fingerprint's scheme: any knob that can change the output
// separates two keys; anything that cannot — device renames,
// parallelism, request field order — does not.

// CacheStatus reports how a fleet request was served; the HTTP layer
// surfaces it as the X-Cache response header.
type CacheStatus string

const (
	// CacheMiss: this request ran the simulation (and populated the
	// cache).
	CacheMiss CacheStatus = "MISS"
	// CacheHit: served from the result cache (memory or disk).
	CacheHit CacheStatus = "HIT"
	// CacheCoalesced: an identical request was already in flight;
	// this one waited for the leader's result instead of computing.
	CacheCoalesced CacheStatus = "COALESCED"
	// CacheBypass: the request failed before reaching the cache, or
	// the response (a static listing) is not a cached result.
	CacheBypass CacheStatus = "BYPASS"
)

// DefaultCacheBytes is the in-memory result-cache budget a fleet uses
// when FleetOptions.CacheBytes is zero.
const DefaultCacheBytes int64 = 32 << 20

// CacheStats is the GET /v1/stats wire type: the fleet result cache's
// counters and gauges.
type CacheStats struct {
	// Hits = MemoryHits + DiskHits.
	Hits       int64 `json:"hits"`
	MemoryHits int64 `json:"memory_hits"`
	DiskHits   int64 `json:"disk_hits"`
	// Misses counts simulations actually run (singleflight leaders).
	Misses int64 `json:"misses"`
	// Coalesced counts requests that waited on an identical in-flight
	// computation instead of starting their own.
	Coalesced int64 `json:"coalesced"`
	// Evictions counts in-memory entries dropped for the byte budget.
	Evictions int64 `json:"evictions"`
	// SaveErrors counts failed best-effort disk writes.
	SaveErrors int64 `json:"save_errors,omitempty"`
	// InFlight is the number of simulations running right now.
	InFlight int `json:"in_flight"`
	// Entries/Bytes describe the current memory tier;
	// MemoryBudgetBytes its configured ceiling.
	Entries           int   `json:"entries"`
	Bytes             int64 `json:"bytes"`
	MemoryBudgetBytes int64 `json:"memory_budget_bytes"`
	// Submissions/SubmissionBytes gauge the resident user-submitted
	// kernels (the POST /v1/kernels store); SubmissionEvictions counts
	// the ones removed for any reason (LRU pressure, TTL expiry,
	// deletion).
	Submissions         int   `json:"submissions"`
	SubmissionBytes     int64 `json:"submission_bytes"`
	SubmissionEvictions int64 `json:"submission_evictions"`
	// Engine reports the fleet's cumulative simulation-engine
	// effectiveness (blocks replayed vs simulated, batched stepping),
	// summed across sessions.
	Engine EngineCounters `json:"engine"`
	// UptimeSeconds is the time since the fleet was built; on the
	// router path it aggregates as the oldest worker's uptime.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests counts fleet front-door calls by operation (analyze,
	// advise, compare, measure, submit, evict) — cache hits included,
	// Compare's internal per-device analyses not. Routers sum the
	// maps across workers.
	Requests map[string]int64 `json:"requests,omitempty"`
}

// CacheStats returns a snapshot of the fleet's result-cache counters.
func (f *Fleet) CacheStats() CacheStats {
	cs := CacheStats{
		Engine: f.EngineCounters(),
		// Milliseconds are plenty; full float64 tails would churn the
		// JSON diff on every scrape.
		UptimeSeconds: math.Round(time.Since(f.start).Seconds()*1e3) / 1e3, //gpuperf:wallclock uptime is telemetry; /v1/stats is never cached or fingerprinted
		Requests:      f.requestCounts(),
	}
	if f.subs != nil {
		cs.Submissions, cs.SubmissionBytes, cs.SubmissionEvictions = f.subs.Stats()
	}
	st := f.store.Stats()
	cs.Hits = st.Hits
	cs.MemoryHits = st.MemoryHits
	cs.DiskHits = st.DiskHits
	cs.Misses = st.Misses
	cs.Coalesced = st.Coalesced
	cs.Evictions = st.Evictions
	cs.SaveErrors = st.SaveErrors
	cs.InFlight = st.InFlight
	cs.Entries = st.Entries
	cs.Bytes = st.Bytes
	cs.MemoryBudgetBytes = st.MemoryBudget
	return cs
}

// requestKey is the canonical pre-image of a request fingerprint.
// Only fields that can change the response's bytes appear: the
// operation (an Advice for a tuple is not its Result), the kernel,
// the NORMALIZED size and seed (so "size 0" and the kernel's default
// size share a slot), the output-affecting options, and hardware
// fingerprints in place of device names (renaming a device never
// separates keys — exactly gpu.Fingerprint's contract), and the model
// version, so a change that moves a prediction never serves a slot
// written before it. Parallelism is deliberately absent: results are
// bit-identical at any worker count.
type requestKey struct {
	Op     string `json:"op"`
	Kernel string `json:"kernel"`
	Size   int    `json:"size"`
	Seed   int64  `json:"seed"`
	// Measure adds measured fields to Result/Comparison; SkipVerify
	// removes Result.MaxAbsError. Advise ignores both, so adviseKey
	// leaves them false.
	Measure    bool `json:"measure,omitempty"`
	SkipVerify bool `json:"skip_verify,omitempty"`
	// Device is the hardware fingerprint for analyze/advise.
	Device string `json:"device,omitempty"`
	// Devices/Baseline are the compare set's hardware fingerprints
	// (sorted — the ranking is order-independent) and the baseline's.
	Devices  []string `json:"devices,omitempty"`
	Baseline string   `json:"baseline,omitempty"`
	// Model is timing.ModelVersion. It is omitted at 0, so keys made
	// before it existed stay valid.
	Model int `json:"model,omitempty"`
}

// digest returns the SHA-256 fingerprint of the canonical key. Struct
// fields marshal in declaration order, so the JSON form is canonical
// for a given package version.
func (k requestKey) digest() string {
	blob, err := json.Marshal(k)
	if err != nil {
		// requestKey is a flat struct of scalars and strings; Marshal
		// cannot fail.
		panic(fmt.Sprintf("gpuperf: request fingerprint: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// analyzeKey fingerprints an Analyze request (req already normalized
// and routed; devFP is the session device's hardware fingerprint).
func analyzeKey(req Request, devFP string) string {
	return requestKey{
		Op:         "analyze",
		Kernel:     req.Kernel,
		Size:       req.Size,
		Seed:       req.Seed,
		Measure:    req.Measure,
		SkipVerify: req.SkipVerify,
		Device:     devFP,
		Model:      timing.ModelVersion,
	}.digest()
}

// adviseKey fingerprints an Advise request. Measure and SkipVerify
// are excluded: Advise ignores both, so requests differing only
// there share advice.
func adviseKey(req Request, devFP string) string {
	return requestKey{
		Op:     "advise",
		Kernel: req.Kernel,
		Size:   req.Size,
		Seed:   req.Seed,
		Device: devFP,
		Model:  timing.ModelVersion,
	}.digest()
}

// compareKey fingerprints a Compare request: the device set as
// SORTED hardware fingerprints plus the baseline's — reordering the
// set with the same baseline cannot change the ranked outcome, so it
// shares a slot.
func compareKey(req CompareRequest, fps []string, baselineFP string) string {
	sorted := append([]string(nil), fps...)
	sort.Strings(sorted)
	return requestKey{
		Op:       "compare",
		Kernel:   req.Kernel,
		Size:     req.Size,
		Seed:     req.Seed,
		Measure:  req.Measure,
		Devices:  sorted,
		Baseline: baselineFP,
		Model:    timing.ModelVersion,
	}.digest()
}

// cachedBody serves one request through the fleet's result store:
// hit, coalesce onto an identical in-flight computation, or lead the
// computation and populate both tiers. The store holds every value in
// the form the service sends it (encodeJSON: indented, trailing
// newline), so an HTTP hit writes the stored bytes as they are and a
// cached response is byte-identical to a freshly computed one by
// construction. The body is shared by every caller and must not be
// modified; it is clipped, so an append copies instead of writing
// past its end. Typed callers decode their own copy (decodeServed),
// so no two callers alias one mutable struct.
func cachedBody(ctx context.Context, f *Fleet, key string, compute func(context.Context) (any, error)) ([]byte, CacheStatus, error) {
	// The cache span covers the whole store.Do call: on a hit it is
	// the probe itself; on a miss the computation's spans nest inside
	// it, so a slow-request tree shows probe-turned-compute honestly.
	ctx, sp := obs.StartSpan(ctx, "cache")
	body, st, err := f.store.Do(ctx, key, func() ([]byte, error) {
		v, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		return encodeJSON(v)
	})
	sp.End()
	status := CacheMiss
	switch st {
	case resultstore.MemoryHit, resultstore.DiskHit:
		status = CacheHit
	case resultstore.Coalesced:
		status = CacheCoalesced
	}
	if err != nil {
		return nil, status, err
	}
	return slices.Clip(body), status, nil
}

// decodeServed decodes a served body into a fresh T: the typed Fleet
// methods' view of the bytes the HTTP routes write.
func decodeServed[T any](body []byte, st CacheStatus, err error) (*T, CacheStatus, error) {
	if err != nil {
		return nil, st, err
	}
	v := new(T)
	if err := json.Unmarshal(body, v); err != nil {
		return nil, st, fmt.Errorf("gpuperf: decoding cached result: %w", err)
	}
	return v, st, nil
}
