package gpuperf

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// NewHandler exposes a Fleet over HTTP:
//
//	GET  /healthz      readiness probe: a FleetHealth JSON body,
//	                   200 once the default device's calibration is
//	                   loaded or built, 503 before ("starting") or on
//	                   calibration failure ("error")
//	GET  /v1/kernels   JSON list of the registry's kernel specs
//	                   (name, description, size bounds, variant
//	                   family and the advisor scenario each variant
//	                   realizes), resident submissions included
//	POST /v1/kernels   body: a KernelSubmission (assembly source or a
//	                   container, launch geometry, declared buffers);
//	                   response: a SubmissionReceipt whose id is the
//	                   kernel name to analyze. Rejections are 400 and
//	                   name the violated ceiling (or the unprovable
//	                   memory access)
//	DELETE /v1/kernels/{id}
//	                   evict a submission (204; 404 for unknown ids)
//	GET  /v1/devices   JSON list of the catalog's device profiles
//	                   (name, hardware fingerprint, knobs, peaks)
//	GET  /v1/stats     result-cache counters (a CacheStats body:
//	                   hits, misses, coalesced, evictions, in-flight)
//	POST /v1/analyze   body: a Request; response: a Result
//	POST /v1/advise    body: a Request; response: an Advice (the
//	                   ranked counterfactual-scenario report)
//	POST /v1/measure   body: a Request; response: a Measurement
//	                   (timing simulator only — no calibration, no
//	                   result cache)
//	POST /v1/compare   body: a CompareRequest; response: a Comparison
//	                   (one kernel ranked across a device set)
//
// Request bodies may name any catalog device ("device", "devices");
// empty means the fleet's default. Analysis errors map to status
// codes: 400 for a malformed body or parameters the kernel rejects
// (including sizes beyond the spec's MaxSize ceiling), 404 for an
// unknown kernel or device, 503 when the request's context ends
// before the simulation does, 500 otherwise. Error bodies are
// {"error": "..."}.
//
// Responses are deterministic per request tuple, so the cacheable
// routes carry caching headers: analyze/advise/compare report how the
// fleet's result cache served them via X-Cache (HIT, MISS or
// COALESCED), and every deterministic body gets a strong ETag
// honoring If-None-Match with 304 Not Modified. The fully static
// kernel and device listings additionally set Cache-Control.
func NewHandler(f *Fleet) http.Handler { return NewObservedHandler(f, Telemetry{}) }

// NewObservedHandler is NewHandler with the observability layer
// configured: every route runs behind the telemetry middleware
// (X-Request-ID, structured access logs, latency histograms,
// slow-request traces) and GET /metrics renders the fleet's registry
// in Prometheus text format. NewHandler is this with the zero
// Telemetry — the middleware always runs; Telemetry only tunes it.
func NewObservedHandler(f *Fleet, tel Telemetry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", metricsHandler(f.Metrics()))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := f.Health()
		status := http.StatusOK
		if h.Status != "ok" {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, r, status, h)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, r, http.StatusOK, f.CacheStats())
	})
	mux.HandleFunc("GET /v1/kernels", func(w http.ResponseWriter, r *http.Request) {
		// No Cache-Control here: submissions make the listing dynamic.
		// The ETag still gives revalidation for free.
		writeCachedJSON(w, r, f.Kernels(), CacheBypass, "")
	})
	mux.HandleFunc("POST /v1/kernels", func(w http.ResponseWriter, r *http.Request) {
		// Submissions carry whole programs, so they get a roomier body
		// cap than the scalar request types — still finite, and tiny
		// next to the admission pipeline's own ceilings.
		req, ok := decodeBodyLimit[KernelSubmission](w, r, maxSubmissionBody)
		if !ok {
			return
		}
		annotate(r, "kernel", req.Label)
		rec, err := f.SubmitKernel(req)
		if err != nil {
			writeAnalysisError(w, r, err)
			return
		}
		writeJSON(w, r, http.StatusOK, rec)
	})
	mux.HandleFunc("DELETE /v1/kernels/{id}", func(w http.ResponseWriter, r *http.Request) {
		annotate(r, "kernel", r.PathValue("id"))
		if err := f.DeleteKernel(r.PathValue("id")); err != nil {
			writeAnalysisError(w, r, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/devices", func(w http.ResponseWriter, r *http.Request) {
		writeCachedJSON(w, r, f.Devices(), CacheBypass, staticCacheControl)
	})
	mux.HandleFunc("POST /v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		req, ok := decodeBody[Request](w, r)
		if !ok {
			return
		}
		annotate(r, "kernel", req.Kernel)
		annotate(r, "device", req.Device)
		res, st, err := f.AnalyzeCached(r.Context(), req)
		if err != nil {
			writeAnalysisError(w, r, err)
			return
		}
		writeCachedJSON(w, r, res, st, "")
	})
	mux.HandleFunc("POST /v1/advise", func(w http.ResponseWriter, r *http.Request) {
		req, ok := decodeBody[Request](w, r)
		if !ok {
			return
		}
		annotate(r, "kernel", req.Kernel)
		annotate(r, "device", req.Device)
		adv, st, err := f.AdviseCached(r.Context(), req)
		if err != nil {
			writeAnalysisError(w, r, err)
			return
		}
		writeCachedJSON(w, r, adv, st, "")
	})
	mux.HandleFunc("POST /v1/measure", func(w http.ResponseWriter, r *http.Request) {
		req, ok := decodeBody[Request](w, r)
		if !ok {
			return
		}
		annotate(r, "kernel", req.Kernel)
		annotate(r, "device", req.Device)
		m, err := f.Measure(r.Context(), req)
		if err != nil {
			writeAnalysisError(w, r, err)
			return
		}
		writeJSON(w, r, http.StatusOK, m)
	})
	mux.HandleFunc("POST /v1/compare", func(w http.ResponseWriter, r *http.Request) {
		req, ok := decodeBody[CompareRequest](w, r)
		if !ok {
			return
		}
		annotate(r, "kernel", req.Kernel)
		annotate(r, "device", strings.Join(req.Devices, ","))
		cmp, st, err := f.CompareCached(r.Context(), req)
		if err != nil {
			writeAnalysisError(w, r, err)
			return
		}
		writeCachedJSON(w, r, cmp, st, "")
	})
	return telemetryMiddleware(mux, f.Metrics(), tel)
}

// staticCacheControl is the policy for the kernel and device
// listings: fully static for a server's lifetime, so clients may
// reuse them for an hour (and revalidate for free via the ETag).
const staticCacheControl = "public, max-age=3600"

// maxSubmissionBody caps POST /v1/kernels bodies: room for a few
// thousand instructions of assembly or container (base64-inflated)
// plus the spec, far beyond any program the admission ceilings admit.
const maxSubmissionBody = 1 << 20

// decodeBody parses one JSON request body into T, writing the error
// response itself when the body is malformed (ok=false).
func decodeBody[T any](w http.ResponseWriter, r *http.Request) (T, bool) {
	// A request is a handful of scalars (plus, for compare, a short
	// device list); a body anywhere near the cap is garbage, and the
	// cap keeps a hostile stream from growing the decode buffer
	// without bound.
	return decodeBodyLimit[T](w, r, 1<<16)
}

// decodeBodyLimit is decodeBody with a route-specific body cap.
func decodeBodyLimit[T any](w http.ResponseWriter, r *http.Request, limit int64) (T, bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	var req T
	if err := dec.Decode(&req); err != nil {
		if maxErr := new(http.MaxBytesError); errors.As(err, &maxErr) {
			writeError(w, r, http.StatusRequestEntityTooLarge, err)
		} else {
			writeError(w, r, http.StatusBadRequest, err)
		}
		return req, false
	}
	if dec.More() {
		writeError(w, r, http.StatusBadRequest, errors.New("gpuperf: trailing data after the request object"))
		return req, false
	}
	return req, true
}

// writeAnalysisError maps an Analyze/Advise/Measure/Compare failure
// to its status.
func writeAnalysisError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrUnknownKernel), errors.Is(err, ErrUnknownDevice):
		writeError(w, r, http.StatusNotFound, err)
	case errors.Is(err, ErrInvalidRequest):
		writeError(w, r, http.StatusBadRequest, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, r, http.StatusServiceUnavailable, err)
	default:
		writeError(w, r, http.StatusInternalServerError, err)
	}
}

// encodeJSON renders v exactly as the service sends it (indented,
// trailing newline) — one encoder, so the ETag and the body can never
// disagree.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// etagFor derives the strong validator for a response body: its
// SHA-256 truncated to 16 bytes, quoted per RFC 9110. Bodies are
// deterministic per request tuple, so equal tags mean equal bytes.
func etagFor(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:16]) + `"`
}

// etagMatch reports whether an If-None-Match header value matches
// etag, honoring the wildcard and comparing weakly (a W/ prefix on a
// candidate is ignored — for bodies this deterministic, weak and
// strong coincide).
func etagMatch(header, etag string) bool {
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(cand), "W/"))
		if cand != "" && (cand == "*" || cand == etag) {
			return true
		}
	}
	return false
}

// writeCachedJSON is writeJSON for deterministic bodies: it stamps
// the strong ETag, answers a matching If-None-Match with 304 Not
// Modified (headers only), reports the fleet cache's verdict via
// X-Cache (omitted for CacheBypass), and applies cacheControl when
// the route sets one.
func writeCachedJSON(w http.ResponseWriter, r *http.Request, v any, st CacheStatus, cacheControl string) {
	body, err := encodeJSON(v)
	if err != nil {
		writeEncodeFailure(w, r, v, err)
		return
	}
	h := w.Header()
	etag := etagFor(body)
	h.Set("ETag", etag)
	if cacheControl != "" {
		h.Set("Cache-Control", cacheControl)
	}
	if st != "" && st != CacheBypass {
		h.Set("X-Cache", string(st))
	}
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		requestLogger(r.Context()).Warn("writing response", "component", "http", "type", fmt.Sprintf("%T", v), "err", err)
	}
}

// writeJSON encodes v before touching the ResponseWriter, so an
// unencodable value (a NaN that crept into a float field, say)
// becomes a logged 500 with a JSON error body instead of a silent
// 200 with a truncated payload. r supplies the request-scoped logger,
// so the error paths carry the request id.
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		writeEncodeFailure(w, r, v, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		// The response line is already on the wire; all we can do for
		// a dead client is note it.
		requestLogger(r.Context()).Warn("writing response", "component", "http", "type", fmt.Sprintf("%T", v), "err", err)
	}
}

// writeEncodeFailure is the shared encode-error tail of writeJSON and
// writeCachedJSON.
func writeEncodeFailure(w http.ResponseWriter, r *http.Request, v any, err error) {
	requestLogger(r.Context()).Error("encoding response", "component", "http", "type", fmt.Sprintf("%T", v), "err", err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusInternalServerError)
	fmt.Fprintf(w, "{\"error\": %q}\n", "gpuperf: encoding response: "+err.Error())
}

func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeJSON(w, r, status, map[string]string{"error": err.Error()})
}
