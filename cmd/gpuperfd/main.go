// Command gpuperfd serves the analysis workflow over HTTP: one Fleet
// of per-device Analyzer sessions (one cached calibration each)
// handling concurrent requests behind a shared admission limit, every
// Analyze/Advise/Compare memoized by a content-addressed result
// cache with singleflight dedup.
//
//	gpuperfd [-addr :8080] [-devices gtx285,gtx285-6sm] [-cal-dir dir]
//	         [-cache-dir dir] [-cache-mem bytes] [-p workers]
//	         [-precalibrate] [-subs-dir dir] [-subs-max n]
//	         [-subs-mem bytes] [-subs-ttl 1h]
//	         [-log-format text|json] [-slow-ms n] [-pprof 127.0.0.1:6060]
//	gpuperfd -route http://w1:8098,http://w2:8099 [-addr :8080]
//	         [-devices ...]
//
// Endpoints:
//
//	GET  /healthz      readiness probe (JSON; 503 until the default
//	                   device's calibration is loaded or built)
//	GET  /metrics      Prometheus text exposition (on a router: its
//	                   own series plus every up worker's, each worker
//	                   sample labeled worker="<url>")
//	GET  /v1/kernels   list the registry's kernels with their variant
//	                   families and realized optimizations (resident
//	                   user submissions included)
//	POST /v1/kernels   submit a user kernel: assembly text or a GCUB
//	                   container plus launch geometry and declared
//	                   buffers → a receipt whose id is the kernel
//	                   name to analyze (400 names the violated
//	                   admission ceiling)
//	DELETE /v1/kernels/{id}
//	                   evict a submission (204; 404 for unknown ids)
//	GET  /v1/devices   list the served device profiles (name,
//	                   hardware fingerprint, knobs, peaks)
//	GET  /v1/stats     result-cache counters (hits, misses,
//	                   coalesced, evictions, in-flight) plus uptime
//	                   and per-operation request counts
//	POST /v1/analyze   {"kernel":"matmul16","size":64,"device":"gtx285-6sm"} → Result
//	POST /v1/advise    same body → Advice (ranked counterfactual
//	                   what-if scenarios with predicted speedups)
//	POST /v1/measure   same body → Measurement (timing simulator
//	                   only; no calibration, no result cache)
//	POST /v1/compare   {"kernel":"spmv-ell","devices":["gtx285-6sm","gtx285"]}
//	                   → Comparison (ranked across the device set)
//
// -devices picks which catalog entries to serve (the first is the
// default for requests that name none). -cal-dir points at an
// on-disk calibration cache directory — one file per device
// fingerprint — so restarts skip recalibration. -cache-dir does the
// same for analysis results: one content-addressed slot per request
// fingerprint, so repeats (even across restarts) are hits, with
// -cache-mem bounding the in-memory tier. Aborted client connections
// cancel their in-flight simulations.
//
// -subs-dir persists user submissions the same way (one slot per
// submission id), so accepted kernels survive restarts; -subs-max,
// -subs-mem and -subs-ttl bound the resident set (count, bytes,
// lifetime — zeros keep the library defaults).
//
// Observability: every response carries X-Request-ID (the inbound
// header's value if the client sent one, a fresh id otherwise) and
// every request emits one structured access-log line keyed by that
// id. -log-format picks the slog handler (text for humans, json for
// shippers). Requests slower than -slow-ms additionally log their
// span tree — calibration, admission, build, engine, model, verify —
// at WARN, so "why was this one slow" is answerable from the log
// alone. -pprof serves net/http/pprof on a SEPARATE listener
// (loopback by default; never exposed on the service address).
//
// With -route the daemon is a ROUTER instead of a worker: it
// consistent-hashes each request's device fingerprint across the
// given worker URLs (each worker owns a stable shard, so
// calibrations and caches never duplicate), scatter-gathers
// cross-shard comparisons, health-checks the workers via their
// /healthz, and fails fast with 503 when a shard is down. The worker
// flags (-cal-dir, -cache-dir, -cache-mem, -p, -precalibrate) are
// ignored in router mode.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gpuperf"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	devices := flag.String("devices", gpuperf.DefaultCatalogDevice,
		"comma-separated catalog devices to serve; the first is the default for requests naming none")
	calDir := flag.String("cal-dir", "", "calibration cache directory (one file per device fingerprint; loaded if present, written after calibrating)")
	cacheDir := flag.String("cache-dir", "", "result cache directory (one content-addressed slot per request fingerprint; hits survive restarts)")
	cacheMem := flag.Int64("cache-mem", 0, "in-memory result cache budget in bytes (0 = 32 MiB default, negative = disk-only)")
	parallel := flag.Int("p", 0, "functional-simulation worker goroutines per request (0 = all cores)")
	precalibrate := flag.Bool("precalibrate", false, "calibrate every served device before accepting traffic instead of on first use")
	subsDir := flag.String("subs-dir", "", "submission store directory (one slot per user-submitted kernel; accepted submissions survive restarts)")
	subsMax := flag.Int("subs-max", 0, "max resident user submissions (0 = library default)")
	subsMem := flag.Int64("subs-mem", 0, "submission store byte budget (0 = library default)")
	subsTTL := flag.Duration("subs-ttl", 0, "submission time-to-live, e.g. 30m (0 = library default)")
	route := flag.String("route", "", "comma-separated worker base URLs: run as a router sharding requests by device fingerprint instead of serving analyses")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	slowMS := flag.Int("slow-ms", 10000, "log the span tree of requests slower than this many milliseconds (0 disables)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this SEPARATE address (e.g. 127.0.0.1:6060); empty disables")
	flag.Parse()

	var h slog.Handler
	switch *logFormat {
	case "text":
		h = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	default:
		slog.Error("gpuperfd: -log-format must be text or json", "got", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(h)
	slog.SetDefault(logger)
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if *pprofAddr != "" {
		go servePprof(logger, *pprofAddr)
	}

	tel := gpuperf.Telemetry{
		Logger:      logger,
		SlowRequest: time.Duration(*slowMS) * time.Millisecond,
	}

	// Serve exactly the named catalog entries: the fleet's catalog is
	// a subset of the defaults, so GET /v1/devices advertises only
	// what the operator chose to expose. In router mode the same
	// catalog drives the shard table — it must match the workers'.
	defaults := gpuperf.DefaultCatalog()
	served := gpuperf.NewDeviceCatalog()
	names := strings.Split(*devices, ",")
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
		dev, err := defaults.Resolve(names[i])
		if err != nil {
			fatal("gpuperfd: -devices", "err", err)
		}
		if err := served.Register(names[i], dev); err != nil {
			fatal("gpuperfd: -devices", "err", err)
		}
	}

	var handler http.Handler
	if *route != "" {
		workers := strings.Split(*route, ",")
		rt, err := gpuperf.NewRouter(gpuperf.RouterOptions{
			Workers:       workers,
			Catalog:       served,
			DefaultDevice: names[0],
			Telemetry:     tel,
		})
		if err != nil {
			fatal("gpuperfd: -route", "err", err)
		}
		defer rt.Close()
		handler = rt.Handler()
		logger.Info("gpuperfd: routing", "devices", names, "default", names[0], "workers", rt.Workers())
		for name, wk := range rt.Health().Shards {
			logger.Info("gpuperfd: shard", "device", name, "worker", wk)
		}
	} else {
		f := gpuperf.NewFleet(gpuperf.FleetOptions{
			Catalog:        served,
			DefaultDevice:  names[0],
			Parallelism:    *parallel,
			CalibrationDir: *calDir,
			CacheDir:       *cacheDir,
			CacheBytes:     *cacheMem,
			SubmissionDir:  *subsDir,
			SubmissionLimits: gpuperf.SubmissionLimits{
				MaxCount: *subsMax,
				MaxBytes: *subsMem,
				TTL:      *subsTTL,
			},
		})
		handler = gpuperf.NewObservedHandler(f, tel)
		logger.Info("gpuperfd: serving", "devices", names, "default", names[0], "kernels", f.Registry().Names())
		if *cacheDir != "" {
			logger.Info("gpuperfd: result cache", "dir", *cacheDir)
		}
		if *subsDir != "" {
			logger.Info("gpuperfd: submission store", "dir", *subsDir, "resident", len(f.Submissions()))
		}
		if *precalibrate {
			precalibrateAll(logger, fatal, f, names, *calDir)
		}
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Bound hostile/stalled connections. No WriteTimeout: a cold
		// first analyze legitimately takes tens of seconds while the
		// model calibrates.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("gpuperfd: listening", "addr", *addr)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal("gpuperfd: serve", "err", err)
	case <-stop:
		logger.Info("gpuperfd: shutting down")
		// Give in-flight analyses time to finish: a cold request can
		// legitimately run tens of seconds (calibration + simulation).
		ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				logger.Warn("gpuperfd: shutdown grace expired; aborting in-flight requests")
			} else {
				logger.Warn("gpuperfd: shutdown", "err", err)
			}
		}
	}
}

// servePprof mounts net/http/pprof on its own mux and listener, so
// profiling never rides the public service address and the service
// mux never inherits pprof's DefaultServeMux registrations.
func servePprof(logger *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("gpuperfd: pprof listening", "addr", addr)
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := srv.ListenAndServe(); err != nil {
		logger.Warn("gpuperfd: pprof listener", "err", err)
	}
}

// precalibrateAll calibrates every served device before the listener
// opens, so /healthz answers ready from the first probe.
func precalibrateAll(logger *slog.Logger, fatal func(string, ...any), f *gpuperf.Fleet, names []string, calDir string) {
	for _, n := range names {
		a, err := f.Session(n)
		if err != nil {
			fatal("gpuperfd: precalibrate", "err", err)
		}
		logger.Info("gpuperfd: calibrating", "device", n)
		if err := a.Calibrate(); err != nil {
			fatal("gpuperfd: calibration failed", "device", n, "err", err)
		}
		switch {
		case a.CalibrationFromCache():
			logger.Info("gpuperfd: calibration loaded", "device", n, "dir", calDir)
		case a.CalibrationSaveError() != nil:
			logger.Info("gpuperfd: calibration ready (cache not saved)", "device", n, "err", a.CalibrationSaveError())
		default:
			logger.Info("gpuperfd: calibration ready", "device", n)
		}
	}
}
