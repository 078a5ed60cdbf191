// Command perfbench is gpuperf's request-level benchmark. It drives
// one workload (predict, validate or hot) closed-loop against the
// public front doors for a fixed time and prints the end-to-end
// metrics, or, with --trace 1, runs the workload's traced pass and
// prints the per-layer metrics. See README.md for the workloads, the
// metrics and the layer each one measures.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload predict --seed 1 --seconds 15 --trace 0
//
// Standard output carries a run record line, an output-digest line and,
// last, the result line; logs go to standard error.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"gpuperf"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// RunRecord identifies what a result was measured on.
type RunRecord struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Clients    int    `json:"clients"`
	Setups     int    `json:"setups"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from ("unknown"
	// outside a git checkout); SourceSHA256 hashes the Go sources and
	// go.mod files under the working directory, which identifies the
	// code either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func run(args []string, stdout, stderr io.Writer) int {
	log := slog.New(slog.NewTextHandler(stderr, nil))
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "predict", "workload: predict, validate or hot")
	seed := fl.Int64("seed", 1, "workload seed; the same seed gives the same requests and inputs")
	seconds := fl.Int("seconds", 15, "length of the timed region in seconds")
	trace := fl.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	clients := fl.Int("clients", runtime.NumCPU(), "closed-loop clients (at most nproc)")
	out := fl.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span traces")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	nproc := runtime.NumCPU()
	switch {
	case *clients < 1 || *clients > nproc:
		log.Error("client count must be between 1 and nproc", "clients", *clients, "nproc", nproc)
		return 2
	case *seconds < 1 || (*trace != 0 && *trace != 1):
		log.Error("bad flags", "seconds", *seconds, "trace", *trace)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Error("creating output directory", "err", err)
		return 1
	}
	verifiable, err := Verifiable(gpuperf.DefaultRegistry())
	if err != nil {
		log.Error("probing kernels", "err", err)
		return 1
	}
	cfg := &Config{
		Workload:   *workload,
		Seed:       *seed,
		Seconds:    time.Duration(*seconds) * time.Second,
		Clients:    *clients,
		Out:        *out,
		Verifiable: verifiable,
	}
	rec := RunRecord{
		Workload: *workload, Seed: *seed, Trace: *trace == 1, Seconds: *seconds,
		NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: *clients, Setups: timedSetups,
		GoVersion: runtime.Version(), Commit: commit(), SourceSHA256: sourceDigest("."),
	}

	ctx := context.Background()
	var outcome Outcome
	var digest *Digest
	if *trace == 1 {
		outcome, digest, err = Traced(ctx, cfg, log)
	} else {
		outcome, digest, err = Timed(ctx, cfg, log)
	}
	if err != nil {
		log.Error("run failed", "workload", *workload, "err", err)
		return 1
	}
	sum, complete := digest.Sum()
	lines := []any{
		map[string]any{"run": rec},
		map[string]any{"digest": map[string]any{
			"workload": *workload, "seed": *seed, "requests": len(digest.slots), "complete": complete, "sha256": sum,
		}},
		outcome,
	}
	for _, l := range lines {
		b, err := json.Marshal(l)
		if err != nil {
			log.Error("encoding output", "err", err)
			return 1
		}
		if _, err := stdout.Write(append(b, '\n')); err != nil {
			return 1
		}
	}
	return 0
}

// timedWindows is how many equal windows the timed region is cut into.
// Throughput and CPU per request are means over the windows without
// the best and the worst, so neither the first window (the heap still
// growing) nor one burst of load from outside the process sets them.
const timedWindows = 5

// timedSetups is how many times a timed run sets its workload up cold;
// setup_s is the median.
const timedSetups = 3

// Timed sets the workload up cold timedSetups times (keeping the last
// system), then drives it closed-loop for cfg.Seconds.
func Timed(ctx context.Context, cfg *Config, log *slog.Logger) (Outcome, *Digest, error) {
	var setups []float64
	var sys System
	for k := 0; k < timedSetups; k++ {
		if sys != nil {
			sys.Close()
			runtime.GC()
		}
		start := time.Now()
		s, err := Setup(ctx, cfg, nil)
		if err != nil {
			return Outcome{}, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		sys = s
	}
	defer sys.Close()
	log.Info("set up", "workload", cfg.Workload, "setup_s", setups)

	res := ClosedLoop(ctx, cfg.Clients, sys.Limit(), cfg.Seconds, cfg.Deadline(), timedWindows, sys.Do)
	if len(res.Samples) == sys.Limit() && res.Wall < cfg.Seconds {
		log.Warn("request list exhausted before the timed region ended", "requests", len(res.Samples), "wall", res.Wall)
	}
	if err := res.FirstError(); err != nil {
		log.Error("request failed", "failed", res.Failed(), "first", err)
	}
	rss, err := PeakRSSMiB()
	if err != nil {
		return Outcome{}, nil, err
	}
	failed := res.Failed()
	rps, cpr := res.WindowRates()
	values := map[string]float64{
		"setup_s":        Median(setups),
		"throughput_rps": TrimmedMean(rps),
		"latency_p50_s":  res.Percentile(0.50),
		"latency_p90_s":  res.Percentile(0.90),
		"cpu_per_req_s":  TrimmedMean(cpr),
		"peak_rss_mb":    rss,
	}
	log.Info("timed region", "requests", len(res.Samples), "failed", failed, "wall_s", res.Wall.Seconds(),
		"window_rps", rps, "window_cpu_per_req", cpr)
	_, complete := sys.Digest().Sum()
	return NewOutcome(EndToEnd, values, len(res.Samples), failed, failed == 0 && complete), sys.Digest(), nil
}

// commit returns the VCS revision recorded in the binary, if any.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go and go.mod file under root (skipping
// hidden directories and testdata) in path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
