// Package gpuperf is a reproduction of "A Quantitative Performance
// Analysis Model for GPU Architectures" (Zhang & Owens, HPCA 2011)
// as a pure-Go library, fronted by a stable public API.
//
// The root package is the one supported way to use the system. Its
// pieces mirror the paper's Fig. 1 workflow:
//
//   - A Registry names the built-in case-study kernels (dense
//     matmul, cyclic reduction, SpMV) and builds deterministic
//     problem instances from (size, seed) parameters.
//   - A DeviceCatalog names immutable device profiles — the stock
//     GTX 285, its cluster slices, the paper's §5 study variants —
//     each with a canonical hardware fingerprint that keys the
//     on-disk calibration cache.
//   - A Fleet is the front door for every request: it routes each
//     one to a per-device Analyzer session (a Device configuration
//     and its lazily-built, cached calibration) behind a shared
//     admission limit, calibration cache directory and result cache.
//     Fleet.Analyze runs the functional simulation (sharded across
//     workers, abortable via context), applies the three-component
//     model, and returns a fully JSON-serializable Result with the
//     bottleneck verdict, causes, per-stage breakdown and
//     dynamic-statistics summary; Advise, Measure and AnalyzeBatch
//     share the same path, and Compare ranks one kernel across a
//     device set (the architect question, answered in one call).
//   - NewHandler exposes a fleet over HTTP (cmd/gpuperfd):
//     POST /v1/analyze, /v1/advise, /v1/measure, /v1/compare,
//     GET /v1/kernels, /v1/devices, /healthz.
//   - RunExperiments and MicrobenchCurves regenerate the paper's
//     evaluation tables and microbenchmark figures; AssembleText,
//     DisassembleContainer, RewriteKernel and Microbenchmark are the
//     binary-toolchain front door.
//
// The paper's machinery — native-ISA kernels, the barra functional
// simulator, microbenchmark-calibrated throughput curves, the
// performance model — lives under internal/ (one package per
// subsystem; see DESIGN.md) and is free to churn behind this facade.
// Executables are in cmd/, runnable case studies in examples/, and
// the benchmark harness regenerating every paper table and figure in
// bench_test.go next to this file.
package gpuperf
