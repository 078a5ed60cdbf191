#!/usr/bin/env bash
# bench.sh — run the engine and device-simulator benchmark suite and
# write it as JSON to $OUT (default .bench_build/bench.json, which git
# ignores).
#
# Runs BenchmarkRunParallel (end-to-end blocks/s, plus the replay
# engine's exact replayed/op and simulated/op block counts and its
# batched/op count of batched warp steps; its sub-benchmarks cover
# every leg of the matrix: kernel ∈ {matmul16, spmv-ell} ×
# mode ∈ {replay, noreplay} × P ∈ {1, NumCPU}) plus the per-layer
# microbenchmarks (warp step, bank conflicts, coalescing), matmul's
# float64 verification reference (BenchmarkMulRef), the timing
# simulator (BenchmarkDeviceRun: winstr/s per golden kernel, plus the
# event queue's deterministic pops/winstr and buckets/winstr), the §4.3
# global-bandwidth run (BenchmarkGlobalBandwidth), a cold
# calibration (BenchmarkCalibrate) and the result cache's hits through
# the HTTP layer (BenchmarkCacheHit: analyze and advise HITs, a 304
# revalidation and a routed compare HIT, at the default benchtime
# because one hit takes microseconds) with -benchmem, and converts the
# results to a JSON array of
# {name, ns_per_op, ..., B_per_op, allocs_per_op} records, one field
# per reported metric (replayed/op becomes replayed_per_op), so CI and
# future PRs can diff throughput, exact counters and allocation counts.
#
# The replay/noreplay pairs measure the homogeneous-block replay
# engine against forced live simulation on the same inputs; the
# p1/pN pairs measure worker-sharding scaling.
#
# Usage:
#   scripts/bench.sh               # full run (benchtime 2x for the big bench)
#   BENCHTIME=1x scripts/bench.sh  # CI smoke run
#   OUT=BENCH_N.json scripts/bench.sh   # a baseline to commit
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-2x}"
OUT="${OUT:-.bench_build/bench.json}"
mkdir -p "$(dirname "$OUT")"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

NPROC="$(nproc 2>/dev/null || echo 1)"
if [ "${NPROC}" -le 1 ]; then
  echo "==================================================================" >&2
  echo "WARNING: this host exposes only 1 CPU. The P=NumCPU legs collapse" >&2
  echo "into duplicates of the P=1 legs (Go suffixes them #01), so the"    >&2
  echo "numbers below say NOTHING about parallel scaling. Re-run on a"     >&2
  echo "multi-core host before drawing scaling conclusions."               >&2
  echo "==================================================================" >&2
fi

{
  go test -run - -bench BenchmarkRunParallel -benchtime "$BENCHTIME" -benchmem .
  go test -run - -bench BenchmarkWarpStep -benchmem ./internal/barra/
  go test -run - -bench BenchmarkBankTransactions -benchmem ./internal/bank/
  go test -run - -bench BenchmarkCoalesceHalfWarp -benchmem ./internal/coalesce/
  go test -run - -bench BenchmarkMulRef -benchmem ./internal/kernels/
  go test -run - -bench BenchmarkDeviceRun -benchtime "$BENCHTIME" -benchmem ./internal/device/
  go test -run - -bench 'BenchmarkCalibrate|BenchmarkGlobalBandwidth' -benchtime "$BENCHTIME" -benchmem ./internal/timing/
  go test -run - -bench BenchmarkCacheHit -benchmem .
} | tee "$TMP"

awk '
  /^Benchmark/ {
    printf "%s  {\"name\":\"%s\",\"iterations\":%s", sep, $1, $2
    sep = ",\n"
    for (i = 3; i + 1 <= NF; i += 2) {
      unit = $(i + 1)
      gsub(/\//, "_per_", unit)
      gsub(/[^A-Za-z0-9_]/, "_", unit)
      printf ",\"%s\":%s", unit, $i
    }
    printf "}"
  }
  BEGIN { print "[" }
  END   { print "\n]" }
' "$TMP" > "$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks)"
