#!/usr/bin/env bash
# Builds the request-level benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload predict|validate|hot --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, the binary, span traces) stays under .bench_build/,
# or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/perfbench"

export GOCACHE=$out/gocache
export GOMODCACHE=$out/gomodcache
export GOTMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME"

if ! (cd perfbench && go build -o "$out/perfbench/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$out/perfbench/perfbench" --out "$out/perfbench" "$@"
