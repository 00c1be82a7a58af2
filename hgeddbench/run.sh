#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; all arguments are
# passed through, e.g.
#   bash hgeddbench/run.sh --workload serve-explain --seed 1 --seconds 10 --trace 0
# Build outputs, the Go build cache and the determinism record stay under
# $CARGO_TARGET_DIR (default .bench_build in the checkout).
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root/hgeddbench" && go build -o "$out/hgeddbench" .) >&2
exec "$out/hgeddbench" -state "$out" "$@"
