#!/usr/bin/env bash
# Builds the dK workflow benchmark from the checkout it runs in and runs
# it with the given arguments, e.g.
#
#   bash dkperf/run.sh --workload skitter_d2 --seed 1 --seconds 24 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# report, trace and timeline files all go under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$(dirname "$0")" && go build -buildvcs=false -o "$out/bin/dkperf" .)
exec "$out/bin/dkperf" -out "$out/dkperf" "$@"
