#!/usr/bin/env bash
# Builds the worksim benchmark from source and runs it. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload sweep-wide --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under ./.bench_build: the Go build
# cache, the binary, scratch state and trace output. The first run also
# builds the standard library into that cache; later runs reuse it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"
