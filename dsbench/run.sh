#!/usr/bin/env bash
# Builds the dsdb benchmark from this checkout's sources and runs it with
# the given arguments (see dsbench/README.md). Build outputs, the Go build
# cache and the benchmark's scratch data all stay under .bench_build/ at
# the checkout root; the build is offline and uses only the standard
# library and this repository's own packages.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/dsbench" && go build -o "$out/dsbench" .) >&2
cd "$root"
exec "$out/dsbench" "$@"
