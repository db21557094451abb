#!/usr/bin/env bash
# Builds the Kalis benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash _perfbench/run.sh --workload wsn-replay --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, the
# durable-state directories and the span files all stay under
# .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
bench="$root/_perfbench"
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$bench/go.mod" ]]; then
	echo "run.sh: run from the Kalis repository root (no go.mod found)" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# Keep the toolchain's caches and its telemetry counters (under the
# user config dir) inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$bench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
