#!/usr/bin/env bash
# Builds the CPU-time benchmark from this checkout's sources and runs it.
#
#   bash cpubench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout: the Go build cache, the binary, the result-cache
# directories of cache-rerun and the traced run's span files.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	XDG_CACHE_HOME="$out/home/.cache" GOTOOLCHAIN=local GOENV=off GOWORK=off
go build -C "$here" -o "$out/bin/cpubench" .
cd "$root"
exec "$out/bin/cpubench" "$@"
