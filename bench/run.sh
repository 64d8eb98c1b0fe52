#!/usr/bin/env bash
# The driver's entry point: build bench/ from source, then run it from the
# root of the checkout. Everything written — the binary, Go's build cache and
# temporary files, the benchmark's own outputs — stays under .bench_build/
# in that root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/hydrabench" .)
cd "$root"
exec "$build/hydrabench" "$@"
