#!/usr/bin/env bash
# Builds the benchmark from source (once per checkout; later calls find it
# up to date) and runs it with the given arguments. Everything the build
# writes — Go's build cache included — stays under .bench_build/ at the
# root of the checkout, and everything a run writes under bench/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local

go build -C "$here" -o "$build/passjoin-bench" .
exec "$build/passjoin-bench" -out "$here/out" "$@"
