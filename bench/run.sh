#!/usr/bin/env bash
# Builds the benchmark (module lsmssd/bench, which imports the engine from
# the parent directory) and runs it with the arguments given. Everything
# it writes stays inside the checkout: the Go build cache, the binary and
# the store files under .bench_build/, trace files under bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/lsmssd-bench" .) >&2
exec "$build/lsmssd-bench" -workdir "$build/tmp" -outdir "$here/out" -spec "$root/BENCHMARK.json" "$@"
