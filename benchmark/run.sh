#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything it writes goes under .bench_build at the root of the checkout:
# the Go build cache, temporary and configuration files of the go command,
# the binary, store files and span files.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/lix-benchmark" .)
cd "$root"
exec "$build/lix-benchmark" -scratch "$build" "$@"
