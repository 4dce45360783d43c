#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from source into
# .bench_build/ at the repository root and runs it there, so that everything
# it writes (Go's build cache, the binary, temporary files) stays inside the
# checkout. Arguments go to the benchmark unchanged.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps telemetry counters under the user's configuration directory.
export XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -spec "$root/BENCHMARK.json" "$@"
