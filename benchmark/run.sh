#!/usr/bin/env bash
# Builds the benchmark from the repository source and runs it. Everything the
# build writes stays in .bench_build at the root of the checkout (the Go build
# cache, and the toolchain's own config and telemetry directory), so a run
# reads and writes nothing outside the checkout.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$dir")/.bench_build"
mkdir -p "$build"
(cd "$dir" && GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false go build -o "$build/wormbench" .)
exec "$build/wormbench" "$@"
