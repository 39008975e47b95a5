#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the root of the
# checkout and runs it there with the arguments given. Nothing outside
# the checkout is read or written: the Go build cache, GOPATH and the
# toolchain's own state all live under .bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home"
(
	cd "$here"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=readonly \
		GOTOOLCHAIN=local GOTELEMETRY=off \
		go build -o "$build/ustbench" .
)
cd "$root"
exec "$build/ustbench" "$@"
