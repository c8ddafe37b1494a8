#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root and
# runs it. Everything the Go toolchain writes (build cache, module cache,
# config) is pointed inside .bench_build/, so a run touches nothing outside
# the checkout. Arguments are passed through to the binary.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
(
	cd "$root/bench"
	env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/modissense-bench" .
) >&2
cd "$root"
exec "$build/modissense-bench" -out "$root/bench/out" "$@"
