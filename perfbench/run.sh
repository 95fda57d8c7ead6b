#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments:
#
#   bash perfbench/run.sh --workload offline-sparse --seed 1 --seconds 20 --trace 0
#
# Build outputs, including the Go build cache, stay under .bench_build
# at the checkout root. Without the parent module next to perfbench/
# the build fails, and the script exits non-zero without printing a
# result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
# The module has no dependencies outside this repository, so nothing may
# be downloaded: not a toolchain, not a module. The go command's
# configuration and local telemetry live under XDG_CONFIG_HOME, which
# is pointed into the build directory for the build alone.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
XDG_CONFIG_HOME="$out/config" go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
