#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# (binary and Go build cache both stay inside the checkout) and runs it from
# there with the given arguments. BENCHMARK.json names this script as the
# benchmark command.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
go build -C "$root/benchmark" -o "$build/remicss-benchmark" .
cd "$root"
exec "$build/remicss-benchmark" "$@"
