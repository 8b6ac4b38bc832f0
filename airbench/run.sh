#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash airbench/run.sh --workload sim-soak --seed 1 --seconds 10 --trace 0
#
# Run it from anywhere inside the checkout. The Go build cache, temporary
# files and the scratch directories of the run all live under .bench_build
# at the checkout root, so nothing is read or written outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local

(cd "$root/airbench" && go build -o "$build/airbench" .) >&2
exec "$build/airbench" --root "$root" "$@"
