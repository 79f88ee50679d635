#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json "command"): build the
# harness from source and run it, keeping every file the build writes — Go's
# build cache, its scratch space, the binary — inside the checkout, under
# .bench_build/. Developers can skip this and use `go run ./bench`.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

# The harness imports the simulator's packages: without the module around it
# there is nothing to measure.
if [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: $root holds no go.mod: run from a checkout of the repository" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
