#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload partition-busy --seed 1 --seconds 25 --trace 0
#
# Every build product and cache stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark: run from the root of a ugpu checkout (no simulator sources here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/gopath" HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/benchmark" && go build -buildvcs=false -o "$build/ugpu-benchmark" .)
BENCH_COMMIT="$commit" exec "$build/ugpu-benchmark" --root "$root" "$@"
