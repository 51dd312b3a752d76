#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash fairbench/run.sh --workload paper-cold --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the benchmark's scratch files all stay under .bench_build/.
set -euo pipefail

if ! grep -qs '^module repro$' go.mod; then
	echo "fairbench: run from the root of the repro module (no go.mod here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" HOME="$build/home" XDG_CONFIG_HOME="$build/home" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

go build -o "$build/fairbench" ./fairbench
exec "$build/fairbench" --workdir "$build/work" "$@"
