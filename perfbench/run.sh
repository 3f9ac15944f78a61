#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments:
#
#	bash perfbench/run.sh --workload ring8 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.  Every build product, the Go build
# cache included, stays under .bench_build/ in that directory, and the
# module proxy is switched off: the build uses only the repository's own
# sources (perfbench/go.mod points at the root module) and fails if they
# are not present.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly \
	GOWORK=off GOENV=off

cd "$root/perfbench"
go build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
