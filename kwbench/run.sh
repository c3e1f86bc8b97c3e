#!/usr/bin/env bash
# Builds the kwagg benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash kwbench/run.sh --workload paper-cold --seed 1 --seconds 12 --trace 0
#
# Every build product, the Go build cache and the trace files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout. The build
# needs the kwagg module one directory up; without it the build fails and the
# script exits non-zero before printing anything.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/kwbench" && go build -buildvcs=false -o "$build/kwbench" .)
exec "$build/kwbench" -trace-dir "$build/traces" "$@"
