#!/usr/bin/env bash
# Builds the benchmark and firstaid-serve from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload apache-batch-clean \
#       --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds, caches and writes
# stays under .bench_build (or $CARGO_TARGET_DIR when set) in that root.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/firstaid-serve" firstaid/cmd/firstaid-serve
cd "$root"
# A traced run leaves its spans in $out/spans.tsv.
exec "$out/perfbench" -server "$out/firstaid-serve" -spans "$out/spans.tsv" "$@"
