#!/bin/sh
# run.sh — BENCHMARK.json's command. Builds the benchmark from the checkout's
# source and runs it with the arguments given:
#
#	sh benchmark/run.sh --workload serve-hit --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build and module caches, the benchmark and appfitd
# binaries, the span files. The first run in a checkout compiles the
# standard library into the empty cache (about a minute on two cores); later
# runs find everything up to date. The benchmark binary is exec'd, so it is
# this script's process and gets the caller's signals.
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
