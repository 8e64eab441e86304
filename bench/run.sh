#!/usr/bin/env bash
# The benchmark command of BENCHMARK.json. Run it from the checkout root:
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# It builds the rig (bench/ is a module of its own) and hands it the
# arguments; the rig builds spitfire-serve itself when a workload needs it.
# Everything the Go toolchain writes — build cache, temporary files, its
# configuration — is kept under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f $root/BENCHMARK.json || ! -f $root/go.mod || ! -f $root/bench/go.mod ]]; then
	echo "bench/run.sh: run from the root of a checkout (no BENCHMARK.json, go.mod and bench/go.mod here)" >&2
	exit 2
fi

build=$root/.bench_build
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomod
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
