#!/usr/bin/env bash
# Builds the loasbench binary from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash loasbench/run.sh --workload synth-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, module cache, GOPATH and user
# config (where the go command keeps its telemetry counters), the binary,
# the run's temporary daemon ledger and the span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/loasbench" && go build -o "$out/bin/loasbench" .)

# setup_s starts here: the timestamp is taken just before the benchmark
# process replaces this shell, so it covers runtime and package init.
LOASBENCH_EXEC_NS=$(date +%s%N) exec "$out/bin/loasbench" "$@"
