#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind (Go build cache, binary,
# weight cache, traces, per-layer tables) goes under .bench_build/ in the
# checkout root. The last line of standard output is the result JSON.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" \
  XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" --root "$root" "$@"
