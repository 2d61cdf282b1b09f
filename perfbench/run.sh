#!/usr/bin/env bash
# Builds the recurring-query benchmark from source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload agg-incremental --seed 42 --seconds 10 --trace 0
#
# Run from the repository root. Every build artefact, the Go build cache
# and the span files of traced runs stay under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOMAXPROCS=2

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
