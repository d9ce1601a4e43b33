#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it.
# Run from the repository root:
#   bash perfbench/run.sh --workload dense-1rank --seed 1 --seconds 25 --trace 0
# Build outputs, the Go build cache and the run's scratch files stay
# under .bench_build (or $CARGO_TARGET_DIR when set) in that checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOENV=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -scratch "$build/scratch" "$@"
