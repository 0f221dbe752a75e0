#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it
# with the given arguments, for example
#
#   bash bench/run.sh --workload byz-exact-2k --seed 2010 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, go command config, scratch
# files, the binary) stays under .bench_build/ at the checkout root. The build needs the
# collabscore module at the checkout root, so without it this script fails
# before printing any result.
set -euo pipefail

bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

# The go command also keeps its env file and telemetry counters under the
# user config directory.
export XDG_CONFIG_HOME="$build/config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd "$bench_dir" && go build -o "$build/collabscore-bench" .)
exec "$build/collabscore-bench" -trace-file "$bench_dir/out/trace.json" "$@"
