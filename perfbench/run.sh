#!/usr/bin/env bash
# Builds the benchmark harness from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload cli-sweep --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary,
# span traces) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOWORK=off
export GOPROXY=off

# The commit goes into each run's provenance; a checkout without version
# control records "unknown".
BENCH_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)
export BENCH_COMMIT

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
