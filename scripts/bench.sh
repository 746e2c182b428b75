#!/usr/bin/env sh
# Regenerates the committed engine ledgers (BENCH_explicit.json,
# BENCH_symbolic.json: per case the default engine's fastest of three runs,
# their spread, the host and the protocol digest) and runs the Go
# micro-benchmarks for the explicit delta-shift Pre and GroupDstInto
# kernels (against the per-state oracle), the trimmed Tarjan SCC search,
# the labelled cycle attribution and the guarded-command renderer. Run from
# the repository root.
#
#   scripts/bench.sh            # full ledgers + micro-benchmarks
#   scripts/bench.sh -quick     # CI smoke: both JSON docs on stdout, one
#                               # iteration of each micro-benchmark on stderr
#   scripts/bench.sh -check     # full fresh run compared against the
#                               # committed ledgers; non-zero exit on
#                               # regression (slowdown beyond tolerance,
#                               # failing or unverified case, digest drift,
#                               # committed case missing)
set -eu
cd "$(dirname "$0")/.."

mode="${1:-}"

# The micro-benchmarks: in the explicit engine, kernel vs per-state oracle
# Pre and GroupDstInto, trimmed Tarjan SCC, labelled vs pairwise cycle
# attribution, schedule search, engine set-up and the source fill (Post has
# no kernel of its own, it is the per-state scan on both sides, so it has
# no benchmark pair); in the renderer, guarded-command rendering of
# synthesized protocols.
microbench='BenchmarkPre|BenchmarkGroupDstInto|BenchmarkCyclicSCCs|BenchmarkSCCGroups|BenchmarkScheduleSearch|BenchmarkNewEngine|BenchmarkSourcesFill|BenchmarkRender'
micropkgs='./internal/explicit ./internal/pretty'

go build ./...

if [ "$mode" = "-quick" ]; then
    # Quick mode prints only the JSON documents on stdout (CI captures it)
    # and the one-iteration micro-benchmark run on stderr. When
    # BENCH_PROFILE_DIR is set, per-case pprof files land there too — CI
    # uploads them so a slow-looking smoke run arrives with its own
    # profiles attached.
    profflags=""
    if [ -n "${BENCH_PROFILE_DIR:-}" ]; then
        mkdir -p "$BENCH_PROFILE_DIR"
        profflags="-cpuprofile $BENCH_PROFILE_DIR -memprofile $BENCH_PROFILE_DIR"
    fi
    # shellcheck disable=SC2086
    go run ./cmd/stsyn-bench -json -quick $profflags
    # shellcheck disable=SC2086
    go run ./cmd/stsyn-bench -json -engine symbolic -quick $profflags
    # shellcheck disable=SC2086
    go test -run='^$' -bench="$microbench" -benchtime=1x -benchmem $micropkgs >&2
    exit 0
fi

if [ "$mode" = "-check" ]; then
    # Regression guard: fresh full runs vs the committed baselines. The
    # tolerance is deliberately loose (3x) — wall-clock on shared runners
    # is noisy; this catches order-of-magnitude regressions and any
    # correctness drift (failing or unverified cases, digest drift), not
    # jitter. The symbolic two-ring reps run close to a minute each, where
    # scheduler drift compounds in absolute terms, so that one case gets a
    # looser per-case override. Allocation growth past 2x the committed
    # totals is reported as non-gating warnings on stderr.
    go run ./cmd/stsyn-bench -json -check BENCH_explicit.json > /dev/null
    go run ./cmd/stsyn-bench -json -engine symbolic -check BENCH_symbolic.json \
        -case-tolerance 'two-ring=4' > /dev/null
    echo "bench.sh: no regressions against the committed baselines" >&2
    exit 0
fi

go run ./cmd/stsyn-bench -json | tee BENCH_explicit.json.tmp
mv BENCH_explicit.json.tmp BENCH_explicit.json
echo "wrote BENCH_explicit.json" >&2

go run ./cmd/stsyn-bench -json -engine symbolic | tee BENCH_symbolic.json.tmp
mv BENCH_symbolic.json.tmp BENCH_symbolic.json
echo "wrote BENCH_symbolic.json" >&2

# shellcheck disable=SC2086
go test -run='^$' -bench="$microbench" -benchmem $micropkgs
