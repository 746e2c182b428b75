#!/usr/bin/env sh
# CPU/allocation profiling for one engine-ledger case study,
# printed as top-N pprof tables ready to paste into EXPERIMENTS.md. This is
# the profile-first loop behind the perf work: run it, read where the time
# actually goes, and only then touch the engine.
#
#   scripts/profile.sh symbolic two-ring        # CPU+alloc, top 12
#   scripts/profile.sh symbolic coloring-11 20  # top 20 rows
#   scripts/profile.sh explicit two-ring
#
# The raw pprof files (one per matched case, first rep of each) and the
# ledger JSON are left in the temp directory printed at the end, for
# deeper digging with `go tool pprof`.
set -eu
cd "$(dirname "$0")/.."

engine="${1:?usage: profile.sh <engine> <case-substring> [top-n]}"
case="${2:?usage: profile.sh <engine> <case-substring> [top-n]}"
topn="${3:-12}"

dir=$(mktemp -d "${TMPDIR:-/tmp}/stsyn-profile.XXXXXX")

go build ./...
go run ./cmd/stsyn-bench -json -engine "$engine" -case "$case" \
    -cpuprofile "$dir" -memprofile "$dir" > "$dir/bench.json"

echo "## Profile: $engine / $case"

found=0
for p in "$dir"/*.cpu.pprof; do
    [ -e "$p" ] || continue
    found=1
    name=$(basename "$p" .cpu.pprof)
    for view in flat cum; do
        echo
        echo "### $name — CPU, top $topn by $view"
        echo '```'
        if [ "$view" = cum ]; then
            go tool pprof -top -cum -nodecount="$topn" "$p" 2>/dev/null
        else
            go tool pprof -top -nodecount="$topn" "$p" 2>/dev/null
        fi
        echo '```'
    done
done

for p in "$dir"/*.mem.pprof; do
    [ -e "$p" ] || continue
    name=$(basename "$p" .mem.pprof)
    echo
    echo "### $name — allocations, top $topn by alloc_space"
    echo '```'
    go tool pprof -top -sample_index=alloc_space -nodecount="$topn" "$p" 2>/dev/null
    echo '```'
done

if [ "$found" = 0 ]; then
    echo "profile.sh: no case matched \"$case\" for engine $engine" >&2
    exit 1
fi

echo
echo "profile.sh: raw profiles and bench JSON in $dir" >&2
