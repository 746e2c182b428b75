#!/usr/bin/env sh
# Repo-wide hygiene gate: formatting, vet, the full test suite under the
# race detector, the benchmark harness module, short fuzz smokes for the
# differential batteries, and a coverage floor on the BDD substrate. Run
# from the repository root.
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...

# Project invariants: the repo's own analyzers (goroutine join paths,
# lock/blocking separation, determinism of the synthesis core, context
# flow, dependency direction, panic-freedom of the serving tiers, metric
# naming, pinned pkg/ API surface). Gating: any
# finding fails the build; intentional violations carry //lint:ignore
# directives with reasons, and stale directives are themselves findings.
go run ./cmd/stsyn-vet ./...

go test -race -count=1 ./...

# The benchmark harness is a Go module of its own (perfbench/go.mod), so
# the root ./... pattern never compiles it. Vet and test it here, so an API
# change it depends on fails this gate rather than the next benchmark run.
(cd perfbench && go vet ./... && go test ./...)

# Fuzz smokes: a few seconds of coverage-guided exploration on the
# cross-checking fuzz targets, so regressions in the generators or the
# harnesses surface here rather than only in long fuzz sessions.
go test -run='^$' -fuzz='^FuzzCompilerVsEvaluation$' -fuzztime=5s ./internal/symbolic
go test -run='^$' -fuzz='^FuzzReorderEquivalence$' -fuzztime=5s ./internal/symbolic
go test -run='^$' -fuzz='^FuzzDifferentialEngines$' -fuzztime=5s ./internal/core
go test -run='^$' -fuzz='^FuzzRankSchemeEquivalence$' -fuzztime=5s ./internal/core
go test -run='^$' -fuzz='^FuzzKernelEquivalence$' -fuzztime=5s ./internal/explicit
go test -run='^$' -fuzz='^FuzzQuotientCoverage$' -fuzztime=5s ./internal/prune
go test -run='^$' -fuzz='^FuzzRenderEquivalence$' -fuzztime=5s ./internal/pretty

# Cluster smoke: a coordinator over two in-process workers, one dead from
# the start, with a journal that must replay idempotently. The full suite
# above already runs it; this names the distributed tier's end-to-end gate
# so a failure is unmistakable.
go test -race -count=1 -run='^TestClusterSmoke$' ./internal/dist

# Async smoke: the job API's lifecycle gates — submit/poll/cancel, the
# sync/async/batch byte-identity differential, and the concurrent job-store
# stress — under the race detector, named here for the same reason.
go test -race -count=1 \
    -run='^(TestSyncAsyncBatchAnswerByteIdentical|TestCancelWhileRunningYieldsTypedCanceled|TestAsyncConcurrentLifecycleStress)$' \
    ./internal/service

# Front-end parity: the stsyn CLI must answer exactly as the service does
# for the same job, a fan-out job must answer the same on every run (the
# cache stores whichever run came first), and the dist coordinator must
# reject options the workers would reject before it shards, so drift
# between the front ends fails a named step.
go test -race -count=1 -run='^(TestCLIMatchesService|TestCoordinatorRejectsBadOptions|TestFanoutResponseReproducible)$' ./cmd/stsyn ./internal/dist ./internal/service

# Explicit kernels: the word-list cycle-core trim against the per-group
# trim, the word kernels against the per-state oracle, sparse groups
# answered without a cached bitset, and synthesis re-verified on the
# oracle, under the race detector, named here so a kernel regression is
# unmistakable.
go test -race -count=1 -run '^(TestTrimCoreMatchesPerGroupTrim|TestKernelEquivalenceBuiltins|TestSparseGroupSourcesStayImplicit|TestProtocolsVerifyOnReferenceEngine)$' ./internal/explicit

# Group setup: group keys keep their byte format and both engines cache
# them; the explicit engine's odometer invariant scan against per-index
# decoding; its word-level source fill against decoding and against the
# per-state oracle (mixed-delta is the built-in whose dense groups shift
# within and across words; the two-ring case already runs in the explicit
# kernels step). Under the race detector, named here so a setup regression
# is unmistakable.
go test -race -count=1 -run '^(TestGroupKeyFormat|TestGroupKeysCached|TestInvariantMatchesDirectEvaluation|TestGroupSourcesMatchDecode|TestKernelEquivalenceBuiltins|TestKernelEquivalenceRandom)$/^mixed-delta$' ./internal/protocols ./internal/explicit ./internal/symbolic

# Rendering: the guarded-command renderer against the pre-counting
# reference renderer (built-ins, specgen subsets, exact relation sets and
# their one-off neighbours), and the CLI's text mode against stsyn.Render,
# under the race detector, named here so an output drift is unmistakable.
# The FuzzRenderEquivalence smoke runs with the fuzz smokes above.
go test -race -count=1 -run '^(TestRenderMatchesReference|TestCLITextMatchesRender)$' ./internal/pretty ./cmd/stsyn

# Coverage floors. coverage_floor PKG FLOOR [go test flags...] prints the
# package's statement coverage and fails when it is below FLOOR. The parse
# must yield exactly one numeric value: multi-line or non-numeric output
# means the coverage format changed, and silently comparing garbage
# against the floor would turn the gate into a no-op.
coverage_floor() {
    pkg=$1 floor=$2
    shift 2
    cov=$(go test "$@" -cover "./$pkg" | awk '{for (i=1;i<=NF;i++) if ($i ~ /^coverage:/) {sub(/%$/,"",$(i+1)); print $(i+1)}}')
    if [ "$(printf '%s\n' "$cov" | grep -c .)" -ne 1 ] || ! printf '%s\n' "$cov" | grep -Eq '^[0-9]+(\.[0-9]+)?$'; then
        echo "check.sh: could not parse $pkg coverage (got: '$cov')" >&2
        exit 1
    fi
    if ! awk -v c="$cov" -v f="$floor" 'BEGIN { exit !(c >= f) }'; then
        echo "check.sh: $pkg coverage ${cov}% is below the ${floor}% floor" >&2
        exit 1
    fi
    echo "$cov"
}

# The BDD manager: the node-store and cache paths must stay exercised by
# the property tests.
bddcov=$(coverage_floor internal/bdd 85)

# The analyzer suite itself: stsyn-vet gates every other package, so its
# own CFG and analyzer paths must stay exercised by the fixture battery.
# (-short skips the whole-module dogfood test; the fixtures alone must
# carry the floor.)
lintcov=$(coverage_floor internal/lint 80 -short)

# The published client: its request loop (retry rule, backoff, rotation,
# Retry-After, headers) must stay exercised by its own tests.
clientcov=$(coverage_floor pkg/client 80)

echo "check.sh: all clean (internal/bdd coverage ${bddcov}%, internal/lint coverage ${lintcov}%, pkg/client coverage ${clientcov}%)"
