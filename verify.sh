#!/bin/sh
# verify.sh — repo-wide quality gate: formatting, vet, build, race-enabled
# tests. Run before every commit; exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== gia-vet (determinism lint: sim, chaos, experiment, serve) =="
# The custom linter forbids time.Now, the global math/rand source and
# map-iteration-ordered output in the deterministic packages. In
# internal/serve every wall-clock read must carry a //gia:wallclock
# justification so nothing unguarded leaks into telemetry output.
go run ./cmd/gia-vet

echo "== go build ./... =="
go build ./...

echo "== go test -race -count=2 ./... =="
# -count=2 defeats the test cache and catches order- or state-dependent
# flakes in the race-enabled suite (golden traces, the defense matrix and
# the chaos sweeps must be bit-identical run over run).
go test -race -count=2 ./...

echo "== perfbench module (vet + tests) =="
# perfbench is a separate Go module built against this checkout's internal
# packages, so the root ./... gates never compile it: an internal API
# change could break the benchmark without failing anything above.
(cd perfbench && go vet ./... && go test -count=1 ./...)

echo "== bench smoke (worker-pool engine under race, 1 iteration) =="
# One race-enabled iteration of the parallel experiment engine: AllTables
# and the fleet study fan out on the shared pool, so this catches data
# races the serial unit tests cannot reach.
go test -race -run '^$' -bench '^(BenchmarkAllTables|BenchmarkFleetStudy)' -benchtime=1x .

echo "== alloc budgets (non-race) =="
# The race-enabled suite skips the per-instruction allocation budgets
# (instrumentation changes allocation counts); pin them here without race.
# The obs gate proves disabled observability hooks cost zero allocations,
# which is what keeps the analysis budgets intact with hooks compiled in.
go test -run 'AllocBudget' -count=1 ./internal/analysis
go test -run '^TestDisabledHooksZeroAlloc$' -count=1 ./internal/obs
# Flight-recorder rings must append without allocating: the recorder is
# always on in gia-serve, so any per-event allocation is a fleet-wide tax.
go test -run '^TestRingAppendZeroAlloc$' -count=1 ./internal/obs
# The simulator hot path (schedule+dispatch through the pooled timer
# wheel) must stay allocation-free, and one full AIT schedule on a warm
# arena device must stay within its pinned object budget.
go test -run '^TestSchedulerAllocBudget$' -count=1 ./internal/sim
go test -run '^TestAITAllocBudget$' -count=1 ./internal/experiment

echo "== arena reset equivalence (race-enabled) =="
# A pooled device reset in place must be indistinguishable from a fresh
# boot: byte-identical state fingerprints across every GIA x defense cell
# and fault plan, plus the restored seeded RNG stream.
go test -race -count=1 \
    -run '^(TestArenaResetEquivalence|TestDeviceResetRestoresRNGStream)$' \
    ./internal/devicetest
go test -race -count=1 -run '^TestFastSourceMatchesMathRand$' ./internal/sim

echo "== serve shard ownership (race-enabled) =="
# The fleet daemon multiplexes racy HTTP goroutines onto goroutine-owned
# arena shards; this pins the ownership discipline under the race
# detector explicitly (the simulation substrates are not thread-safe, so
# any fleet code touching device state off its shard goroutine is a
# detected race, not a flake).
go test -race -count=1 \
    -run '^(TestShardOwnershipSerializesConcurrentOps|TestConcurrentLifecycleAcrossShards)$' \
    ./internal/serve

echo "== trace/metrics parity across worker counts =="
# A virtual-only trace, its JSONL export and the metrics snapshot must be
# byte-identical at 1 worker and at NumCPU workers.
go test -count=1 -run '^TestTraceParityAcrossWorkers$' ./internal/chaos
# Flight-recorder determinism: the violation dumps (Chrome trace + JSONL,
# keyed by replay token) for the golden TOCTOU fault workload must be
# byte-identical at 1 worker and at NumCPU workers.
go test -count=1 -run '^TestFlightDumpParityAcrossWorkers$' ./internal/experiment

echo "== POR soundness + parallel-frontier determinism (race-enabled) =="
# Partial-order reduction may only prune orderings an explored ordering
# already decides: reduced vs exhaustive exploration must agree on the
# violation set and minimized tokens, on synthetic commuting worlds and on
# the golden wait-and-see AIT workload. The shared frontier must report an
# identical Result at 1 worker and NumCPU workers, whichever worker runs
# which schedule, and hold the MaxSchedules cap exactly while workers race
# to claim queued schedules.
go test -race -count=1 \
    -run '^(TestExploreOrdersPORSoundness|TestFrontierStealDeterministicResult|TestMaxSchedulesTruncatesUnderStealing)$' \
    ./internal/chaos
go test -count=1 -run '^TestPORSoundnessGoldenWorkload$' ./internal/experiment

echo "== analysis-cache parity =="
# Cached and uncached scans must be byte-identical: full-output diff at 1
# and NumCPU workers, plus the rendered -cache=on vs -cache=off tables.
go test -count=1 -run '^(TestCachedMatchesUncached|TestCacheTableParity)$' \
    ./internal/measure ./internal/experiment

echo "== summary-cache parity (interprocedural summaries) =="
# The per-class taint summaries are memoized content-addressed; findings
# and threat scores through the caching engine must equal a plain one's.
go test -count=1 -run '^TestSummaryCacheParity$' ./internal/analysis

echo "== taint truth-set accuracy (100% required) =="
# Every hand-labelled TP/TN case for the taint and anti-repackaging
# detectors must classify correctly — accuracy below 100% fails the gate.
go test -count=1 -run '^(TestTruthSetAccuracy|TestTruthSetCoversBothPolarities)$' \
    ./internal/measure

echo "== cache smoke under race (warm corpus scan, NumCPU workers) =="
# Two race-enabled warm scans through the shared cache: concurrent hits,
# singleflight dedups and LRU movement all run under the race detector.
go test -race -run '^$' -bench '^BenchmarkScanArtifactsWarm$' -benchtime=1x -count=2 .

echo "== gia-serve daemon smoke (HTTP lifecycle + graceful shutdown) =="
# Boot the fleet daemon on a loopback ephemeral port, drive one device
# through create/install/attack/replay/reclaim over real HTTP, scrape
# /metrics for the arena and serve counters, then require a clean
# SIGTERM drain within the timeout. Runs in a subshell with its own EXIT
# trap so a failing step cannot leak the daemon process.
(
    servedir=$(mktemp -d)
    servepid=""
    trap 'test -n "$servepid" && kill "$servepid" 2>/dev/null; rm -rf "$servedir"' EXIT
    go build -o "$servedir/gia-serve" ./cmd/gia-serve
    "$servedir/gia-serve" -addr 127.0.0.1:0 >"$servedir/serve.log" 2>&1 &
    servepid=$!
    url=""
    i=0
    while [ $i -lt 100 ]; do
        url=$(sed -n 's/^gia-serve: listening on \(http:.*\)$/\1/p' "$servedir/serve.log")
        test -n "$url" && break
        kill -0 "$servepid" 2>/dev/null || {
            echo "verify.sh: gia-serve died before listening" >&2
            cat "$servedir/serve.log" >&2
            exit 1
        }
        sleep 0.1
        i=$((i + 1))
    done
    test -n "$url" || {
        echo "verify.sh: gia-serve never reported its listen URL" >&2
        exit 1
    }
    "$servedir/gia-serve" -smoke "$url"
    kill -TERM "$servepid"
    i=0
    while kill -0 "$servepid" 2>/dev/null; do
        i=$((i + 1))
        if [ $i -gt 300 ]; then
            echo "verify.sh: gia-serve did not drain within 30s of SIGTERM" >&2
            exit 1
        fi
        sleep 0.1
    done
    wait "$servepid" 2>/dev/null || true
    servepid=""
    grep -q "drained and stopped" "$servedir/serve.log" || {
        echo "verify.sh: gia-serve shutdown was not a clean drain" >&2
        cat "$servedir/serve.log" >&2
        exit 1
    }
)

echo "== fuzz smoke (5s per target) =="
# Run every Fuzz target briefly; fuzzing requires one target per
# invocation. The target list is materialized in a temp file — not a pipe —
# so a failing list or a failing fuzz run fails the gate instead of being
# swallowed by a subshell.
fuzzlist=$(mktemp)
trap 'rm -f "$fuzzlist"' EXIT
go test ./... -list 'Fuzz.*' >"$fuzzlist" || {
    echo "verify.sh: fuzz target listing failed" >&2
    exit 1
}
targets=""
while read -r line; do
    case "$line" in
    Fuzz*) targets="${targets:-} $line" ;;
    FAIL*)
        echo "verify.sh: fuzz target listing reported: $line" >&2
        exit 1
        ;;
    ok*)
        pkg=$(echo "$line" | awk '{print $2}')
        for t in ${targets:-}; do
            echo "-- $pkg $t"
            go test "$pkg" -run '^$' -fuzz "^${t}\$" -fuzztime=5s || exit 1
        done
        targets=""
        ;;
    esac
done <"$fuzzlist"
if [ -n "${targets:-}" ]; then
    echo "verify.sh: fuzz targets not attributed to any package:${targets}" >&2
    exit 1
fi

echo "== bench compare (soft gate; STRICT_BENCH=1 to enforce) =="
# Fresh throughput snapshot diffed against the committed BENCH_scan.json:
# a >20% drop in explorer schedules/s or warm-scan throughput prints a
# REGRESSION warning. Warn-only by default — committed numbers come from a
# particular host — and a hard failure when STRICT_BENCH=1 (CI).
benchtmp=$(mktemp)
go run ./cmd/gia-bench -benchjson "$benchtmp" -compare BENCH_scan.json \
    ${STRICT_BENCH:+-strict} || {
    rm -f "$benchtmp"
    echo "verify.sh: bench compare failed" >&2
    exit 1
}
rm -f "$benchtmp"

echo "verify.sh: all checks passed"
