#!/bin/sh
# Compares fresh benchmark runs against the committed snapshots
# (BENCH_kernel.json and BENCH_partjoin.json). Fails when any benchmark's
# ns/op regresses by more than the tolerance (default 10%), or when
# allocs/op grows at all — the zero-allocation contracts admit no slack.
# Wall-clock numbers wobble with the host, hence the generous default
# tolerance; allocation counts do not.
#
# A snapshot taken under a different kernel dispatch (avx2 vs purego) or a
# different benchtime is not comparable — the script refuses rather than
# reporting a bogus regression.
#
# Usage: scripts/bench_diff.sh [tolerance-percent] [benchtime]
set -eu
cd "$(dirname "$0")/.."

TOLERANCE="${1:-10}"
BENCHTIME="${2:-1000x}"
FRESH=$(mktemp)
trap 'rm -f "$FRESH"' EXIT

KERNEL=$(go run ./cmd/spjoin -printkernel)

fail=0

# check_context BASE — refuse to diff against a snapshot whose recorded
# kernel dispatch or benchtime does not match this run's.
check_context() {
    base="$1"
    base_kernel=$(awk '/"kernel"/ { if (match($0, /"kernel": *"[^"]*"/)) {
        s = substr($0, RSTART, RLENGTH); gsub(/"kernel": *"|"/, "", s); print s } }' "$base")
    base_benchtime=$(awk '/"benchtime"/ { if (match($0, /"benchtime": *"[^"]*"/)) {
        s = substr($0, RSTART, RLENGTH); gsub(/"benchtime": *"|"/, "", s); print s } }' "$base")
    if [ -n "$base_kernel" ] && [ "$base_kernel" != "$KERNEL" ]; then
        echo "bench_diff: $base was taken under kernel '$base_kernel' but this run dispatches '$KERNEL' — not comparable (re-snapshot or match the kernel)" >&2
        fail=1
        return 1
    fi
    if [ -n "$base_benchtime" ] && [ "$base_benchtime" != "$BENCHTIME" ]; then
        echo "bench_diff: $base was taken with benchtime $base_benchtime but this run uses $BENCHTIME — not comparable" >&2
        fail=1
        return 1
    fi
    return 0
}

diff_suite() {
    base="$1"; shift

    [ -f "$base" ] || { echo "bench_diff: missing $base (run make bench-snapshot)" >&2; fail=1; return; }
    check_context "$base" || return 0

    {
        while [ "$#" -gt 0 ]; do
            go test -run='^$' -bench="$2" -benchmem -benchtime="$BENCHTIME" "$1"
            shift 2
        done
    } |
    awk '
        /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name)
            for (i = 2; i < NF; i++) {
                if ($(i+1) == "ns/op")     ns[name] = $i
                if ($(i+1) == "allocs/op") allocs[name] = $i
            }
            order[n++] = name
        }
        END {
            for (i = 0; i < n; i++)
                printf "%s %s %s\n", order[i], ns[order[i]], allocs[order[i]]
        }
    ' > "$FRESH"

    [ -s "$FRESH" ] || { echo "bench_diff: no benchmark output for $base" >&2; fail=1; return; }

    while read -r name fresh_ns fresh_allocs; do
        base_ns=$(awk -v n="$name" '
            /"name"/ && index($0, "\"" n "\"") {
                if (match($0, /"ns_per_op": *[0-9.]+/))
                    print substr($0, RSTART+12, RLENGTH-12)
            }' "$base" | tr -d ': ')
        base_allocs=$(awk -v n="$name" '
            /"name"/ && index($0, "\"" n "\"") {
                if (match($0, /"allocs_per_op": *[0-9]+/))
                    print substr($0, RSTART+16, RLENGTH-16)
            }' "$base" | tr -d ': ')
        if [ -z "$base_ns" ] || [ -z "$base_allocs" ]; then
            echo "bench_diff: $name missing from $base (run make bench-snapshot)" >&2
            fail=1
            continue
        fi
        over=$(awk -v f="$fresh_ns" -v b="$base_ns" -v tol="$TOLERANCE" \
            'BEGIN { print (f > b * (1 + tol/100)) ? 1 : 0 }')
        if [ "$over" = 1 ]; then
            echo "bench_diff: $name regressed: $fresh_ns ns/op vs $base_ns ns/op baseline (+${TOLERANCE}% allowed)" >&2
            fail=1
        else
            echo "bench_diff: $name ok: $fresh_ns ns/op (baseline $base_ns, +${TOLERANCE}% allowed)"
        fi
        if [ "$fresh_allocs" -gt "$base_allocs" ]; then
            echo "bench_diff: $name allocations regressed: $fresh_allocs allocs/op vs $base_allocs baseline" >&2
            fail=1
        fi
    done < "$FRESH"
}

diff_suite BENCH_kernel.json \
    . '^(BenchmarkKernelExpand|BenchmarkSequentialJoin$)' \
    ./internal/geom/ '^(BenchmarkIntersectBatchPlanes$|BenchmarkSweepPairsPlanes(Dense)?$|BenchmarkSortOrderCold$)'
diff_suite BENCH_partjoin.json \
    . '^(BenchmarkPartitionJoin(Cold|ColdSkewed|Skewed|SkewedRefined|Introspected|Health|RejoinMutated)?$|BenchmarkNativeTreeJoin$|BenchmarkBulkLoadSTRParallel$)'

exit "$fail"
