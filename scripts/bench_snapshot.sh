#!/bin/sh
# Regenerates the committed benchmark snapshots:
#
#   BENCH_kernel.json    — join-kernel latency/allocation numbers
#   BENCH_partjoin.json  — partition-engine vs tree-engine head-to-head
#
# Run from the repository root after kernel or engine changes and commit
# the results so regressions show up in review.
#
# Usage: scripts/bench_snapshot.sh [benchtime]
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${1:-1000x}"

# The active filter-kernel dispatch (avx2/purego) is stamped into each
# snapshot: numbers taken under different kernels are not comparable, and
# bench_diff.sh refuses to diff across a mismatch.
KERNEL=$(go run ./cmd/spjoin -printkernel)

# snapshot OUT PKG PATTERN [PKG PATTERN]... — run each package's matching
# benchmarks and merge the results into one JSON snapshot.
snapshot() {
    out="$1"; shift
    {
        while [ "$#" -gt 0 ]; do
            go test -run='^$' -bench="$2" -benchmem -benchtime="$BENCHTIME" "$1"
            shift 2
        done
    } |
    awk -v benchtime="$BENCHTIME" -v kernel="$KERNEL" '
        /^goos:/    { goos = $2 }
        /^goarch:/  { goarch = $2 }
        /^cpu:/     { sub(/^cpu: */, ""); cpu = $0 }
        /^Benchmark/ {
            name = $1
            sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
            for (i = 2; i < NF; i++) {
                if ($(i+1) == "ns/op")     ns[name] = $i
                if ($(i+1) == "B/op")      bytes[name] = $i
                if ($(i+1) == "allocs/op") allocs[name] = $i
            }
            order[n++] = name
        }
        END {
            printf "{\n"
            printf "  \"goos\": \"%s\",\n", goos
            printf "  \"goarch\": \"%s\",\n", goarch
            printf "  \"cpu\": \"%s\",\n", cpu
            printf "  \"kernel\": \"%s\",\n", kernel
            printf "  \"benchtime\": \"%s\",\n", benchtime
            printf "  \"benchmarks\": [\n"
            for (i = 0; i < n; i++) {
                name = order[i]
                printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
                    name, ns[name], bytes[name], allocs[name], (i < n-1 ? "," : "")
            }
            printf "  ]\n}\n"
        }
    ' > "$out"
    echo "wrote $out:"
    cat "$out"
}

snapshot BENCH_kernel.json \
    . '^(BenchmarkKernelExpand|BenchmarkSequentialJoin$)' \
    ./internal/geom/ '^(BenchmarkIntersectBatchPlanes$|BenchmarkSweepPairsPlanes(Dense)?$|BenchmarkSortOrderCold$)'
snapshot BENCH_partjoin.json \
    . '^(BenchmarkPartitionJoin(Cold|ColdSkewed|Skewed|SkewedRefined|Introspected|Health|RejoinMutated)?$|BenchmarkNativeTreeJoin$|BenchmarkBulkLoadSTRParallel$)'

# Append one dated record per snapshot run to the machine-readable bench
# history (docs/bench_history.jsonl), so the perf trajectory across PRs
# survives the snapshots' overwrites. One JSON object per line:
# timestamp, host context, and name -> ns/op for every benchmark in both
# snapshots. scripts/bench_history.sh pretty-prints the trail.
mkdir -p docs
GOOS_CPU=$(awk '
    /"goos"/ { if (match($0, /"goos": *"[^"]*"/)) { s = substr($0, RSTART, RLENGTH); gsub(/"goos": *"|"/, "", s); goos = s } }
    /"cpu"/  { if (match($0, /"cpu": *"[^"]*"/))  { s = substr($0, RSTART, RLENGTH); gsub(/"cpu": *"|"/, "", s); cpu = s } }
    END { printf "\"goos\": \"%s\", \"cpu\": \"%s\"", goos, cpu }
' BENCH_kernel.json)
{
    printf '{"date": "%s", %s, "kernel": "%s", "uname": "%s", "benchtime": "%s", "ns_per_op": {' \
        "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$GOOS_CPU" "$KERNEL" "$(uname -sr)" "$BENCHTIME"
    awk '
        /"name"/ {
            if (match($0, /"name": *"[^"]*"/)) {
                name = substr($0, RSTART, RLENGTH); gsub(/"name": *"|"/, "", name)
            }
            if (match($0, /"ns_per_op": *[0-9.]+/)) {
                ns = substr($0, RSTART+12, RLENGTH-12); gsub(/[: ]/, "", ns)
                printf "%s\"%s\": %s", (n++ ? ", " : ""), name, ns
            }
        }
    ' BENCH_kernel.json BENCH_partjoin.json
    printf '}}\n'
} >> docs/bench_history.jsonl
echo "appended history record to docs/bench_history.jsonl ($(wc -l < docs/bench_history.jsonl) records)"
