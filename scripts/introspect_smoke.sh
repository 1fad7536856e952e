#!/bin/sh
# CI smoke for the join introspection layer: run spjoin -explain over the
# corpus workloads (planner-picked partition join, forced partition join,
# native tree join), validate each exported wall-clock Perfetto trace with
# cmd/tracecheck, and leave the EXPLAIN reports, traces and the tile-cost
# heatmap SVG in the output directory for upload as workflow artifacts.
#
# Usage: scripts/introspect_smoke.sh [outdir]   (default: artifacts)
set -eux
cd "$(dirname "$0")/.."

OUT="${1:-artifacts}"
mkdir -p "$OUT"

# Planner-driven run: the report must show the captured auto plan with the
# driving statistics, the phase waterfall, and the tile-cost sections.
go run ./cmd/spjoin -scale 0.02 -seed 42 -engine auto -explain \
    -timeline "$OUT/wall_auto.json" -explain-svg "$OUT/heat_auto.svg" \
    > "$OUT/explain_auto.txt"
go run ./cmd/tracecheck "$OUT/wall_auto.json"
grep 'plan (auto):' "$OUT/explain_auto.txt"
grep 'phases (measured' "$OUT/explain_auto.txt"
grep 'tile cost heat' "$OUT/explain_auto.txt"
grep -q '^<svg xmlns=' "$OUT/heat_auto.svg"

# Forced partition run at a fixed grid, with the clustered seed. The
# -metrics snapshot carries the engine counters the flight record exports.
go run ./cmd/spjoin -scale 0.05 -seed 7 -engine partition -procs 4 -grid 24 \
    -explain -timeline "$OUT/wall_partition.json" \
    -metrics "$OUT/metrics_partition.json" > "$OUT/explain_partition.txt"
go run ./cmd/tracecheck "$OUT/wall_partition.json"
grep 'plan (forced): engine=partition' "$OUT/explain_partition.txt"
grep 'workers (pairs):' "$OUT/explain_partition.txt"
grep '"partjoin.comparisons"' "$OUT/metrics_partition.json"

# Native tree run: the task count, the comparisons and the sweep-dominated
# waterfall, and the native.* counters in the -metrics snapshot.
go run ./cmd/spjoin -scale 0.05 -seed 42 -native -procs 4 \
    -explain -timeline "$OUT/wall_tree.json" \
    -metrics "$OUT/metrics_tree.json" > "$OUT/explain_tree.txt"
go run ./cmd/tracecheck "$OUT/wall_tree.json"
grep 'engine=tree' "$OUT/explain_tree.txt"
grep 'tree: tasks=' "$OUT/explain_tree.txt"
grep 'comparisons=' "$OUT/explain_tree.txt"
grep '"native.join.pairs_expanded"' "$OUT/metrics_tree.json"

# Slowlog path: a 1ns threshold fires on any join.
go run ./cmd/spjoin -scale 0.02 -seed 42 -engine partition -slowlog 1ns \
    > "$OUT/slowlog.txt"
grep 'slowlog: join exceeded' "$OUT/slowlog.txt"
