#!/bin/sh
# Runs the repository's fuzz targets, one after the other. This list is the
# only one: `make fuzz` and the CI fuzz job both call this script, so a new
# target is added here and nowhere else.
#
# Usage: scripts/fuzz.sh [fuzztime]   (overrides every target's own time)
set -eu
cd "$(dirname "$0")/.."

# target  package  fuzztime
TARGETS='
FuzzEncodeDecode                 ./internal/rtree/     30s
FuzzIntersectBatchPlanes         ./internal/geom/      30s
FuzzRadixOrder                   ./internal/geom/      30s
FuzzSweepPairsPlanes             ./internal/geom/      30s
FuzzPartitionJoin                ./internal/partjoin/  30s
FuzzPartitionJoinRefined         ./internal/partjoin/  30s
FuzzPartitionJoinMutateSequence  ./internal/partjoin/  30s
FuzzNativeJoinBlocks             ./internal/parnative/ 30s
'

echo "$TARGETS" | while read -r target pkg fuzztime; do
    [ -n "$target" ] || continue
    echo "== $target ($pkg, ${1:-$fuzztime})"
    # Anchored: -fuzz takes a regexp and several targets share a prefix.
    # Minimizing a new input runs up to a minute by default, in which a
    # target whose executions build and join trees reports 0/sec; one second
    # keeps a 30 s run fuzzing (a crasher is still written, less minimized).
    go test -run='^$' -fuzz="^$target\$" -fuzztime="${1:-$fuzztime}" \
        -fuzzminimizetime=1s "$pkg"
done
