# Tier-1 gate and maintenance targets. `make check` is the pre-merge bar
# (see README.md): full build, vet, the whole test suite under the race
# detector and again without it.

.PHONY: check test bench bench-snapshot bench-diff bench-history cover fuzz timeline-smoke timeline-diff introspect-smoke health-smoke observatory experiments-regen

check:
	./scripts/check.sh

test:
	go test ./...

bench:
	go test -run='^$$' -bench=. -benchmem .

# Refresh BENCH_kernel.json and BENCH_partjoin.json (commit the results).
bench-snapshot:
	./scripts/bench_snapshot.sh

# Compare fresh runs against both committed snapshots; fails on >10%
# ns/op regressions or any allocs/op growth. TOLERANCE overrides the percent.
bench-diff:
	./scripts/bench_diff.sh $(or $(TOLERANCE),10)

# Pretty-print the benchmark history trail (docs/bench_history.jsonl).
# FILTER narrows to benchmarks whose name contains the substring.
bench-history:
	./scripts/bench_history.sh $(or $(FILTER),)

# Test with coverage and enforce the floor used by CI.
cover:
	./scripts/cover.sh

# Run every fuzz target (the list lives in scripts/fuzz.sh; CI calls the same
# script). FUZZTIME overrides each target's own duration.
fuzz:
	./scripts/fuzz.sh $(FUZZTIME)

# Export the seed-workload Perfetto trace + critical-path report (to
# artifacts/) and validate the trace against the trace-event schema.
timeline-smoke:
	./scripts/timeline_smoke.sh

# Run spjoin -explain over the corpus workloads (to artifacts/): EXPLAIN
# reports, wall-clock Perfetto traces validated with tracecheck, heatmap SVG.
introspect-smoke:
	./scripts/introspect_smoke.sh

# Runtime-health smoke (CI): run the skewed cold join with health sampling
# and poll /debug/joins/live while it repeats; assert a well-formed
# "runtime health" EXPLAIN section and live-progress JSON (to artifacts/).
health-smoke:
	./scripts/health_smoke.sh

# Compare the seed critical-path attribution against the committed snapshot;
# fails on shifts beyond TOLERANCE percentage points (default 2).
# Refresh the snapshot with: ./scripts/timeline_diff.sh 2 update
timeline-diff:
	./scripts/timeline_diff.sh $(or $(TOLERANCE),2)

# Observatory gate (CI): record a run store, machine-check the paper's
# claims, verify the committed EXPERIMENTS.md tables match the committed
# store, prove run-to-run determinism with runsdiff. SCALE=1.0 additionally
# diffs the fresh store against docs/observatory/runs.jsonl (weekly job).
observatory:
	./scripts/observatory.sh $(or $(SCALE),0.1)

# After an intentional cost-model or join-order change: re-run the full-
# scale experiments, refresh the committed store, the measured sections of
# EXPERIMENTS.md and the docs/observatory report + charts (commit the diff).
experiments-regen:
	go run ./cmd/experiments -scale 1.0 -run all -out docs/observatory/runs.jsonl
	go run ./cmd/experiments -regen docs/observatory/runs.jsonl
	go run ./cmd/experiments -report docs/observatory/runs.jsonl
	go run ./cmd/experiments -check docs/observatory/runs.jsonl
