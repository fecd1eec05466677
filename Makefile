.PHONY: all build test bench bench-diff bench-smoke chaos chaos-smoke trace-smoke chaos-cli-smoke route-smoke metrics-smoke scenarios oracle oracle-smoke scale scale-smoke store-smoke clean

all: build

build:
	dune build

# Tier-1 gate: unit/property tests plus the engine differential smoke bench.
test:
	dune runtest

# Full benchmark-regression run: differential checker, workload suite at
# n in {1k, 4k, 16k}, and the before/after headline. Writes BENCH_congest.json.
bench:
	dune exec bench/engine_bench.exe

# Headline regression gate: rerun the full congest bench (writes a
# fresh BENCH_congest.json) and require headline.after.rounds_per_sec
# to clear the committed floor. Self-skips when the host's core count
# differs from the floor's 1-core calibration host (wall-clock
# throughput is not comparable across hosts).
bench-diff: bench
	dune exec bench/bench_diff.exe -- BENCH_congest.json

# Quick differential + throughput sanity check (n = 256, well under 30s),
# plus the benches' argument checks: an unknown experiment name or flag
# must exit 2 before anything runs. Also runs as part of `dune runtest`
# via the @bench-smoke alias.
bench-smoke:
	dune build @bench-smoke

# Fault-injection matrix: both engine backends under three seeded chaos
# plans across every algorithm family, plus the raw-vs-reliable BFS
# degradation sweep. Writes BENCH_faults.json.
chaos:
	dune exec bench/engine_bench.exe -- --chaos

# Small chaos matrix; also runs in `dune runtest` via @chaos-smoke.
chaos-smoke:
	dune build @chaos-smoke

# Telemetry round-trip: record a small spanner trace as Chrome JSON and
# JSONL, parse both back with `lightnet report`, and require >= 95% leaf
# span round coverage; a truncated copy of each must exit 1. Also runs
# in `dune runtest` via @trace-smoke.
trace-smoke:
	dune build @trace-smoke

# Chaos CLI smoke: `lightnet chaos` runs pinned to their exit codes —
# reliable BFS/broadcast under seeded drops, clean MST, a
# repeated-draw crash plan and reliable BFS around crash-stops at
# rounds above 0 certify (0), raw BFS reads wrong (3), lossy
# MST hits its round cap (2), too many crashes or --reliable with MST
# is a usage error (124).
# Also runs in `dune runtest` via @chaos-cli-smoke.
chaos-cli-smoke:
	dune build @chaos-cli-smoke

# Serving-layer smoke: build an artifact on a small doubling graph,
# serve 1k Zipf queries through the source cache, certify stretch <= t
# against exact distances, then hit the label tier. Two serve usage
# mistakes must exit 124, and the artifact cut to 1,000 bytes must exit
# 1 (INVALID), not crash. Also runs in `dune runtest` via @route-smoke.
route-smoke:
	dune build @route-smoke

# Metrics-registry smoke: spanner + serve with --metrics, each JSON
# snapshot parsed back by `lightnet metrics`, which must exit 1 on a
# non-JSON file, plus two same-seed scenario runs whose snapshots must
# be byte-identical. Also runs in `dune runtest` via @metrics-smoke.
metrics-smoke:
	dune build @metrics-smoke

# Full declarative chaos suite: every committed .scn scenario through
# the harness (expected-violation must exit 5 or the suite fails),
# writing per-scenario verdicts, rounds, drops, retransmissions and SLO
# margins. Three cheap scenarios also run in `dune runtest` via
# @scenario-smoke.
scenarios:
	dune exec bin/lightnet_cli.exe -- scenario --dir scenarios \
	  --expect-violation expected-violation --json BENCH_scenarios.json

# Route-oracle benchmark: qps per tier, cache hit-rate sweep, label vs
# Dijkstra speedup, a certified max stretch, one store-fleet batch
# (qps, p99, checksum) with a store LRU hit-rate sweep, and the SLT
# epsilon/stretch table. Writes BENCH_oracle.json.
oracle:
	dune exec bench/oracle_bench.exe

# The same bench at smoke size; fails on a broken certificate or SLT
# stretch promise, or when a served batch's checksum or cache counters
# differ from bench/serve_digests.expected. Also runs in `dune runtest`
# via @oracle-smoke.
oracle-smoke:
	dune build @oracle-smoke

# Digest-keyed store + fleet smoke: build/add/verify three networks,
# fleet-serve one batch twice on the cache tier and once on the spanner
# tier with byte-identical checksum files enforced by cmp, parse the
# JSON metrics snapshot back, load the first run's trace with `lightnet
# report` and require its lightnet_serve_latency_us track, and run a
# generated store-form scenario with a min-hit-rate SLO. Also runs in
# `dune runtest` via @store-smoke.
store-smoke:
	dune build @store-smoke

# Graph500-scale substrate gate at RMAT scale 17 (n = 131072, ~1.9M
# edges): streaming construction, BFS/TEPS, MST forest and artifact
# round-trip under wall-clock + Gc heap ceilings (measured ~9.5s /
# ~60 Mw; ceilings 60s / 3x heap). A smaller scale-14 version runs in
# `dune runtest` via @scale-smoke.
scale:
	dune exec bench/scale_smoke.exe -- --scale 17 --max-seconds 60

scale-smoke:
	dune build @scale-smoke

clean:
	dune clean
