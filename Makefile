.PHONY: all build test bench examples clean check bench-quick bench-ladder benchdiff chaos-quick keyed lint rodscan rodproto rodunits promcheck sarif perfbench perfbench-ab

all: build

build:
	dune build @all

test:
	dune runtest

# The tier-1 gate: formatting (dune files) + build + lint + full test
# suite + the seeded chaos smoke run + the enforced perf diff (a fresh
# quick ladder record over the place/* and controller/* rungs, compared
# against the previous one; noisy fits with r^2 < 0.9 are skipped).
check:
	dune build @fmt
	dune build @all
	dune build @lint
	dune build @rodscan
	dune build @rodproto
	dune build @rodunits
	dune runtest
	dune build @chaos-quick
	dune build @keyed
	dune build @promcheck
	$(MAKE) bench-ladder
	$(MAKE) benchdiff

# The four passes of tools/rodcheck over lib/ and bin/: lint
# (parse-tree rules), scan (interprocedural determinism taint, parallel
# race lint, hot-path allocation check), proto (migration-protocol
# typestate + gated-mutation analysis) and units (dimensional analysis
# of the load-model arithmetic) — see DESIGN.md §8, §10, §13 and §15
# for the driver, the rule catalogues and the escape hatches.
lint:
	dune build @lint @rodscan @rodproto @rodunits

# Typedtree analysis and its fixture self-test only.
rodscan:
	dune build @rodscan

# Protocol typestate verification and its fixture self-test only.
rodproto:
	dune build @rodproto

# Dimensional analysis and its fixture self-test only.
rodunits:
	dune build @rodunits

# One SARIF report for the whole static-analysis suite: one rodcheck
# run over all four passes writes rod-analysis.sarif (one run per
# pass), the artifact the CI workflow uploads.  Exit status reflects
# the passes: any finding fails.
sarif:
	dune build @sarif

# Seeded fault-injection smoke suite: every chaos scenario in quick
# mode, judged by the differential oracles (fails the build on any
# oracle violation).
chaos-quick:
	dune build @chaos-quick

# Export Prometheus text from a seeded sim run and validate the
# exposition format (tools/promcheck).
promcheck:
	dune build @promcheck

# The keyed-parallelism gate alone: partitioner/sketch/split property
# suite (goldens, pool identity, tamper-negative oracle) plus the two
# keyed chaos scenarios.
keyed:
	dune build @keyed

bench:
	dune exec bench/main.exe

# Micro-benchmarks only, small quota; writes BENCH_rod.json next to the
# plain-text table so the perf trajectory across PRs stays diffable.
bench-quick:
	dune exec bench/main.exe -- --quick --micro-only

# The scale ladder only (under --micro-only, --only narrows by
# benchmark-name substring, comma-separated: `place/,controller/`
# selects every placement rung up to ROD-m10000-n256 plus the online
# replanner rung).  Appends a record to BENCH_rod.json.
bench-ladder:
	dune exec bench/main.exe -- --quick --micro-only --only place/,controller/

# Enforced perf gate (part of `check`): compares the newest
# BENCH_rod.json record against the previous one and fails on a >25%
# slowdown in any place/* or controller/* entry.  Entries with a poor
# OLS fit on either side (r^2 < 0.9) are shown but not judged — the
# estimate itself is noise, which is what keeps the gate enforceable
# on a shared box.
benchdiff:
	dune exec tools/benchdiff/benchdiff.exe -- BENCH_rod.json

# The end-to-end benchmark (perfbench/, declared in BENCHMARK.json): one
# untraced run of workload W (plan-batch, sim-drift or spe-monitoring).
# The last line of output is the JSON result.
W ?= sim-drift
SEED ?= 1
SECONDS ?= 30
perfbench:
	bash perfbench/run.sh --workload $(W) --seed $(SEED) --seconds $(SECONDS) --trace 0

# Same-box A/B of the end-to-end benchmark: builds BASE and HEAD (their
# committed files) in temporary git worktrees, runs one alternating pair
# of W runs per seed in SEEDS, and prints each metric's base and head
# median, quartiles and the number of pairs HEAD won.
BASE ?= HEAD~1
SEEDS ?= 1 2 3 4 5 6 7 8 9 10
perfbench-ab:
	bash tools/perfbench_ab.sh --base $(BASE) --workload $(W) --seeds "$(SEEDS)" --seconds $(SECONDS)

examples:
	dune exec examples/quickstart.exe
	dune exec examples/network_monitoring.exe
	dune exec examples/financial_compliance.exe
	dune exec examples/join_queries.exe
	dune exec examples/clustered_deployment.exe
	dune exec examples/end_to_end.exe

clean:
	dune clean
