PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test golden verify lint list run serve smoke-t16 smoke-serve bench-check bench-reference bench-ab bench-layers

test:
	$(PYTHON) -m pytest -x -q

# Re-record tests/golden_outputs.json, the quick tables, equivalence
# matrix, quick-plan spec hashes and event-cell counters that
# tests/test_golden.py pins.
# Only for a change that means to move an output; give the reason in
# CHANGES.md.
golden:
	$(PYTHON) tests/record_golden.py

# What CI runs (.github/workflows/ci.yml): the determinism/contract
# lint + tier-1 tests (every quick table's claims and golden values,
# the cross-engine equivalence matrix) + one experiment end to end
# through the CLI (smoke-t16) + the end-to-end serving check + the
# benchmark bit-identity gate.
verify: lint test smoke-t16 smoke-serve bench-check

# Determinism & contract static analysis (src/repro/lint): AST rules
# (raw-rng, wall-clock, unordered-iter, stream-label) plus the
# import-and-introspect contract pass (spec codec, capability flags,
# equivalence coverage, registry coverage).  Exit 1 on any finding.
# ruff runs too when installed (CI pins it; local devs without ruff
# still get the repro pass).
lint:
	$(PYTHON) -m repro lint
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src; \
	else \
		echo "[lint] ruff not installed; skipping ruff check"; \
	fi

# List every registered experiment (the T1-T18 registry).
list:
	$(PYTHON) -m repro list

# Run one experiment: make run T=t05 [ARGS="--full --processes 4"]
# Fault-injection smoke: make run T=t16 (the loss x churn robustness
# grid; quick mode, < 5 s).
run:
	@test -n "$(T)" || { echo "usage: make run T=<id> [ARGS=...]"; exit 2; }
	$(PYTHON) -m repro run $(T) $(ARGS)

# One experiment end to end in a fresh interpreter (CI runs this):
# registry, plan, sweep and table through the CLI, with message loss
# and node churn (the t16 robustness grid; quick mode, about 2 s).
smoke-t16:
	$(PYTHON) -m repro run t16

# The simulation service: make serve [ARGS="--port 9000 --scenarios examples/scenarios"]
serve:
	$(PYTHON) -m repro serve $(ARGS)

# End-to-end serving-layer check (CI runs this): boot a real server
# with a 2-worker pool, submit t01 quick over HTTP (its cache misses
# run in the pool), assert the served bytes match direct
# run_experiment output, then resubmit and assert zero executed cells
# (everything from the content-addressed cache).
smoke-serve:
	$(PYTHON) benchmarks/smoke_serve.py

# Bit-identity gate (CI runs this after the tier-1 tests): the shortest
# untraced runs (their minimum of 7 passes) of all three benchmark
# workloads.  event_ftgcs: every executed FTGCS event cell must match
# its fingerprint in perfbench/reference.json and the paper bounds.
# vec_scale: every vectorized-engine cell (caterpillars, cliques, static
# and adaptive adversaries) against its fingerprint and its resilience
# envelope.  service_faulted: the lossy, churning grid as REST jobs,
# cold and warm, so every cell is checked the same way after the warm
# pool, the result store round trip and GET /jobs/<id>/cells.  Each run
# exits non-zero on a miss.  Gate on the exit code only: the timings
# they print are not compared to anything.  About 60-80 s.
bench-check:
	$(PYTHON) perfbench/run.py --workload event_ftgcs --seed 1 --seconds 1 --trace 0
	$(PYTHON) perfbench/run.py --workload vec_scale --seed 1 --seconds 1 --trace 0
	$(PYTHON) perfbench/run.py --workload service_faulted --seed 1 --seconds 1 --trace 0

# Every variant of every slot of a workload (all three without
# WORKLOAD), not just the one a seed picks, run serially and compared
# with its fingerprint in perfbench/reference.json.  Writes nothing;
# prints each mismatching slot and variant and exits non-zero on any.
# The one-command check that a change moves no benchmark output.
# vec_scale's 136 variants take about 8 s.
#   make bench-reference [WORKLOAD=<w>]
bench-reference:
	$(PYTHON) benchmarks/reference_check.py $(WORKLOAD)

# A/B pairs of two revisions on one benchmark workload: both exported
# with git archive (same BENCHMARK.json and perfbench/ required), PAIRS
# alternating runs at the benchmark's run_seconds with seeds SEED,
# SEED+1, ...  Reports each end-to-end metric against its bound and,
# with CLAIM=<metric>, whether a claimed gain is met (9/10 pairs won,
# medians apart by more than the base's quartile distance).  Every
# run's JSON goes to OUT; exits non-zero if any run was not correct.
#   make bench-ab BASE=<rev> WORKLOAD=<w> [CHANGE=HEAD] [CLAIM=<metric>]
#                 [PAIRS=10] [SEED=1000] [OUT=bench-ab-<w>.jsonl]
bench-ab:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-ab BASE=<rev> WORKLOAD=<w> [CHANGE=HEAD] [CLAIM=<metric>] [PAIRS=10] [SEED=1000] [OUT=<file>]"; exit 2; }
	$(PYTHON) benchmarks/ab_pairs.py --base $(BASE) --workload $(WORKLOAD) \
		$(if $(CHANGE),--change $(CHANGE)) $(if $(PAIRS),--pairs $(PAIRS)) \
		$(if $(SEED),--first-seed $(SEED)) $(if $(CLAIM),--claim $(CLAIM)) \
		$(if $(OUT),--out $(OUT))

# The same pairs traced (perfbench/run.py --trace 1, one seed per pair
# on both sides): each per-layer metric's base median, change median
# and ratio, so a speed change shows the layer it touched.  Exits
# non-zero if any run was not correct, a broken prediction included.
#   make bench-layers BASE=<rev> WORKLOAD=<w> [CHANGE=HEAD] [PAIRS=3]
#                     [SEED=1000] [OUT=bench-layers-<w>.jsonl]
bench-layers:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-layers BASE=<rev> WORKLOAD=<w> [CHANGE=HEAD] [PAIRS=3] [SEED=1000] [OUT=<file>]"; exit 2; }
	$(PYTHON) benchmarks/ab_pairs.py --trace --base $(BASE) \
		--workload $(WORKLOAD) --pairs $(or $(PAIRS),3) \
		$(if $(CHANGE),--change $(CHANGE)) \
		$(if $(SEED),--first-seed $(SEED)) $(if $(OUT),--out $(OUT))
