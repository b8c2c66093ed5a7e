PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test golden verify lint list run serve smoke-t16 smoke-serve smoke-vec smoke-adversary bench-quick bench-quick-ci bench-check bench bench-record

test:
	$(PYTHON) -m pytest -x -q

# Re-record tests/golden_outputs.json, the quick tables, equivalence
# matrix and quick-plan spec hashes that tests/test_golden.py pins.
# Only for a change that means to move an output; give the reason in
# CHANGES.md.
golden:
	$(PYTHON) tests/record_golden.py

# What CI runs (.github/workflows/ci.yml): the determinism/contract
# lint + tier-1 tests + the pre-merge smoke check in its non-strict
# form (the throughput comparison against BENCH_kernel.json is
# hardware-sensitive, so only the explicit `make bench-quick` gate
# hard-fails on it) + the cross-engine equivalence matrix + the
# adversary-layer smoke + the end-to-end serving check + the
# benchmark bit-identity gate.
verify: lint test bench-quick-ci smoke-vec smoke-adversary smoke-serve bench-check

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

# The t16 smoke line by name, for muscle memory.
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

# Cross-engine equivalence matrix (CI runs this): every vectorized
# protocol cell on both engines — bit-equal where the math permits,
# documented tolerance otherwise.  About a second.
smoke-vec:
	$(PYTHON) benchmarks/smoke_vec.py

# Adversary-layer smoke (CI runs this): the quick T18 resilience sweep
# (static + adaptive adversaries, both engines, absorption-envelope
# column) plus the adversary cells of the equivalence matrix.  About a
# second.
smoke-adversary:
	$(PYTHON) benchmarks/smoke_adversary.py

# Pre-merge smoke check: kernel/substrate microbenchmarks, < 60 s.
# --check asserts event throughput within 10% of BENCH_kernel.json;
# use it on hardware comparable to the recorded baseline.  CI (and
# `make verify`) run the plain form, where a regression is a
# non-fatal warning.
bench-quick:
	$(PYTHON) -m repro bench-quick --check

bench-quick-ci:
	$(PYTHON) -m repro bench-quick

# Bit-identity gate (CI runs this after the tier-1 tests): the shortest
# untraced event_ftgcs benchmark run (its minimum of 7 passes).  Every
# executed FTGCS event cell must match its fingerprint in
# perfbench/reference.json and the paper bounds, or the run exits
# non-zero.  Gate on the exit code only: the timings it prints are not
# compared to anything.  About 25-40 s.
bench-check:
	$(PYTHON) perfbench/run.py --workload event_ftgcs --seed 1 --seconds 1 --trace 0

# Full pytest-benchmark suite (tables T1-T18 + kernel microbenches).
bench:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q --benchmark-only

# Append current substrate throughput to BENCH_kernel.json.  Entries
# are stamped with cpu_count; recording on a 1-CPU container prints a
# non-fatal warning (pool speedups are meaningless there), and is
# refused outright (unless FORCE=1) when it would bury a multi-core
# baseline — prefer re-recording on multi-core hardware.
bench-record:
	$(PYTHON) benchmarks/record_baseline.py $(if $(FORCE),--force)
