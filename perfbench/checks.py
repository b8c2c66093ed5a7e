"""Output checks: reference fingerprints, paper bounds, feature guards.

A cell *fails* when it raised, when its output differs from the
recorded reference, when it broke a paper bound, or when a fault
feature it was generated with did not take effect.  The benchmark
counts failures in ``failed`` and exits non-zero on any.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from repro.analysis.bounds import resilience_bound
from repro.harness import serialize
from repro.harness.sweep import spec_hash

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Extras the benchmark or ``Scenario.timed()`` add; they hold wall
#: times, so the fingerprint leaves them out.
TIMING_EXTRAS = ("timing", "bench_cell_s", "bench_spans")


def fingerprint(cell) -> str:
    """``serialize.content_hash`` of a cell result without timing
    extras."""
    extras = {key: value for key, value in cell.extras.items()
              if key not in TIMING_EXTRAS}
    return serialize.content_hash(replace(cell, extras=extras))


def load_reference(workload: str) -> dict[str, str]:
    with REFERENCE_PATH.open(encoding="utf-8") as handle:
        return json.load(handle)["workloads"][workload]


class Checker:
    """Checks the cells of one workload grid, pass after pass."""

    def __init__(self, workload: str, cells: list) -> None:
        self.reference = load_reference(workload)
        self.cells = cells
        self.hashes = [spec_hash(cell.spec) for cell in cells]
        self.index = {cell.slot: i for i, cell in enumerate(cells)}
        self.attempted = 0
        self.errored = 0
        self.mismatched = 0
        self.bound_violations = 0
        self.guard_failures = 0
        self.messages: list[str] = []

    @property
    def failed(self) -> int:
        return (self.errored + self.mismatched + self.bound_violations
                + self.guard_failures)

    def _fail(self, counter: str, slot: str, why: str) -> None:
        setattr(self, counter, getattr(self, counter) + 1)
        if len(self.messages) < 20:
            self.messages.append(f"{slot}: {why}")

    def job_failed(self, why: str) -> None:
        """A whole job raised: every cell in it counts as errored."""
        self.attempted += len(self.cells)
        for cell in self.cells:
            self._fail("errored", cell.slot, why)

    def check(self, results: list) -> None:
        """Check one job's results (``results[i]`` is cell ``i``'s)."""
        if len(results) != len(self.cells):
            self.job_failed(f"job returned {len(results)} of "
                            f"{len(self.cells)} cells")
            return
        for i, (cell, result) in enumerate(zip(self.cells, results)):
            self.attempted += 1
            expected = self.reference.get(self.hashes[i])
            if expected is None:
                self._fail("mismatched", cell.slot, "no reference entry")
            elif fingerprint(result) != expected:
                self._fail("mismatched", cell.slot,
                           "output differs from the reference")
            run = result.result
            if cell.lossy and run.messages_lost <= 0:
                self._fail("guard_failures", cell.slot,
                           "lossy cell lost no message")
            if cell.churn and run.node_crashes <= 0:
                self._fail("guard_failures", cell.slot,
                           "churn cell crashed no node")
            if not self._bounds_hold(cell, run, results):
                self._fail("bound_violations", cell.slot,
                           "paper bound broken")

    def _bounds_hold(self, cell, run, results) -> bool:
        if cell.envelope is not None:
            base_slot, knobs = cell.envelope
            base = results[self.index[base_slot]].result
            extra = max(0.0, run.max_local_skew - base.max_local_skew)
            return extra <= resilience_bound(**knobs) * (1.0 + 1e-9)
        # Thm 1.1 / Thm C.3 / Cor 3.2 on in-model FTGCS event runs
        # (loss and churn are outside the paper's model).
        if (cell.spec.protocol in (None, "ftgcs")
                and cell.spec.engine == "event"
                and not cell.lossy and not cell.churn):
            return run.detail.all_bounds_hold
        return True
