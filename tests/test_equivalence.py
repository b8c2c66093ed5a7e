"""The cross-engine equivalence harness
(`repro.engine_vec.equivalence`).

The quick matrix — every (protocol, topology, seed) cell that both
engines support — must pass: bit-equal skews on *exact* cells,
documented per-cell tolerances elsewhere, analytic envelopes for the
ftgcs round skeleton.  This is the tentpole acceptance gate of the
vectorized engine, so the matrix runs in full here (about a second).
"""

import pytest

pytest.importorskip("numpy")

from repro.engine_vec.equivalence import (
    MODES,
    quick_cells,
    run_cell,
    run_equivalence,
)


class TestQuickMatrix:
    def test_full_matrix_passes(self, equivalence_report):
        assert equivalence_report.passed, equivalence_report.summary()

    def test_matrix_covers_all_supported_protocols(self):
        protocols = {cell.protocol for cell in quick_cells()}
        assert protocols == {"gcs_single", "srikanth_toueg",
                             "lynch_welch", "ftgcs"}

    def test_matrix_exercises_every_mode(self):
        modes = {cell.mode for cell in quick_cells()}
        assert modes == set(MODES)

    def test_exact_cells_are_bit_equal(self, equivalence_report):
        exact = [result for result in equivalence_report.results
                 if result.cell.mode == "exact"]
        assert exact
        for result in exact:
            assert result.passed, result.failures
            assert result.vec_local == result.event_local
            assert result.vec_global == result.event_global

    def test_cells_carry_multiple_seeds(self):
        # Seed diversity: one lucky draw must not carry the gate.
        by_name = {}
        for cell in quick_cells():
            base = cell.name.rsplit("-s", 1)[0]
            by_name.setdefault(base, set()).add(cell.seed)
        assert any(len(seeds) > 1 for seeds in by_name.values())


class TestHarness:
    def test_unknown_mode_fails_the_cell(self):
        from dataclasses import replace
        cell = replace(quick_cells()[0], mode="vibes")
        result = run_cell(cell)
        assert not result.passed
        assert any("unknown mode" in msg for msg in result.failures)

    def test_failing_tolerance_is_reported(self):
        # Shrink a passing tolerance cell's bound to force a failure:
        # the report must carry the cell, not raise.
        cells = [cell for cell in quick_cells()
                 if cell.mode == "tolerance"]
        from dataclasses import replace
        broken = replace(cells[0], tolerance=0.0)
        result = run_cell(broken)
        assert not result.passed
        assert result.failures
        report = run_equivalence([broken])
        assert not report.passed
        assert broken.name in report.summary()
