"""Shared pytest configuration for the test suite."""

import pytest


def pytest_configure(config):
    # Register the custom marks so pytest does not warn about them;
    # ``-m "not slow"`` deselects the multi-second end-to-end tests.
    config.addinivalue_line(
        "markers", "slow: multi-second end-to-end test (examples, "
                   "service round trips)")


class _QuickTables(dict):
    """Quick tables by experiment id, each run by ``run_experiment`` on
    first lookup; ``cells`` keeps the cells its sweep returned."""

    def __init__(self):
        super().__init__()
        self.cells = {}

    def __missing__(self, experiment_id):
        from repro.harness import registry

        sweeps = []

        class KeepingRunner(registry.SweepRunner):
            def run(self, specs, base_seed=0):
                cells = super().run(specs, base_seed=base_seed)
                sweeps.append(cells)
                return cells

        real, registry.SweepRunner = registry.SweepRunner, KeepingRunner
        try:
            table = self[experiment_id] = registry.run_experiment(
                experiment_id, quick=True)
        finally:
            registry.SweepRunner = real
        (self.cells[experiment_id],) = sweeps
        return table


@pytest.fixture(scope="session")
def quick_tables():
    """Every quick table, built once per session and shared by the
    registry smoke tests, the golden-output gate and the stored-form
    finish check.  Read-only."""
    return _QuickTables()


@pytest.fixture(scope="session")
def equivalence_report():
    """The cross-engine equivalence matrix, run once per session."""
    pytest.importorskip("numpy")
    from repro.engine_vec.equivalence import run_equivalence

    return run_equivalence()
