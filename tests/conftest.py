"""Shared pytest configuration for the test suite."""

import pytest


def pytest_configure(config):
    # Register the custom marks so pytest does not warn about them;
    # ``-m "not slow"`` deselects the multi-second end-to-end tests.
    config.addinivalue_line(
        "markers", "slow: multi-second end-to-end test (examples, "
                   "service round trips)")


class _QuickTables(dict):
    """Quick tables by experiment id, each run on first lookup."""

    def __missing__(self, experiment_id):
        from repro.harness.registry import run_experiment

        table = self[experiment_id] = run_experiment(experiment_id,
                                                     quick=True)
        return table


@pytest.fixture(scope="session")
def quick_tables():
    """Every quick table, built once per session and shared by the
    registry smoke tests and the golden-output gate.  Read-only."""
    return _QuickTables()


@pytest.fixture(scope="session")
def equivalence_report():
    """The cross-engine equivalence matrix, run once per session."""
    pytest.importorskip("numpy")
    from repro.engine_vec.equivalence import run_equivalence

    return run_equivalence()
