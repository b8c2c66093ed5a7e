"""Tests for the harness: tables, runner helpers, the failure bounds,
and the claims of four quick tables (read from the session's
``quick_tables``).
"""

import pytest

from repro.analysis.bounds import (
    cluster_failure_bound_3ep,
    cluster_failure_bound_binomial,
    cluster_failure_probability,
    system_failure_probability,
)
from repro.errors import ConfigError, ParameterError
from repro.harness.runner import gradient_offsets, step_offsets
from repro.harness.tables import Table


class TestTable:
    def test_format_alignment(self):
        table = Table("Demo", ["a", "long-column"], [])
        table.add_row(1, 2.5)
        table.add_row(100, True)
        text = table.format()
        assert "Demo" in text
        assert "long-column" in text
        assert "yes" in text

    def test_row_length_checked(self):
        table = Table("Demo", ["a", "b"])
        with pytest.raises(ConfigError):
            table.add_row(1)

    def test_column_accessor(self):
        table = Table("Demo", ["a", "b"])
        table.add_row(1, "x")
        table.add_row(2, "y")
        assert table.column("a") == [1, 2]
        with pytest.raises(ConfigError):
            table.column("zzz")

    def test_float_formatting(self):
        table = Table("Demo", ["v"])
        table.add_row(0.000123456)
        table.add_row(123456.789)
        table.add_row(0.0)
        text = table.format()
        assert "1.235e-04" in text
        assert "1.235e+05" in text

    def test_notes_rendered(self):
        table = Table("Demo", ["a"])
        table.add_note("hello note")
        assert "note: hello note" in table.format()


class TestRunnerHelpers:
    def test_gradient_offsets(self):
        assert gradient_offsets(4, 2.0) == [0.0, 2.0, 4.0, 6.0]

    def test_step_offsets(self):
        assert step_offsets(4, 2, 5.0) == [0.0, 0.0, 5.0, 5.0]


class TestBoundsFunctions:
    def test_exact_tail_matches_direct_sum(self):
        # f=1, k=4, p=0.5: P[X>1] = 1 - P[0] - P[1]
        # = 1 - 0.0625 - 4*0.0625 = 0.6875.
        assert cluster_failure_probability(1, 0.5) == pytest.approx(0.6875)

    def test_bound_ordering(self):
        for f in (1, 2, 3):
            for p in (0.001, 0.01, 0.05):
                exact = cluster_failure_probability(f, p)
                mid = cluster_failure_bound_binomial(f, p)
                top = cluster_failure_bound_3ep(f, p)
                assert exact <= mid * (1 + 1e-9) or exact < 1e-12
                assert mid <= top * (1 + 1e-9)

    def test_edge_cases(self):
        assert cluster_failure_probability(1, 0.0) == 0.0
        assert cluster_failure_probability(1, 1.0) == pytest.approx(1.0)
        assert cluster_failure_probability(0, 0.3,
                                           cluster_size=1) == \
            pytest.approx(0.3)

    def test_system_probability_union(self):
        single = cluster_failure_probability(1, 0.05)
        combined = system_failure_probability(10, 1, 0.05)
        assert single < combined < 10 * single

    def test_validation(self):
        with pytest.raises(ParameterError):
            cluster_failure_probability(-1, 0.1)
        with pytest.raises(ParameterError):
            cluster_failure_probability(1, 1.5)


class TestExperimentsSmoke:
    """The claims of the t05, t08, t10 and t12 quick tables (the other
    tables' are in ``tests/test_registry.py``)."""

    def test_t05_rows_and_ordering(self, quick_tables):
        table = quick_tables["t05"]
        assert len(table.rows) == 9
        assert all(table.column("ordered"))

    def test_t08_overheads_factors(self, quick_tables):
        table = quick_tables["t08"]
        # Node factor is exactly k = 3f+1.
        for row in table.rows:
            f, k, factor = row[1], row[2], row[4]
            assert k == 3 * f + 1
            assert factor == k
        # Edge factor is Theta(k^2) = Theta(f^2) for f >= 1.
        faulty = [row for row in table.rows if row[1] >= 1]
        assert faulty
        for row in faulty:
            k, edge_factor = row[2], row[6]
            assert k * k / 2 <= edge_factor <= 2 * k * k

    def test_t10_no_violations(self, quick_tables):
        table = quick_tables["t10"]
        assert all(v == 0 for v in table.column("violations"))

    def test_t12_convergence_within_envelope(self, quick_tables):
        table = quick_tables["t12"]
        assert all(table.column("within"))
        predicted = table.column("predicted e(r)")
        assert predicted == sorted(predicted, reverse=True)
