"""The golden-output gate: quick tables, equivalence matrix, quick
plan hashes and event-cell counters must equal
``tests/golden_outputs.json`` exactly.

The file is written by ``tests/record_golden.py`` (``make golden``).
A change that means to move an output re-records it and says why in
CHANGES.md; any other change must leave every pinned value alone.
"""

import math

import pytest
from record_golden import (
    EVENT_FIELDS,
    MATRIX_FIELDS,
    canonical_matrix,
    canonical_table,
    diff_event_cells,
    diff_matrix,
    diff_table,
    event_cell_specs,
    event_counters,
    load,
    plan_hashes,
)

from repro.harness.registry import REGISTRY
from repro.harness.sweep import cell_protocol

GOLDEN = load()


def test_golden_covers_every_experiment():
    assert sorted(GOLDEN["tables"]) == REGISTRY.ids()
    assert sorted(GOLDEN["plan_hashes"]) == REGISTRY.ids()


@pytest.mark.parametrize("experiment_id", sorted(GOLDEN["tables"]))
def test_quick_table_matches_golden(quick_tables, experiment_id):
    actual = canonical_table(experiment_id, quick_tables[experiment_id],
                             GOLDEN["volatile"])
    problems = diff_table(experiment_id, GOLDEN["tables"][experiment_id],
                          actual)
    assert not problems, "\n".join(problems)


def test_equivalence_matrix_matches_golden(equivalence_report):
    problems = diff_matrix(GOLDEN["equivalence"],
                           canonical_matrix(equivalence_report))
    assert not problems, "\n".join(problems)


def test_quick_plan_hashes_match_golden():
    actual = plan_hashes()
    for experiment_id, hashes in GOLDEN["plan_hashes"].items():
        assert actual[experiment_id] == hashes, experiment_id


def test_event_cell_counters_match_golden():
    problems = diff_event_cells(GOLDEN["event_cells"], event_counters())
    assert not problems, "\n".join(problems)


def test_event_cells_cover_every_event_protocol():
    specs = event_cell_specs()
    assert sorted(GOLDEN["event_cells"]) == sorted(specs)
    assert {cell_protocol(spec) for spec in specs.values()} == {
        "ftgcs", "gcs_single", "master_slave", "srikanth_toueg",
        "lynch_welch"}
    assert all(spec.engine == "event" for spec in specs.values())


def _nudge(value):
    """The smallest change of a canonical cell: one ulp for floats."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, float):
        return math.nextafter(value, math.inf)
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "~"
    return 0.0


class TestGateSensitivity:
    """Every pinned value is load-bearing: nudging any one of them
    fails the comparison with a message naming where and what."""

    @pytest.mark.parametrize("experiment_id", sorted(GOLDEN["tables"]))
    def test_any_table_cell_nudged_fails(self, experiment_id):
        golden = GOLDEN["tables"][experiment_id]
        masked = {golden["columns"].index(name)
                  for name in GOLDEN["volatile"].get(experiment_id, ())}
        actual = {**golden, "rows": [list(row) for row in golden["rows"]]}
        checked = 0
        for index, row in enumerate(actual["rows"]):
            for column, value in enumerate(row):
                if column in masked:
                    continue
                row[column] = _nudge(value)
                problems = diff_table(experiment_id, golden, actual)
                row[column] = value
                assert len(problems) == 1, (index, column, problems)
                name = golden["columns"][column]
                assert problems[0].startswith(
                    f"{experiment_id} row {index} column {name!r}: ")
                checked += 1
        assert checked and not diff_table(experiment_id, golden, actual)

    def test_one_ulp_float_is_reported_with_both_values(self):
        golden = {"title": "T", "columns": ["x"], "rows": [[0.1]],
                  "notes": []}
        actual = {**golden, "rows": [[math.nextafter(0.1, 1.0)]]}
        assert diff_table("t00", golden, actual) == [
            "t00 row 0 column 'x': golden 0.1, got 0.10000000000000002"]

    def test_any_matrix_value_nudged_fails(self):
        golden = GOLDEN["equivalence"]
        assert len(golden) == 17
        for name, cell in golden.items():
            for field in MATRIX_FIELDS:
                actual = {**golden, name: {**cell,
                                           field: _nudge(cell[field])}}
                problems = diff_matrix(golden, actual)
                assert len(problems) == 1, (name, field, problems)
                assert problems[0].startswith(
                    f"equivalence cell {name!r} {field}: golden ")

    def test_any_event_counter_nudged_fails(self):
        golden = GOLDEN["event_cells"]
        for name, cell in golden.items():
            for field in EVENT_FIELDS:
                actual = {**golden, name: {**cell,
                                           field: _nudge(cell[field])}}
                problems = diff_event_cells(golden, actual)
                assert len(problems) == 1, (name, field, problems)
                assert problems[0].startswith(
                    f"event cell {name!r} {field}: golden ")
