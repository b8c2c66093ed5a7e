"""The A/B-pair summary of ``benchmarks/ab_pairs.py`` (``make
bench-ab``), fed synthetic runs."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                       / "benchmarks"))

from ab_pairs import (  # noqa: E402
    claim_met,
    layer_report_lines,
    report_lines,
    summarize,
    summarize_layers,
)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
WORK = {"name": "work_per_s", "unit": "1/s", "better": "higher",
        "bound": 0.25}


def runs_of(pairs, name="wall_s"):
    """Run records, as the script writes them, for ``(base, change)``
    values of one metric; the side going first alternates."""
    runs = []
    for pair, (base, change) in enumerate(pairs):
        for side, value in (("base", base), ("change", change)):
            runs.append({"pair": pair, "side": side, "result": {
                "correct": True,
                "metrics": {name: {"value": value, "unit": "s"}}}})
    return runs


BASE = [3.60, 3.62, 3.64, 3.66, 3.68, 3.70, 3.72, 3.74, 3.76, 3.78]


def test_nine_of_ten_wins_beyond_the_iqr_is_met():
    change = [2.9] * 9 + [3.9]
    (row,) = summarize([WALL], runs_of(zip(BASE, change)))
    assert row["wins"] == 9 and row["pairs"] == 10
    assert row["base_median"] == pytest.approx(3.69)
    assert row["base_q3"] - row["base_q1"] < 3.69 - 2.9
    assert claim_met(row)
    assert row["verdict"] == "ok"
    assert "claim wall_s: met" in report_lines([row], "wall_s")[-1]


def test_eight_of_ten_wins_is_not_met():
    change = [2.9] * 8 + [3.9, 3.9]
    (row,) = summarize([WALL], runs_of(zip(BASE, change)))
    assert row["wins"] == 8
    assert not claim_met(row)
    assert "claim wall_s: NOT met" in report_lines([row], "wall_s")[-1]


def test_wins_within_the_iqr_are_not_met():
    change = [value - 0.01 for value in BASE]
    (row,) = summarize([WALL], runs_of(zip(BASE, change)))
    assert row["wins"] == 10
    assert not claim_met(row)


def test_bound_breach_is_flagged():
    change = [value * 1.3 for value in BASE]
    (row,) = summarize([WALL], runs_of(zip(BASE, change)))
    assert row["verdict"] == "WORSE"
    assert row["worsening"] == pytest.approx(0.3)
    assert "WORSE" in report_lines([row], None)[1]


def test_higher_is_better_metrics_compare_the_other_way():
    base = [34.5e3 + 100 * i for i in range(10)]
    better = summarize([WORK], runs_of(
        [(b, 1.26 * b) for b in base], "work_per_s"))[0]
    assert better["wins"] == 10 and claim_met(better)
    worse = summarize([WORK], runs_of(
        [(b, 0.7 * b) for b in base], "work_per_s"))[0]
    assert worse["verdict"] == "WORSE" and not claim_met(worse)


def test_spread_wider_than_the_bound_is_unresolved():
    base = [1.0, 1.0, 1.5, 1.5, 2.0, 2.0, 1.0, 1.5, 2.0, 1.5]
    (row,) = summarize([WALL], runs_of(zip(base, base)))
    assert row["spread"] > WALL["bound"]
    assert row["verdict"] == "unresolved"


def test_pairs_missing_a_side_are_left_out():
    runs = runs_of(zip(BASE, [2.9] * 10))
    runs[-1]["result"] = None
    (row,) = summarize([WALL], runs)
    assert row["pairs"] == 9
    for run in runs[2:]:
        run["result"] = None
    assert summarize([WALL], runs) == []


ENCODE = {"name": "service.encode_s", "unit": "s", "better": "lower"}
BYTES = {"name": "service.bytes_written", "unit": "bytes",
         "better": "lower"}


def traced_runs(pairs):
    """Traced run records for ``(base, change)`` dicts of per-layer
    values."""
    return [{"pair": pair, "side": side, "result": {
                "correct": True,
                "metrics": {name: {"value": value, "unit": "s"}
                            for name, value in values.items()}}}
            for pair, sides in enumerate(pairs)
            for side, values in zip(("base", "change"), sides)]


def test_layer_summary_gives_medians_and_their_ratio():
    runs = traced_runs([
        ({"service.encode_s": 0.44, "service.bytes_written": 10.0},
         {"service.encode_s": 0.13, "service.bytes_written": 10.0}),
        ({"service.encode_s": 0.46, "service.bytes_written": 12.0},
         {"service.encode_s": 0.11, "service.bytes_written": 12.0}),
        ({"service.encode_s": 0.40, "service.bytes_written": 11.0},
         {"service.encode_s": 0.12, "service.bytes_written": 11.0}),
    ])
    encode, written = summarize_layers([ENCODE, BYTES], runs)
    assert encode["base_median"] == 0.44
    assert encode["change_median"] == 0.12
    assert encode["ratio"] == pytest.approx(0.12 / 0.44)
    assert encode["pairs"] == 3
    assert written["ratio"] == 1.0 and written["unit"] == "bytes"
    lines = layer_report_lines([encode, written])
    assert lines[1].split() == ["service.encode_s", "0.44", "0.12",
                                "0.273", "s"]


def test_layer_summary_skips_incomplete_pairs_and_zero_bases():
    runs = traced_runs([({"service.encode_s": 0.0},
                         {"service.encode_s": 0.0}),
                        ({"service.encode_s": 0.5},
                         {"service.encode_s": 0.1})])
    runs[3]["result"] = None
    (row,) = summarize_layers([ENCODE], runs)
    assert row["pairs"] == 1 and math.isnan(row["ratio"])
    runs[1]["result"] = None
    assert summarize_layers([ENCODE], runs) == []
