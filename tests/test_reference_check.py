"""The comparison step of ``benchmarks/reference_check.py`` (``make
bench-reference``), fed synthetic fingerprints."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                       / "benchmarks"))

from reference_check import compare  # noqa: E402

REFERENCE = {"h1": "f1", "h2": "f2", "h3": "f3"}


def test_every_variant_matching_gives_no_line():
    observed = [("a", 0, "h1", "f1"), ("a", 1, "h2", "f2"),
                ("b", 0, "h3", "f3")]
    assert compare(REFERENCE, observed) == []


def test_a_different_fingerprint_names_slot_and_variant():
    observed = [("a", 0, "h1", "f1"), ("a", 1, "h2", "fX")]
    assert compare(REFERENCE, observed) == [
        "a variant 1: fingerprint fX != recorded f2"]


def test_a_spec_without_a_recorded_fingerprint_is_a_mismatch():
    assert compare(REFERENCE, [("c", 3, "h9", "f9")]) == [
        "c variant 3: no recorded fingerprint for spec h9"]


def test_a_cell_that_raised_is_a_mismatch():
    assert compare(REFERENCE, [("a", 2, "h1", None)]) == [
        "a variant 2: raised"]


def test_reference_entries_no_variant_reaches_are_not_mismatches():
    # The reference may hold more specs than one workload's variants.
    assert compare(REFERENCE, [("b", 0, "h3", "f3")]) == []
