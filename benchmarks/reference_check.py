"""Check every benchmark variant against its recorded fingerprint.

    python3 benchmarks/reference_check.py [workload ...]

or ``make bench-reference [WORKLOAD=<w>]``.  Runs every variant of
every slot of each named workload (all three by default; ``catalogue``
in ``perfbench/workloads.py``) serially through ``run_cell`` and
compares each cell's fingerprint (``perfbench/checks.py``) with the one
``perfbench/reference.json`` holds for its spec hash.  A benchmark run
checks only the variant its seed picks; this checks all of them, so a
change that means to move no output can show so for the whole
catalogue in one command, without re-recording the reference.

It writes nothing.  It prints each variant that raised, has no
recorded fingerprint or has a different one, then one count per
workload, and exits non-zero on any such variant.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def compare(reference: dict[str, str],
            observed: list[tuple[str, int, str, str | None]]
            ) -> list[str]:
    """One line per variant that does not match: ``observed`` holds
    ``(slot, variant, spec hash, fingerprint)``, the fingerprint
    ``None`` for a cell that raised, and ``reference`` maps spec hashes
    to fingerprints."""
    lines = []
    for slot, variant, key, got in observed:
        want = reference.get(key)
        if got is None:
            lines.append(f"{slot} variant {variant}: raised")
        elif want is None:
            lines.append(f"{slot} variant {variant}: no recorded "
                         f"fingerprint for spec {key}")
        elif got != want:
            lines.append(f"{slot} variant {variant}: fingerprint {got} "
                         f"!= recorded {want}")
    return lines


def run_workload(workload: str) -> list[tuple[str, int, str, str | None]]:
    """``(slot, variant, spec hash, fingerprint)`` of every cell of the
    workload's catalogue, in its order; a cell that raises prints its
    error and has no fingerprint."""
    from checks import fingerprint
    from repro.harness.sweep import run_cell, spec_hash
    from workloads import catalogue

    variants: Counter = Counter()
    observed = []
    for cell in catalogue(workload):
        variant = variants[cell.slot]
        variants[cell.slot] += 1
        try:
            got = fingerprint(run_cell(cell.spec))
        except Exception as exc:  # reported and counted, not hidden
            print(f"{workload}/{cell.slot} variant {variant}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            got = None
        observed.append((cell.slot, variant, spec_hash(cell.spec), got))
    return observed


def main(argv: list[str]) -> int:
    from checks import load_reference
    from workloads import WORKLOADS

    chosen = argv or list(WORKLOADS)
    unknown = [name for name in chosen if name not in WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {unknown}; known: {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    failed = 0
    for workload in chosen:
        observed = run_workload(workload)
        lines = compare(load_reference(workload), observed)
        for line in lines:
            print(f"{workload}/{line}")
        print(f"{workload}: {len(observed) - len(lines)} of "
              f"{len(observed)} variants match reference.json")
        failed += len(lines)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.exit(main(sys.argv[1:]))
