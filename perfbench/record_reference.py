"""Record the output fingerprints every benchmark run is checked against.

Runs every variant of every slot of every workload (``workloads.py``)
serially through ``run_cell`` and writes ``reference.json``: per
workload, ``spec_hash`` -> fingerprint of the cell result
(``checks.fingerprint``).  Re-record only when a change is meant to
alter simulation output::

    python3 perfbench/record_reference.py [workload ...]
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

from checks import REFERENCE_PATH, fingerprint  # noqa: E402
from repro.harness.sweep import run_cell, spec_hash  # noqa: E402
from workloads import WORKLOADS, catalogue  # noqa: E402


def source_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: list[str]) -> int:
    chosen = argv or list(WORKLOADS)
    if REFERENCE_PATH.exists():
        reference = json.loads(REFERENCE_PATH.read_text())
    else:
        reference = {"workloads": {}}
    for workload in chosen:
        table = {}
        for cell in catalogue(workload):
            table[spec_hash(cell.spec)] = fingerprint(run_cell(cell.spec))
        reference["workloads"][workload] = dict(sorted(table.items()))
        print(f"{workload}: {len(table)} cells", file=sys.stderr)
    reference["recorded_at"] = source_commit()
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1,
                                         sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
