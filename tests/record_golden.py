"""Record the golden outputs that ``tests/test_golden.py`` gates on.

    PYTHONPATH=src python tests/record_golden.py
    PYTHONPATH=src python tests/record_golden.py --dump out.json

The first form rewrites ``tests/golden_outputs.json`` (``make golden``);
the second writes the same canonical form of the current tree to
``out.json`` and leaves the committed file alone (CI uploads it, so a
failing job can be diffed against the file or against another job).

The file pins three things:

* ``tables`` -- every quick table of the registry in its canonical
  ``Table.to_dict(json_safe=True)`` form.  The wall-clock columns
  named under ``volatile`` are masked.
* ``equivalence`` -- the four skews and the verdict of every cell of
  the cross-engine equivalence matrix (``run_equivalence()``).
* ``plan_hashes`` -- the ``spec_hash`` of every cell of every quick
  plan, seeds resolved as a sweep resolves them.

Re-record only in a change that means to move one of these outputs,
and give the reason in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_outputs.json")

#: Columns that hold wall-clock throughput: they differ between any
#: two runs of the same code, so the gate masks them.
VOLATILE = {"t17": ["rounds/s"], "t18": ["rounds/s"]}
MASK = "<volatile>"

#: The per-cell fields of the equivalence matrix the gate pins.
MATRIX_FIELDS = ("event_local", "event_global", "vec_local",
                 "vec_global", "passed")


def canonical_table(experiment_id: str, table, volatile: dict) -> dict:
    """``table`` as strict JSON data, volatile columns masked."""
    data = json.loads(json.dumps(table.to_dict(json_safe=True),
                                 allow_nan=False))
    for name in volatile.get(experiment_id, ()):
        index = data["columns"].index(name)
        for row in data["rows"]:
            row[index] = MASK
    return data


def canonical_matrix(report) -> dict:
    """Per equivalence cell name, the pinned fields of its result."""
    matrix = {result.cell.name: {field: getattr(result, field)
                                 for field in MATRIX_FIELDS}
              for result in report.results}
    if len(matrix) != len(report.results):
        raise ValueError("equivalence cell names are not unique")
    return matrix


def plan_hashes() -> dict:
    """Per experiment id, the spec hash of every quick-plan cell."""
    from repro.harness.registry import REGISTRY
    from repro.harness.sweep import resolve_cell_seeds, spec_hash

    hashes = {}
    for experiment in REGISTRY:
        seed = experiment.default_seed
        specs = experiment.plan(quick=True, seed=seed).specs
        hashes[experiment.id] = [
            spec_hash(spec) for spec in resolve_cell_seeds(specs, seed)]
    return hashes


def _same(a, b) -> bool:
    """Equal as canonical JSON: same type, and floats bit for bit."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    return a == b


def diff_table(experiment_id: str, golden: dict, actual: dict
               ) -> list[str]:
    """Every difference between two canonical tables, each naming the
    table, the row, the column and both values."""
    problems = []
    for key in ("title", "columns", "notes"):
        if golden[key] != actual[key]:
            problems.append(f"{experiment_id} {key}: golden "
                            f"{json.dumps(golden[key])}, got "
                            f"{json.dumps(actual[key])}")
    if len(golden["rows"]) != len(actual["rows"]):
        problems.append(f"{experiment_id}: golden has "
                        f"{len(golden['rows'])} rows, got "
                        f"{len(actual['rows'])}")
    columns = golden["columns"]
    for index, (want, got) in enumerate(zip(golden["rows"],
                                            actual["rows"])):
        for column, a, b in zip(columns, want, got):
            if not _same(a, b):
                problems.append(f"{experiment_id} row {index} column "
                                f"{column!r}: golden {json.dumps(a)}, got "
                                f"{json.dumps(b)}")
    return problems


def diff_matrix(golden: dict, actual: dict) -> list[str]:
    """Every difference between two canonical equivalence matrices."""
    problems = []
    if sorted(golden) != sorted(actual):
        problems.append(f"equivalence cells: golden {sorted(golden)}, "
                        f"got {sorted(actual)}")
    for name in sorted(set(golden) & set(actual)):
        for field in MATRIX_FIELDS:
            a, b = golden[name][field], actual[name][field]
            if not _same(a, b):
                problems.append(f"equivalence cell {name!r} {field}: "
                                f"golden {json.dumps(a)}, got {json.dumps(b)}")
    return problems


def record() -> dict:
    """Build every pinned output of the current tree."""
    from repro.engine_vec.equivalence import run_equivalence
    from repro.harness.registry import REGISTRY, run_experiment

    tables = {id: canonical_table(id, run_experiment(id, quick=True),
                                  VOLATILE)
              for id in REGISTRY.ids()}
    return {
        "volatile": VOLATILE,
        "tables": tables,
        "equivalence": canonical_matrix(run_equivalence()),
        "plan_hashes": plan_hashes(),
    }


def load(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dump", type=Path, metavar="PATH",
                        help="write the current outputs to PATH "
                             "instead of re-recording the golden file")
    args = parser.parse_args(argv)
    golden = record()
    path = args.dump or GOLDEN_PATH
    path.write_text(json.dumps(golden, indent=1, allow_nan=False) + "\n",
                    encoding="utf-8")
    cells = sum(len(t["rows"]) for t in golden["tables"].values())
    hashes = sum(len(h) for h in golden["plan_hashes"].values())
    print(f"wrote {path}: {len(golden['tables'])} tables "
          f"({cells} rows), {len(golden['equivalence'])} equivalence "
          f"cells, {hashes} plan hashes")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
