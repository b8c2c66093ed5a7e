"""Record the golden outputs that ``tests/test_golden.py`` gates on.

    PYTHONPATH=src python tests/record_golden.py
    PYTHONPATH=src python tests/record_golden.py --dump out.json

The first form rewrites ``tests/golden_outputs.json`` (``make golden``);
the second writes the same canonical form of the current tree to
``out.json`` and leaves the committed file alone (CI uploads it, so a
failing job can be diffed against the file or against another job).

The file pins five things:

* ``tables`` -- every quick table of the registry in its canonical
  ``Table.to_dict(json_safe=True)`` form.  The wall-clock columns
  named under ``volatile`` are masked.
* ``equivalence`` -- the four skews and the verdict of every cell of
  the cross-engine equivalence matrix (``run_equivalence()``).
* ``plan_hashes`` -- the ``spec_hash`` of every cell of every quick
  plan, seeds resolved as a sweep resolves them.
* ``event_cells`` -- the event kernel's counters, the two skew
  maxima and the ``result_hash`` of a few small event-engine cells
  (``event_cell_specs()``): one per protocol, master-slave once more
  with its series and edge maxima recorded, plus the MAX channel
  under an equivocator and loss with node churn.  The tables pin
  skews but no kernel counter, so a change in how wake-ups are armed
  would otherwise pass.  ``result_hash`` is the
  ``serialize.content_hash`` of the whole ``ProtocolRunResult`` (the
  hash perfbench fingerprints), so it also pins each series, detail,
  edge maxima and stabilization time.  No float sums: builtin ``sum``
  over floats rounds differently from Python 3.12 on.
* ``vec_cells`` -- the same values of a few small vectorized-engine
  cells (``vec_cell_specs()``): each round model once, and the
  adaptive adversaries, whose lookahead runs the round's reductions
  once per candidate, on both graph models and the clique.  The
  graph cells run on a caterpillar, whose hubs have degree 6-7 and
  whose leaves degree 1.  The tables and the matrix pin only the
  maxima of vectorized runs; ``result_hash`` also pins every round
  of each series and the adversary's counters.

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

#: The ``ProtocolRunResult`` fields of each event cell the gate pins.
EVENT_FIELDS = ("events_processed", "messages_sent", "messages_dropped",
                "messages_lost", "max_local_skew", "max_global_skew")

#: Every pinned value of an event cell: the content hash of its whole
#: result, then the fields above.
EVENT_PINS = ("result_hash",) + EVENT_FIELDS


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


def event_cell_specs() -> dict:
    """Per name, one small event-engine cell: one per protocol (and
    master-slave again with its series and edge maxima recorded), then
    the two shapes the benchmark times (``perfbench/workloads.py``):
    FTGCS with the MAX channel under an equivocator, and FTGCS on a
    lossy wire with node churn."""
    from repro import Scenario
    from repro.baselines.gcs_single import GcsParams
    from repro.baselines.srikanth_toueg import StParams
    from repro.harness.experiments import (
        default_params,
        fast_dynamics_params,
    )

    ft = fast_dynamics_params(f=1)
    gcs = GcsParams.default(rho=1e-2, d=1.0, u=0.05, mu=0.05, period=2.0)
    st = StParams(n=4, f=1, rho=1e-4, d=1.0, u=0.05, period=10.0)
    offsets = [0.8 * ft.kappa, -0.5 * ft.kappa, 0.1 * ft.kappa,
               -0.9 * ft.kappa, 0.4 * ft.kappa]
    cells = {
        "ftgcs": Scenario.line(4).params(ft).rounds(6).seed(1),
        "gcs_single": (Scenario.line(4).protocol("gcs_single")
                       .payload(params=gcs, until=200.0).seed(2)),
        "master_slave": (Scenario.line(4).protocol("master_slave")
                         .params(ft).rounds(6).seed(3)),
        "master_slave_series": (Scenario.line(4).protocol("master_slave")
                                .params(ft).rounds(6).seed(3)
                                .payload(record_series=True,
                                         track_edges=True)),
        "srikanth_toueg": (Scenario.of_protocol("srikanth_toueg")
                           .payload(params=st, silent_faults=1,
                                    rounds=10).seed(4)),
        "lynch_welch": (Scenario.of_protocol("lynch_welch")
                        .params(default_params(rho=1e-4, d=1.0, u=0.05,
                                               f=1))
                        .rounds(10).adversarial("equivocate").seed(5)),
        "ftgcs_max_equivocate": (
            Scenario.line(5).params(ft).rounds(6).seed(6)
            .adversarial("equivocate")
            .configure(cluster_offsets=offsets, policy="max_rule",
                       enable_max_estimate=True)),
        "ftgcs_loss_churn": (
            Scenario.line(4).params(ft).rounds(8).seed(7)
            .lossy(kind="bernoulli", rate=0.2)
            .churn_nodes(interval=2.0 * ft.round_length, crash=0.25,
                         rejoin=0.8)),
    }
    return {name: scenario.tag("golden", name).build()
            for name, scenario in cells.items()}


def vec_cell_specs() -> dict:
    """Per name, one small vectorized-engine cell: ``gcs_single`` and
    the ``ftgcs`` skeleton on ``caterpillar(8, 6)``, each once more
    under an adaptive adversary (``random_restart`` and ``greedy``),
    ``srikanth_toueg`` under ``random_restart``, and ``lynch_welch``.
    Parameters and amplitudes are t18's."""
    from repro import Scenario
    from repro.baselines.gcs_single import GcsParams
    from repro.baselines.srikanth_toueg import StParams
    from repro.harness.experiments import (
        default_params,
        fast_dynamics_params,
    )

    ft = fast_dynamics_params(f=1)
    gcs = GcsParams(rho=1e-3, d=1.0, u=0.01, mu=0.01, period=10.0,
                    kappa=0.3, slack=0.1)
    st = StParams(n=8, f=2, rho=1e-3, d=1.0, u=0.01, period=10.0)
    caterpillar = Scenario.on("caterpillar", 8, 6)
    gcs_cell = caterpillar.protocol("gcs_single").payload(
        params=gcs, until=60 * gcs.period)
    # Neighbours up to 3 kappa apart, so the fast trigger fires from
    # the first round on.
    offsets = [((5 * i) % 11 - 5) * 0.3 * ft.kappa for i in range(48)]
    ft_cell = (caterpillar.params(ft).rounds(20)
               .configure(cluster_offsets=offsets))
    cells = {
        "gcs_single": gcs_cell.seed(11),
        "ftgcs": ft_cell.seed(12),
        "gcs_single_random_restart": (
            gcs_cell.adversarial("random_restart",
                                 amplitude=4.0 * gcs.kappa).seed(13)),
        "ftgcs_greedy": (
            ft_cell.adversarial("greedy", amplitude=2.5 * ft.kappa)
            .seed(14)),
        "srikanth_toueg_random_restart": (
            Scenario.of_protocol("srikanth_toueg")
            .payload(params=st, rounds=10)
            .adversarial("random_restart", amplitude=st.d).seed(15)),
        "lynch_welch": (Scenario.of_protocol("lynch_welch")
                        .params(default_params(rho=1e-4, d=1.0, u=0.05,
                                               f=1))
                        .rounds(10).seed(16)),
    }
    return {name: scenario.engine("vectorized").tag("golden", name)
            .build() for name, scenario in cells.items()}


def cell_pins(specs: dict) -> dict:
    """Per named cell, the pinned values of its run."""
    from repro.harness.serialize import content_hash
    from repro.harness.sweep import run_cell

    cells = {}
    for name, spec in specs.items():
        result = run_cell(spec).result
        cells[name] = {"result_hash": content_hash(result),
                       **{field: getattr(result, field)
                          for field in EVENT_FIELDS}}
    return cells


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


def diff_event_cells(golden: dict, actual: dict,
                     label: str = "event cell") -> list[str]:
    """Every difference between two sets of pinned cell values, each
    naming the cell as ``label``."""
    problems = []
    if sorted(golden) != sorted(actual):
        problems.append(f"{label}s: golden {sorted(golden)}, "
                        f"got {sorted(actual)}")
    for name in sorted(set(golden) & set(actual)):
        for field in EVENT_PINS:
            a, b = golden[name][field], actual[name][field]
            if not _same(a, b):
                problems.append(f"{label} {name!r} {field}: "
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
        "event_cells": cell_pins(event_cell_specs()),
        "vec_cells": cell_pins(vec_cell_specs()),
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
          f"cells, {hashes} plan hashes, {len(golden['event_cells'])} "
          f"event cells, {len(golden['vec_cells'])} vectorized cells")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
