"""The experiment registry: one entry point for every table.

Each of the paper's experiments (T1–T12) and the follow-on
workloads (T13+) is registered as an
:class:`Experiment`: metadata (id, title, claim, table schema, default
seed) plus a *plan* function that compiles ``(quick, seed)`` into an
:class:`ExperimentPlan` — a declarative grid of picklable
:class:`~repro.harness.sweep.ScenarioSpec` cells and a pure ``finish``
step that folds the executed cells into a
:class:`~repro.harness.tables.Table`.

Execution is uniform: :func:`run_experiment` (or
:meth:`ExperimentRegistry.run`) builds the plan, fans the grid across
:class:`~repro.harness.sweep.SweepRunner` — worker-count resolution
goes through the shared
:func:`~repro.harness.sweep.default_processes` helper (explicit >
``REPRO_SWEEP_PROCESSES`` > serial) — and finishes the table.
Per-cell results are bit-identical for any worker count, so the table
never depends on the pool size.

>>> from repro.harness import run_experiment
>>> table = run_experiment("t05", quick=True, processes=4)
>>> print(table.format())                          # doctest: +SKIP
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.errors import ConfigError
from repro.harness.sweep import ScenarioSpec, SweepCellResult, SweepRunner
from repro.harness.tables import Table

#: ``finish(cells, table) -> table`` — folds executed cells into the
#: experiment's table (the table arrives pre-built from the metadata
#: schema; ``finish`` adds rows and notes).
FinishFn = Callable[[Sequence[SweepCellResult], Table], Table]


@dataclass(frozen=True)
class ExperimentPlan:
    """A compiled experiment: the cell grid and the analysis step."""

    specs: list[ScenarioSpec]
    finish: FinishFn


#: ``plan(quick, seed) -> ExperimentPlan``
PlanFn = Callable[[bool, int], ExperimentPlan]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: metadata plus its plan compiler."""

    id: str
    title: str
    claim: str
    columns: tuple[str, ...]
    plan: PlanFn
    default_seed: int = 0
    tags: tuple[str, ...] = field(default=())

    def make_table(self) -> Table:
        """An empty table with this experiment's schema."""
        return Table(title=self.title, columns=list(self.columns))


class ExperimentRegistry:
    """Id-addressable experiments with one uniform run path."""

    def __init__(self) -> None:
        self._experiments: dict[str, Experiment] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def add(self, experiment: Experiment) -> None:
        if experiment.id in self._experiments:
            raise ConfigError(
                f"experiment {experiment.id!r} already registered")
        if not experiment.id or not experiment.title \
                or not experiment.claim or not experiment.columns:
            raise ConfigError(
                f"experiment {experiment.id!r} needs id, title, claim, "
                f"and columns")
        self._experiments[experiment.id] = experiment

    def experiment(self, id: str, *, title: str, claim: str,
                   columns: Sequence[str], default_seed: int = 0,
                   tags: Sequence[str] = ()) -> Callable[[PlanFn], PlanFn]:
        """Decorator: register ``plan(quick, seed)`` under ``id``."""

        def decorate(plan: PlanFn) -> PlanFn:
            self.add(Experiment(
                id=id, title=title, claim=claim, columns=tuple(columns),
                plan=plan, default_seed=default_seed, tags=tuple(tags)))
            return plan

        return decorate

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def _loaded(self) -> dict[str, Experiment]:
        _load_builtin_experiments()
        return self._experiments

    def get(self, id: str) -> Experiment:
        experiments = self._loaded()
        experiment = experiments.get(id)
        if experiment is None:
            raise ConfigError(
                f"unknown experiment {id!r}; known: "
                f"{', '.join(sorted(experiments))}")
        return experiment

    def ids(self) -> list[str]:
        return sorted(self._loaded())

    def __iter__(self) -> Iterator[Experiment]:
        experiments = self._loaded()
        return iter(experiments[id] for id in sorted(experiments))

    def __contains__(self, id: str) -> bool:
        return id in self._loaded()

    def __len__(self) -> int:
        return len(self._loaded())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, id: str, *, quick: bool = True,
            processes: int | None = None,
            seed: int | None = None,
            engine: str | None = None) -> Table:
        """Plan, sweep, and finish one experiment's table.

        ``processes`` resolves through
        :func:`~repro.harness.sweep.default_processes` (explicit >
        ``REPRO_SWEEP_PROCESSES`` > serial); the output is identical
        for any worker count.  ``seed`` defaults to the experiment's
        registered seed — the one the published tables use.
        ``engine`` overrides the execution backend of every *protocol*
        cell in the plan (non-protocol kinds — ``failure_mc`` etc. —
        are left alone); the named protocols must all support it, or
        the sweep fails eagerly in the builder.
        """
        experiment = self.get(id)
        if seed is None:
            seed = experiment.default_seed
        plan = experiment.plan(quick=quick, seed=seed)
        specs = plan.specs
        if engine is not None:
            from dataclasses import replace

            from repro.core.protocol import ENGINES
            from repro.harness.sweep import cell_protocol
            if engine not in ENGINES:
                raise ConfigError(f"unknown engine {engine!r}; known: "
                                  f"{list(ENGINES)}")
            specs = [replace(spec, engine=engine)
                     if cell_protocol(spec) is not None else spec
                     for spec in specs]
        cells = SweepRunner(processes).run(specs, base_seed=seed)
        return plan.finish(cells, experiment.make_table())


#: The process-wide registry holding T1–T18 (and any extensions).
REGISTRY = ExperimentRegistry()

_builtin_loaded = False


def _load_builtin_experiments() -> None:
    """Populate :data:`REGISTRY` with the built-in suite on first use.

    Importing :mod:`repro.harness.experiments` runs the registration
    decorators; deferring it keeps ``registry`` importable from the
    experiment definitions themselves without a cycle.
    """
    global _builtin_loaded
    if _builtin_loaded:
        return
    import repro.harness.experiments  # noqa: F401  (registers T1-T18)

    # Only after the import succeeds: a partial failure must re-raise
    # on the next call, not leave a silently truncated registry.
    _builtin_loaded = True


def run_experiment(id: str, *, quick: bool = True,
                   processes: int | None = None,
                   seed: int | None = None,
                   engine: str | None = None) -> Table:
    """Run one registered experiment (see :meth:`ExperimentRegistry.run`)."""
    return REGISTRY.run(id, quick=quick, processes=processes, seed=seed,
                        engine=engine)


__all__ = [
    "Experiment",
    "ExperimentPlan",
    "ExperimentRegistry",
    "REGISTRY",
    "run_experiment",
]
