"""Parallel scenario sweeps over grids of simulation cells.

Every table in the reproduction is a sweep: a grid of (topology,
parameters, fault placement, seed) cells, each an independent
deterministic simulation.  This module makes those sweeps
embarrassingly parallel without giving up determinism.

Design: picklable specs, not live objects
-----------------------------------------
A :class:`ScenarioSpec` describes one cell entirely by *value* — a
cell *kind* (see below), the cluster-graph constructor name and its
arguments, the :class:`~repro.core.params.Parameters`, plain
:class:`~repro.core.system.SystemConfig` keyword arguments, an
adversary *registry name* plus its keyword knobs, and a seed.  No
simulator, node, lambda, or adversary instance crosses the process
boundary; the worker (:func:`run_cell`) rebuilds the whole system from
the spec, runs it, and returns only picklable measurements
(:class:`SweepCellResult`).  This is what lets one code path serve
both the in-process serial fallback and a ``multiprocessing`` pool.

Cell kinds
----------
``spec.kind`` names the worker routine in :data:`CELL_KINDS`:

``"protocol"`` (default)
    A full synchronization run through the unified
    :class:`~repro.core.protocol.SystemBuilder` path: ``spec.protocol``
    names any registered :class:`~repro.core.protocol.SyncProtocol`
    (``ftgcs`` — the default — ``lynch_welch``, ``master_slave``,
    ``gcs_single``, ``srikanth_toueg``, or a custom registration), and
    ``spec.schedule``/``spec.schedule_args`` optionally select a
    :data:`~repro.topology.schedule.SCHEDULES` topology schedule for
    dynamic-network runs.  ``result`` is always a
    :class:`~repro.core.protocol.ProtocolRunResult` (the protocol's
    native result rides in ``.detail``).
``"failure_mc"``
    A Monte Carlo estimate of the cluster failure probability
    (Inequality (1)); ``result`` is the estimated probability.
``"trigger_fuzz"``
    The randomized Lemma 4.8 faithfulness check on perturbed trigger
    inputs; ``result`` is the violation count.
``"augment_counts"``
    Pure graph accounting: node/edge counts of the augmentation across
    fault budgets; no simulation at all.

Kind-specific knobs travel in ``spec.payload`` (a picklable dict);
:func:`register_cell_kind` adds custom kinds.  Custom kinds registered
outside this module are visible to pool workers only under the
``fork`` start method (the default used here when available).

In-worker collectors
--------------------
Post-hoc analysis accessors of a live system (pulse diameters, mode
unanimity, amortized round rates) cannot cross the process boundary,
so ``spec.collect`` names :data:`COLLECTORS` entries that run *inside*
the worker and return picklable data in ``SweepCellResult.extras``.

Seeding scheme
--------------
Cells with an explicit ``seed`` use it verbatim.  Cells with
``seed=None`` get a per-cell seed derived as
``derive_seed(base_seed, f"cell/{index}")`` — a BLAKE2b hash that is
stable across Python versions, processes, and the serial/parallel
split, and independent of how many other cells run.  Identical grids
therefore produce *bit-identical* per-cell results whether executed
serially, in a pool of any size, or cell-by-cell in isolation.

Cells that must share one serial RNG *stream* (the T5 Monte Carlo
reproduces a single ``random.Random(seed)`` consumed across the whole
grid) carry a ``skip`` payload entry: the worker fast-forwards a fresh
generator by that many draws, which is exact because every trial
consumes a statically known number of draws.

Result collection is ordered: ``results[i]`` always corresponds to
``specs[i]`` regardless of which worker finished first.  A raising
cell propagates its exception to the caller in both modes.
"""

from __future__ import annotations

import inspect
import math
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Sequence

from repro.core.params import Parameters
from repro.core.protocol import (
    ENGINES,
    ProtocolRunResult,
    SystemBuilder,
    check_composition,
    get_protocol,
    protocol_names,
)
from repro.core.system import FtgcsSystem, RunResult
from repro.core.triggers import evaluate
from repro.errors import ConfigError, TopologyError
from repro.harness import serialize
from repro.harness.runner import steady_state_skews
from repro.sim.rng import derive_seed
from repro.topology.cluster_graph import ClusterGraph
from repro.topology.schedule import (
    SCHEDULES,
    TopologySchedule,
    build_schedule,
)

#: What replaces the retired ``strategy``/``strategy_args`` pair.
_ADVERSARY = ("adversary={'name': <model>, <knob>: <value>} with the "
              "model's keyword knob: crash_time, pulses_per_round, "
              "speed_factor or amplitude")


@dataclass(frozen=True)
class ScenarioSpec:
    """One sweep cell, described entirely by picklable values.

    Attributes
    ----------
    graph:
        Name of a :class:`~repro.topology.cluster_graph.ClusterGraph`
        classmethod constructor (``"line"``, ``"ring"``, ``"grid"``,
        ``"torus"``, ``"balanced_tree"``, ``"hypercube"``).  Kinds
        without a topology (``"failure_mc"``, ``"trigger_fuzz"``)
        leave it empty.
    graph_args:
        Positional arguments for that constructor.
    params:
        The full parameter set (dataclass; pickles by value).
    rounds:
        Rounds to run (see ``FtgcsSystem.run_rounds``).
    seed:
        Explicit master seed, or ``None`` to derive one per cell from
        the sweep's ``base_seed`` (see module docstring).
    config:
        Keyword arguments for
        :class:`~repro.core.system.SystemConfig`; values must be
        picklable (no adversary instances — use ``adversary``).
    key:
        Free-form cell coordinates (e.g. ``("D", 8)``), carried through
        to the result for labeling.
    kind:
        Worker routine name in :data:`CELL_KINDS` (module docstring).
    protocol:
        For ``"protocol"`` cells: the registered
        :class:`~repro.core.protocol.SyncProtocol` name (``None``
        means ``"ftgcs"``).
    schedule / schedule_args:
        For ``"protocol"`` cells: a
        :data:`~repro.topology.schedule.SCHEDULES` name plus factory
        kwargs, turning the (static) ``graph`` into a time-varying
        topology.  ``"static"`` (the default) is the trivial schedule.
    first_contact:
        For ``"protocol"`` cells: enable first-contact estimator
        bring-up (``SystemBuilder.first_contact``); the protocol must
        declare ``supports_first_contact``.
    loss:
        For ``"protocol"`` cells: a message-loss spec
        (``{"kind": "bernoulli"|"burst", ...}``, see
        :func:`repro.net.loss.build_loss_model`) attached to the
        network via ``SystemBuilder.lossy``.  Empty dict: no loss
        model at all (bit-identical to the historical path).
    engine:
        For ``"protocol"`` cells: the execution backend
        (:data:`repro.core.protocol.ENGINES` — ``"event"``, the
        default, or ``"vectorized"`` for protocols with a
        struct-of-arrays round model).  Part of the spec content, so
        the service's content-addressed result cache keys the two
        engines' results separately.
    timing:
        For ``"protocol"`` cells: also measure the run's wall-clock
        time in-worker; lands in ``extras["timing"]`` as
        ``{"wall_seconds": ...}`` (plus ``rounds_per_second`` when the
        result reports its round count).  Opt-in because wall-clock
        readings are *not* deterministic — determinism checks must
        ignore them (the simulation results themselves stay
        bit-reproducible).
    payload:
        Kind- or protocol-specific picklable knobs (e.g. the
        master-slave ``jump`` flag, the Monte Carlo
        ``trials``/``skip``).
    collect:
        Names of :data:`COLLECTORS` to run in-worker against the live
        system; results land in ``SweepCellResult.extras`` (and
        ``SweepCellResult.pulse_diameters``).
    adversary:
        Adversary spec ``{"name": ..., **knobs}`` (see
        :mod:`repro.faults.adversary`), empty for none; its ``count``
        knob is how many nodes it controls (per cluster on FTGCS).
    """

    graph: str = ""
    graph_args: tuple = ()
    params: Parameters | None = None
    rounds: int = 1
    seed: int | None = None
    config: dict = field(default_factory=dict)
    key: tuple = ()
    kind: str = "protocol"
    protocol: str | None = None
    schedule: str = "static"
    schedule_args: dict = field(default_factory=dict)
    first_contact: bool = False
    loss: dict = field(default_factory=dict)
    engine: str = "event"
    timing: bool = False
    payload: dict = field(default_factory=dict)
    collect: tuple = ()
    adversary: dict = field(default_factory=dict)

    #: Spec fields that are tuples in the dataclass but commonly arrive
    #: as lists from hand-authored JSON/YAML (scenario library files,
    #: ``POST /jobs`` bodies); :meth:`from_dict` coerces them.
    _TUPLE_FIELDS = ("graph_args", "key", "collect")
    #: Fields the canonical codec omits when falsy, so specs that never
    #: used them keep their historical encodings (and ``spec_hash``)
    #: bit-identical across the field's introduction.
    _SERIALIZE_OMIT_EMPTY = ("adversary",)
    #: Retired fields: name -> (the value every spec encoded for it,
    #: its replacement).  The codec still writes each at that value, so
    #: specs that never set one keep their hashes, and decoding accepts
    #: it only there (:func:`~repro.harness.serialize.drop_retired`).
    _SERIALIZE_RETIRED = dict(
        strategy=(None, _ADVERSARY), strategy_args=((), _ADVERSARY),
        faults_per_cluster=(None, "the adversary's count= knob"),
        collect_pulse_diameters=(False, "collect=['pulse_diameters']"))

    def to_dict(self) -> dict:
        """JSON-safe plain-data form of the spec.

        Every field is encoded with the canonical tagged codec of
        :mod:`repro.harness.serialize` (tuples, dataclass parameter
        sets, and non-finite floats all survive), so the result can go
        through ``json.dumps``/``json.loads`` and :meth:`from_dict`
        and come back *bit-identical* — the round trip the simulation
        service relies on.
        """
        return {f.name: serialize.encode(getattr(self, f.name))
                for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (or hand-written
        plain data: list-valued tuple fields are coerced, unknown keys
        rejected by name, retired keys accepted only at their retired
        values)."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"ScenarioSpec.from_dict needs a dict: {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known - set(cls._SERIALIZE_RETIRED))
        if unknown:
            raise ConfigError(
                f"unknown ScenarioSpec field(s) {unknown}; known: "
                f"{sorted(known)}")
        decoded = serialize.drop_retired(
            cls, {key: serialize.decode(value)
                  for key, value in data.items()})
        for name in cls._TUPLE_FIELDS:
            value = decoded.get(name)
            if isinstance(value, list):
                decoded[name] = tuple(value)
        params = decoded.get("params")
        if params is not None and not isinstance(params, Parameters):
            raise ConfigError(
                f"spec params must decode to Parameters, got "
                f"{type(params).__name__}")
        return cls(**decoded)


def spec_hash(spec: ScenarioSpec) -> str:
    """Canonical BLAKE2b content hash of a spec — the result-cache key.

    Computed over the canonical JSON of the *whole* spec (sorted keys,
    tagged values), so it is stable across processes and Python
    versions, and any field change — including the resolved seed —
    changes the key.  Specs must have a resolved (non-``None``) seed:
    an unresolved spec does not name one deterministic simulation, so
    hashing it would alias distinct cells.
    """
    if spec.seed is None:
        raise ConfigError(
            "spec_hash needs a resolved seed (use resolve_cell_seeds "
            "or SweepRunner.run's derivation first)")
    return serialize.content_hash(spec)


def resolve_cell_seeds(specs: Sequence[ScenarioSpec],
                       base_seed: int = 0) -> list[ScenarioSpec]:
    """Resolve ``seed=None`` cells to their deterministic per-cell
    seeds — exactly the derivation :meth:`SweepRunner.run` applies
    before dispatch (``derive_seed(base_seed, f"cell/{index}")``).

    Exposed so cache layers can compute content hashes for a grid
    *without* running it and be certain the hashes match what an
    actual sweep of the same grid would produce.
    """
    return [
        spec if spec.seed is not None else replace(
            spec, seed=derive_seed(base_seed, f"cell/{index}"))
        for index, spec in enumerate(specs)]


@dataclass
class SweepCellResult:
    """Measurements of one executed cell (picklable).

    ``result`` holds the kind's primary measurement — a
    :class:`~repro.core.protocol.ProtocolRunResult` for ``"protocol"``
    cells, the kind-specific value otherwise (module docstring).
    ``extras`` maps collector names to their in-worker measurements.
    """

    key: tuple
    seed: int
    result: Any
    pulse_diameters: dict[tuple[int, int], float] | None = None
    extras: dict[str, Any] = field(default_factory=dict)

    def steady_state_skews(self, tail_fraction: float = 0.5
                           ) -> dict[str, float]:
        """Max skews over the last ``tail_fraction`` of samples.

        Only meaningful for FTGCS-family cells, whose series is a
        :class:`~repro.analysis.metrics.SkewSnapshot` list (carried by
        a :class:`~repro.core.protocol.ProtocolRunResult` whose
        ``detail`` is a :class:`~repro.core.system.RunResult`).
        """
        result = self.result
        if isinstance(result, ProtocolRunResult):
            result = result.detail
        if not isinstance(result, RunResult):
            raise ConfigError(
                f"cell {self.key!r} is not an FTGCS-family run; "
                f"steady_state_skews needs a RunResult")
        return steady_state_skews(result.series, tail_fraction)


# Both sides of the service boundary: specs travel in job submissions,
# cell results in the content-addressed store.
serialize.register_serializable(ScenarioSpec)
serialize.register_serializable(SweepCellResult)


# ----------------------------------------------------------------------
# In-worker collectors (ftgcs cells)
# ----------------------------------------------------------------------

def _collect_pulse_diameters(system: FtgcsSystem):
    return system.pulse_diameter_table()


def _collect_unanimity(system: FtgcsSystem):
    """Per-cluster, per-round (unanimous, gamma) of correct members."""
    return {cluster: system.cluster_unanimity(cluster)
            for cluster in range(system.cluster_graph.num_clusters)}


def _collect_amortized_rates(system: FtgcsSystem):
    """``(cluster, round, amortized_rate)`` for completed honest rounds.

    Records with an unfinished round (``t_end`` NaN) are dropped, as
    every rate-based experiment excludes them anyway.
    """
    rates = []
    for node in system.honest_nodes():
        for record in node.core.records:
            if not math.isnan(record.t_end):
                rates.append((node.cluster_id, record.round_index,
                              record.amortized_rate))
    return rates


#: Named in-worker measurements for ``ScenarioSpec.collect``.
COLLECTORS: dict[str, Callable[[FtgcsSystem], Any]] = {
    "pulse_diameters": _collect_pulse_diameters,
    "unanimity": _collect_unanimity,
    "amortized_rates": _collect_amortized_rates,
}


# ----------------------------------------------------------------------
# Cell kinds
# ----------------------------------------------------------------------

#: Graph name -> signature of its ClusterGraph classmethod constructor,
#: which ``graph_args`` must bind to.
_GRAPHS = {name: inspect.signature(getattr(ClusterGraph, name))
          for name, attr in vars(ClusterGraph).items()
          if isinstance(attr, classmethod)}


#: Topology schedule factory -> its signature, which ``(graph,
#: **schedule_args)`` must bind to; filled on first use, as schedules
#: may register after import.
_SCHEDULE_SIGNATURES: dict[Callable, inspect.Signature] = {}


def _build_graph(spec: ScenarioSpec) -> ClusterGraph:
    if not spec.graph:
        raise ConfigError(f"cell kind {spec.kind!r} needs a graph")
    if spec.graph not in _GRAPHS:
        raise ConfigError(f"unknown graph constructor: {spec.graph!r}")
    try:
        return getattr(ClusterGraph, spec.graph)(*spec.graph_args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad graph {spec.graph}"
                          f"{tuple(spec.graph_args)!r}: {exc}") from None


def _build_schedule(spec: ScenarioSpec,
                    graph: ClusterGraph) -> TopologySchedule:
    """The spec's topology schedule over ``graph``.  Arguments that
    bind but that the schedule refuses are a ``ConfigError``, in
    :func:`check_spec` and in the worker alike."""
    try:
        return build_schedule(spec.schedule, graph, **spec.schedule_args)
    except (TypeError, ValueError, TopologyError) as exc:
        raise ConfigError(f"bad {spec.schedule} cell: {exc}") from None


def _run_protocol_cell(spec: ScenarioSpec) -> SweepCellResult:
    """The generic worker: any registered protocol through the
    :class:`~repro.core.protocol.SystemBuilder` path.

    ``result`` is always a
    :class:`~repro.core.protocol.ProtocolRunResult`; in-worker
    collectors run against the protocol's analysis system (FTGCS
    family only).
    """
    builder = SystemBuilder(get_protocol(cell_protocol(spec))())
    if spec.graph:
        graph = _build_graph(spec)
        if spec.schedule and spec.schedule != "static":
            builder.topology(_build_schedule(spec, graph))
        else:
            builder.topology(graph)
    elif spec.schedule not in ("", "static"):
        raise ConfigError(
            f"topology schedule {spec.schedule!r} needs a graph")
    if spec.params is not None:
        builder.params(spec.params)
    builder.rounds(spec.rounds).seed(spec.seed)
    if spec.engine:
        builder.engine(spec.engine)
    if spec.first_contact:
        builder.first_contact(True)
    if spec.loss:
        builder.lossy(**spec.loss)
    if spec.adversary:
        builder.adversary(**spec.adversary)
    if spec.config:
        builder.configure(**spec.config)
    if spec.payload:
        builder.payload(**spec.payload)

    system = builder.build()
    extras = {}
    if spec.timing:
        # repro: allow[wall-clock] -- opt-in timing extras; documented
        # as nondeterministic and excluded from determinism checks.
        start = time.perf_counter()
        result = system.run()
        # repro: allow[wall-clock] -- second leg of the same opt-in
        # timing measurement.
        wall = time.perf_counter() - start
        timing = {"wall_seconds": wall}
        detail = getattr(result, "detail", None)
        rounds = (detail.get("rounds")
                  if isinstance(detail, dict) else None)
        if rounds and wall > 0.0:
            timing["rounds_per_second"] = rounds / wall
        extras["timing"] = timing
    else:
        result = system.run()

    target = system.protocol.analysis_system()
    for collector_name in spec.collect:
        extras[collector_name] = COLLECTORS[collector_name](target)
    return SweepCellResult(key=spec.key, seed=spec.seed, result=result,
                           pulse_diameters=extras.get("pulse_diameters"),
                           extras=extras)


#: ``(seed, draws_consumed) -> random.Random state`` — lets consecutive
#: ``failure_mc`` cells of one grid continue the shared stream instead
#: of fast-forwarding from scratch (serial and chunked-pool runs then
#: consume exactly the original draw count; a pool worker landing
#: mid-grid pays one fast-forward).  A handful of ~2.5 kB states.
_MC_STREAM_STATES: dict[tuple[int, int], tuple] = {}


def _run_failure_mc_cell(spec: ScenarioSpec) -> SweepCellResult:
    """Monte Carlo cluster-failure estimate (Inequality (1)).

    ``payload``: ``f``, ``p``, ``trials``, and ``skip`` — the number
    of draws consumed by *earlier* grid cells sharing the same serial
    stream.  Fast-forwarding by ``skip`` reproduces the historical
    single-``random.Random`` implementation bit-for-bit while every
    cell still runs independently (each trial consumes exactly
    ``3f + 1`` draws, so skip counts are static).
    """
    payload = spec.payload
    f = payload["f"]
    p = payload["p"]
    trials = payload["trials"]
    skip = payload.get("skip", 0)
    # repro: allow[raw-rng] -- reproduces the seed-era single
    # random.Random(seed) Monte Carlo stream bit-for-bit; cells
    # fast-forward it by static skip counts (module docstring).
    rng = random.Random(spec.seed)
    state = _MC_STREAM_STATES.get((spec.seed, skip)) if skip else None
    if state is not None:
        rng.setstate(state)
    else:
        for _ in range(skip):
            rng.random()
    k = 3 * f + 1
    failures = 0
    for _ in range(trials):
        faulty = sum(1 for _ in range(k) if rng.random() < p)
        if faulty > f:
            failures += 1
    if len(_MC_STREAM_STATES) > 64:
        _MC_STREAM_STATES.clear()
    _MC_STREAM_STATES[(spec.seed, skip + trials * k)] = rng.getstate()
    return SweepCellResult(key=spec.key, seed=spec.seed,
                           result=failures / trials)


def _run_trigger_fuzz_cell(spec: ScenarioSpec) -> SweepCellResult:
    """Randomized Lemma 4.8 faithfulness check; ``result`` is the
    violation count.

    ``payload``: ``trials``, ``kappa``, ``slack``, and ``err`` (the
    ``2E`` estimate-perturbation radius).  Conditions evaluated on
    true cluster clocks must imply the matching trigger on estimates
    perturbed by up to ``err``.
    """
    payload = spec.payload
    trials = payload["trials"]
    kappa = payload["kappa"]
    slack = payload["slack"]
    err = payload["err"]
    # repro: allow[raw-rng] -- reproduces the seed-era fuzz stream
    # bit-for-bit (same draw order as the original single-RNG t10).
    rng = random.Random(spec.seed)
    violations = 0
    for _ in range(trials):
        own_true = rng.uniform(-5 * kappa, 5 * kappa)
        neighbors = {i: rng.uniform(-5 * kappa, 5 * kappa)
                     for i in range(rng.randint(1, 4))}
        cond = evaluate(own_true, neighbors, kappa, 0.0)
        own_seen = own_true + rng.uniform(-err / 2, err / 2)
        seen = {i: v + rng.uniform(-err, err)
                for i, v in neighbors.items()}
        trig = evaluate(own_seen, seen, kappa, slack)
        if cond.fast and not trig.fast:
            violations += 1
        if cond.slow and not trig.slow:
            violations += 1
    return SweepCellResult(key=spec.key, seed=spec.seed, result=violations)


def _run_augment_counts_cell(spec: ScenarioSpec) -> SweepCellResult:
    """Node/edge accounting of the augmentation (no simulation).

    ``payload``: ``fault_counts`` (default ``(0, 1, 2, 3)``).
    ``result``: the graph's name and base counts plus
    ``(f, k, nodes, edges)`` per fault budget.
    """
    graph = _build_graph(spec)
    rows = []
    for f in spec.payload.get("fault_counts", (0, 1, 2, 3)):
        k = 3 * f + 1
        aug = graph.augment(k)
        rows.append((f, k, aug.num_nodes, aug.num_edges))
    return SweepCellResult(
        key=spec.key, seed=spec.seed,
        result={"name": graph.name, "clusters": graph.num_clusters,
                "edges": graph.num_edges, "rows": rows})


def cell_protocol(spec: ScenarioSpec) -> str | None:
    """The protocol a cell runs: ``spec.protocol`` (default
    ``"ftgcs"``) on a ``"protocol"`` cell, ``None`` on any other
    kind."""
    if spec.kind == "protocol":
        return spec.protocol or "ftgcs"
    return None


#: Worker routines addressable by ``ScenarioSpec.kind``.
CELL_KINDS: dict[str, Callable[[ScenarioSpec], SweepCellResult]] = {
    "protocol": _run_protocol_cell,
    "failure_mc": _run_failure_mc_cell,
    "trigger_fuzz": _run_trigger_fuzz_cell,
    "augment_counts": _run_augment_counts_cell,
}


def register_cell_kind(name: str,
                       runner: Callable[[ScenarioSpec], SweepCellResult],
                       ) -> None:
    """Register a custom cell kind (see the module docstring caveat
    about non-``fork`` start methods)."""
    if name in CELL_KINDS:
        raise ConfigError(f"cell kind {name!r} already registered")
    CELL_KINDS[name] = runner


#: The spec fields only a cell that runs a protocol reads.
_PROTOCOL_FIELDS = ("protocol", "schedule", "schedule_args", "engine",
                    "adversary", "first_contact", "loss", "collect",
                    "config", "timing")

#: Built-in kinds that run no protocol, each with the spec fields it
#: would silently ignore, which :func:`check_spec` rejects: every
#: protocol field, the params and the round count, and the graph
#: unless the kind builds it.
_UNREAD = ("params", "rounds") + _PROTOCOL_FIELDS
_PROTOCOL_FREE_KINDS = {
    "failure_mc": ("graph", "graph_args") + _UNREAD,
    "trigger_fuzz": ("graph", "graph_args") + _UNREAD,
    "augment_counts": _UNREAD,
}


def check_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """The check of a spec on every path it enters by
    (``Scenario.build``, ``JobManager.submit_grid``, the scenario
    library and :func:`run_cell`); returns ``spec``.

    Types and names first: ``rounds`` must be an ``int``, ``seed`` an
    ``int`` or ``None`` (a ``bool`` is neither), ``first_contact`` and
    ``timing`` real ``bool`` values, each name a string a registry
    knows, and ``graph_args`` must bind to the signature of the
    ``graph``'s ClusterGraph constructor, ``schedule_args`` to the
    schedule factory's (a ``static`` schedule takes none).  Then the
    composition through
    :func:`~repro.core.protocol.check_composition`: the whole table,
    the graph, the params and every ``config``/``payload`` key for a
    cell that runs a protocol, and the feature values alone for a
    custom kind.  A built-in kind that runs no protocol takes no field
    it would ignore: no protocol field (``config``, ``schedule_args``
    and ``timing`` among them), no ``params`` or ``rounds``, and no
    ``graph`` or ``graph_args`` unless it builds the graph
    (``augment_counts``).  Every failure is a
    :class:`~repro.errors.ConfigError`.  No graph is built, except a
    node-churn cell's own, to check the schedule's arguments against
    it.
    """
    for name, types, what in (
            ("graph", str, "a ClusterGraph constructor name"),
            ("graph_args", (list, tuple), "a list"),
            ("rounds", int, "an int"),
            ("seed", (int, type(None)), "an int or None"),
            ("schedule_args", dict, "a mapping"),
            ("first_contact", bool, "a bool"),
            ("timing", bool, "a bool"),
            ("config", dict, "a mapping"),
            ("payload", dict, "a mapping"),
            ("collect", (list, tuple), "a list of collector names")):
        value = getattr(spec, name)
        if not isinstance(value, types) or (isinstance(value, bool)
                                            and types is not bool):
            raise ConfigError(f"{name} must be {what}: {value!r}")
    known = [(spec.kind, CELL_KINDS, "cell kind"),
             (spec.schedule, SCHEDULES, "topology schedule"),
             (spec.engine, ENGINES, "engine")]
    if spec.graph:
        known.append((spec.graph, _GRAPHS, "graph constructor"))
    if spec.protocol is not None:
        known.append((spec.protocol, protocol_names(), "protocol"))
    known += [(name, COLLECTORS, "collector") for name in spec.collect]
    if spec.kind in protocol_names() and spec.kind not in CELL_KINDS:
        raise ConfigError(
            f"unknown cell kind {spec.kind!r}; run a protocol as cell "
            f"kind 'protocol' with protocol={spec.kind!r}")
    for name, registry, what in known:
        if not isinstance(name, str) or name not in registry:
            raise ConfigError(f"unknown {what} {name!r}; known: "
                              f"{sorted(registry)}")
    if spec.graph:
        try:
            _GRAPHS[spec.graph].bind(*spec.graph_args)
        except TypeError as exc:
            raise ConfigError(f"bad graph_args {tuple(spec.graph_args)!r} "
                              f"for {spec.graph}: {exc}") from None
    if spec.kind in _PROTOCOL_FREE_KINDS:
        # A field is set when it differs from its default, unless both
        # are empty (``[]`` for ``()``); so ``rounds=0`` is set.
        blank = ScenarioSpec()
        ignored = [name for name in _PROTOCOL_FREE_KINDS[spec.kind]
                   if getattr(spec, name) != getattr(blank, name)
                   and (getattr(spec, name) or getattr(blank, name))]
        if ignored:
            raise ConfigError(
                f"cell kind {spec.kind!r} runs no protocol and would "
                f"ignore {ignored}; use a protocol cell")
        return spec
    schedule = SCHEDULES[spec.schedule]
    signature = _SCHEDULE_SIGNATURES.get(schedule)
    if signature is None:
        signature = _SCHEDULE_SIGNATURES[schedule] = inspect.signature(
            schedule)
    try:
        signature.bind(None, **spec.schedule_args)  # None: the graph
    except TypeError as exc:
        raise ConfigError(f"bad schedule_args {spec.schedule_args!r} for "
                          f"{spec.schedule}: {exc}") from None
    protocol = cell_protocol(spec)
    if spec.schedule == "node_churn" and spec.graph:
        _build_schedule(spec, _build_graph(spec))
    # Edge and node events by override identity on the class, the test
    # TopologySchedule.has_edge_events makes: no schedule is built.  A
    # schedule registered as a factory function shows its events only
    # once built, so SystemBuilder.build checks them in the worker.
    is_class = isinstance(schedule, type)
    features = dict(
        adversary=spec.adversary,
        edge_events=(is_class
                     and schedule.events is not TopologySchedule.events),
        node_events=(is_class and schedule.node_events
                     is not TopologySchedule.node_events),
        first_contact=spec.first_contact, loss=spec.loss,
        collectors=bool(spec.collect))
    check_composition(None if protocol is None else get_protocol(protocol),
                      spec.engine, graph=spec.graph or None,
                      params=spec.params, config=spec.config,
                      payload=spec.payload, **features)
    return spec


def run_cell(spec: ScenarioSpec) -> SweepCellResult:
    """Check, build, run, and measure one cell (the pool worker).

    Module-level (hence picklable by reference) and usable directly for
    one-off cells.  ``spec.seed`` must be resolved (not ``None``) —
    :meth:`SweepRunner.run` does this before dispatch so serial and
    parallel executions see identical seeds.  The spec goes through
    :func:`check_spec` first, so the worker rejects exactly what every
    eager path rejects.
    """
    if spec.seed is None:
        raise ConfigError("run_cell needs a resolved seed "
                          "(use SweepRunner.run for derived seeds)")
    return CELL_KINDS[check_spec(spec).kind](spec)


def _coerce_processes(value, source: str) -> int:
    try:
        count = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{source} must be an integer: {value!r}")
    return max(1, count)


def default_processes(processes: int | None = None) -> int:
    """Resolve a worker count: explicit > ``REPRO_SWEEP_PROCESSES`` >
    serial.

    The single resolution path for every worker-count knob in the
    library (experiment registry, CLI, service).  Serial by default,
    so unit tests and small sweeps never pay pool startup.
    """
    if processes is not None:
        return _coerce_processes(processes, "processes")
    env = os.environ.get("REPRO_SWEEP_PROCESSES")
    if env:
        return _coerce_processes(env, "REPRO_SWEEP_PROCESSES")
    return 1


class SweepRunner:
    """Fan a grid of :class:`ScenarioSpec` cells across worker processes.

    Parameters
    ----------
    processes:
        Pool size; ``1`` (the default) runs every cell in-process with
        no ``multiprocessing`` involvement at all — the fallback for
        platforms without ``fork`` and the determinism reference for
        tests.
    chunksize:
        Cells handed to a worker per dispatch; raise for large grids of
        tiny cells.
    """

    def __init__(self, processes: int | None = None,
                 chunksize: int = 1) -> None:
        self.processes = default_processes(processes)
        if chunksize < 1:
            raise ConfigError(f"chunksize must be >= 1: {chunksize!r}")
        self.chunksize = chunksize

    def run(self, specs: Sequence[ScenarioSpec],
            base_seed: int = 0) -> list[SweepCellResult]:
        """Execute every cell; ``results[i]`` matches ``specs[i]``.

        Cells with ``seed=None`` get deterministic per-cell seeds
        derived from ``base_seed`` and their grid index *before*
        dispatch, so the serial and parallel paths are bit-identical.
        Worker exceptions propagate to the caller.
        """
        resolved = resolve_cell_seeds(specs, base_seed)
        if self.processes <= 1 or len(resolved) <= 1:
            return [run_cell(spec) for spec in resolved]
        methods = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in methods else None
        ctx = multiprocessing.get_context(method)
        workers = min(self.processes, len(resolved))
        with ctx.Pool(processes=workers) as pool:
            return pool.map(run_cell, resolved, chunksize=self.chunksize)


__all__ = [
    "CELL_KINDS",
    "COLLECTORS",
    "ScenarioSpec",
    "SweepCellResult",
    "SweepRunner",
    "cell_protocol",
    "check_spec",
    "default_processes",
    "register_cell_kind",
    "resolve_cell_seeds",
    "run_cell",
    "spec_hash",
    "steady_state_skews",
]
