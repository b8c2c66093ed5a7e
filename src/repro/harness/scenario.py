"""Fluent, declarative scenario construction.

:class:`Scenario` is the builder half of the experiment API: it
composes topology × parameters × faults × schedule × measurements and
compiles to a picklable :class:`~repro.harness.sweep.ScenarioSpec`.
Builders are immutable — every method returns a *new* builder — so a
shared base fans out into grids without aliasing:

>>> from repro.harness import Scenario, SweepRunner, default_params
>>> base = (Scenario.line(3).params(default_params())
...         .rounds(20).adversarial("equivocate"))
>>> specs = [base.configure(init_jitter=j).tag("jitter", j).build()
...          for j in (0.01, 0.05, 0.1)]
>>> cells = SweepRunner().run(specs, base_seed=7)

:meth:`Scenario.build` runs :func:`~repro.harness.sweep.check_spec`,
the check the service runs on every submitted cell and the worker on
every cell it runs: unknown names fail with the known alternatives,
and a composition the engine cannot realize (or a bad adversary or
loss knob) fails through the table ``SystemBuilder.build``
evaluates — where the grid is written, not inside a pool worker.
Topology and parameter validation happens in the worker, where the
system is actually constructed.
"""

from __future__ import annotations

from repro.core.params import Parameters
from repro.errors import ConfigError
from repro.harness import serialize
from repro.harness.sweep import ScenarioSpec, check_spec


class Scenario:
    """Immutable fluent builder for one sweep cell.

    Start from a topology classmethod (:meth:`line`, :meth:`ring`,
    :meth:`on`, …) or :meth:`of_kind` for non-graph cells, chain
    setters, and :meth:`build` the spec.
    """

    __slots__ = ("_fields",)

    def __init__(self, **fields) -> None:
        object.__setattr__(self, "_fields", fields)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Scenario is immutable; chain methods")

    def _with(self, **changes) -> "Scenario":
        merged = dict(self._fields)
        merged.update(changes)
        return Scenario(**merged)

    # ------------------------------------------------------------------
    # Topology / kind entry points
    # ------------------------------------------------------------------

    @classmethod
    def on(cls, graph: str, *graph_args) -> "Scenario":
        """Start from any ClusterGraph constructor name."""
        return cls(graph=graph, graph_args=tuple(graph_args))

    @classmethod
    def line(cls, n: int) -> "Scenario":
        return cls.on("line", n)

    @classmethod
    def ring(cls, n: int) -> "Scenario":
        return cls.on("ring", n)

    @classmethod
    def grid_graph(cls, rows: int, cols: int) -> "Scenario":
        return cls.on("grid", rows, cols)

    @classmethod
    def of_kind(cls, kind: str) -> "Scenario":
        """Start a non-default cell kind (may be graph-free)."""
        return cls(kind=kind)

    @classmethod
    def of_protocol(cls, name: str) -> "Scenario":
        """Start a (possibly graph-free) protocol cell, e.g.
        ``Scenario.of_protocol("srikanth_toueg")``."""
        return cls(kind="protocol", protocol=name)

    # ------------------------------------------------------------------
    # Parameters / schedule / faults
    # ------------------------------------------------------------------

    def kind(self, kind: str) -> "Scenario":
        """Select the worker routine (see ``CELL_KINDS``)."""
        return self._with(kind=kind)

    def protocol(self, name: str) -> "Scenario":
        """Run through the unified protocol path (``kind="protocol"``)
        with the named :class:`~repro.core.protocol.SyncProtocol`."""
        return self._with(kind="protocol", protocol=name)

    def dynamic(self, schedule: str, **schedule_args) -> "Scenario":
        """Make the topology time-varying: a registered
        :data:`~repro.topology.schedule.SCHEDULES` name plus its
        factory kwargs (e.g. ``.dynamic("churn", interval=40.0,
        churn=0.25)``)."""
        return self._with(schedule=schedule,
                          schedule_args=dict(schedule_args))

    def first_contact(self, enabled: bool = True) -> "Scenario":
        """Enable first-contact estimator bring-up: estimator state
        follows the live edge set (dormant while the link is down,
        brought up on first contact, warm-up rule before entering the
        trigger aggregation).  The protocol must declare
        ``supports_first_contact`` (checked at :meth:`build`)."""
        return self._with(first_contact=bool(enabled))

    def lossy(self, kind: str = "bernoulli", **kwargs) -> "Scenario":
        """Attach a random message-loss model to the network, e.g.
        ``.lossy(rate=0.05)`` (Bernoulli) or ``.lossy("burst",
        p_g2b=0.02, p_b2g=0.3, p_bad=0.9)`` (Gilbert–Elliott).  The
        spec is validated at :meth:`build`; loss draws come from a
        dedicated seed stream, so delay sequences are untouched and a
        zero-rate model stays bit-identical to no model."""
        return self._with(loss={"kind": kind, **kwargs})

    def churn_nodes(self, interval: float, crash: float,
                    rejoin: float = 0.5, protect: tuple = (),
                    drop_in_flight: bool = True) -> "Scenario":
        """Crash-and-rejoin node churn: sugar for
        ``.dynamic("node_churn", ...)``.  Every ``interval`` each
        alive unprotected vertex crashes with probability ``crash``
        (whole node down: links dark, state lost) and each crashed one
        rejoins with probability ``rejoin`` through the protocol's
        amnesiac bring-up path.  The protocol must declare
        ``supports_node_churn`` (checked at :meth:`build`)."""
        return self.dynamic("node_churn", interval=interval, crash=crash,
                            rejoin=rejoin, protect=tuple(protect),
                            drop_in_flight=drop_in_flight)

    def engine(self, name: str) -> "Scenario":
        """Select the execution backend
        (:data:`~repro.core.protocol.ENGINES`): ``"event"`` — the
        default — or ``"vectorized"`` for the numpy round engine.
        The protocol must declare ``supports_vectorized`` (checked at
        :meth:`build`)."""
        return self._with(engine=name)

    def timed(self, enabled: bool = True) -> "Scenario":
        """Also measure in-worker wall-clock time
        (``extras["timing"]``).  Opt-in: timing readings are not
        deterministic, so determinism checks must ignore them."""
        return self._with(timing=bool(enabled))

    def params(self, params: Parameters) -> "Scenario":
        """Attach the full FTGCS parameter set."""
        return self._with(params=params)

    def rounds(self, rounds: int) -> "Scenario":
        """How many rounds the cell runs."""
        return self._with(rounds=rounds)

    def seed(self, seed: int | None) -> "Scenario":
        """Explicit master seed (``None``: derived per cell)."""
        return self._with(seed=seed)

    def adversarial(self, name: str, **kwargs) -> "Scenario":
        """Attach a unified engine-agnostic adversary
        (:data:`~repro.faults.adversary.ADVERSARIES`): a named
        :class:`~repro.faults.adversary.AdversaryModel` plus its knobs,
        e.g. ``.adversarial("equivocate", amplitude=2.0)``,
        ``.adversarial("crash", crash_time=30.0)`` or
        ``.adversarial("greedy", count=3)``.  The name, kwargs, and
        the engine × protocol realization are validated at
        :meth:`build`."""
        return self._with(adversary={"name": name, **kwargs})

    def configure(self, **config) -> "Scenario":
        """Merge :class:`~repro.core.system.SystemConfig` kwargs."""
        merged = dict(self._fields.get("config", {}))
        merged.update(config)
        return self._with(config=merged)

    def offsets(self, cluster_offsets: list[float]) -> "Scenario":
        """Initial per-cluster logical offsets (gradient setups)."""
        return self.configure(cluster_offsets=list(cluster_offsets))

    def payload(self, **payload) -> "Scenario":
        """Merge kind-specific knobs (non-``ftgcs`` cells)."""
        merged = dict(self._fields.get("payload", {}))
        merged.update(payload)
        return self._with(payload=merged)

    # ------------------------------------------------------------------
    # Measurements / labeling
    # ------------------------------------------------------------------

    def measure(self, *collectors: str) -> "Scenario":
        """Add in-worker collectors (see ``COLLECTORS``)."""
        existing = self._fields.get("collect", ())
        added = tuple(c for c in collectors if c not in existing)
        return self._with(collect=existing + added)

    def tag(self, *key) -> "Scenario":
        """Set the cell's free-form coordinates (``result.key``)."""
        return self._with(key=tuple(key))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe plain-data form of the builder's *set* fields.

        Only fields a chained method actually set appear (a fresh
        ``Scenario.line(3)`` serializes to two keys), so the dict reads
        like the chain that built it.  Values go through the canonical
        tagged codec of :mod:`repro.harness.serialize`;
        :meth:`from_dict` restores a builder whose :meth:`build` output
        is bit-identical to the original's.
        """
        return {name: serialize.encode(value)
                for name, value in self._fields.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Rebuild a builder from :meth:`to_dict` output (or
        hand-written plain data; field names are validated against
        :class:`~repro.harness.sweep.ScenarioSpec`)."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"Scenario.from_dict needs a dict: {data!r}")
        # The builder's field namespace IS the spec's; reuse its
        # decoding (tuple coercion, params type check, unknown- and
        # retired-key rejection), then keep only the keys that were
        # present and are still fields.
        spec = ScenarioSpec.from_dict(data)
        return cls(**{name: getattr(spec, name) for name in data
                      if name not in ScenarioSpec._SERIALIZE_RETIRED})

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def build(self) -> ScenarioSpec:
        """Compile to a picklable :class:`ScenarioSpec`, checked by
        :func:`check_spec`."""
        return check_spec(ScenarioSpec(**self._fields))


__all__ = ["Scenario", "check_spec"]
