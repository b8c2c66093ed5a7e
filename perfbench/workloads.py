"""Input generators for the three benchmark workloads.

Each workload is a fixed list of *slots*.  A slot fixes the cell's shape
(protocol, topology, size, rounds, fault model) and therefore its cost;
each slot has ``VARIANTS`` seeded variants that differ in the cell seed
and, for ``event_ftgcs``, in the random initial offsets.  The benchmark
``--seed`` picks one variant per slot, so

* the same seed always gives the same grid,
* every seed gives a grid of the same shape and cost, which keeps the
  end-to-end numbers comparable across seeds, and
* every variant of every slot has a recorded output fingerprint in
  ``reference.json`` (see ``record_reference.py``), so each run checks
  every cell it executes against the seed commit's output.

Slots that share a ``group`` share their variant: the adversarial
cells of ``vec_scale`` are judged against a fault-free baseline run
with the same cell seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import Scenario
from repro.baselines.gcs_single import GcsParams
from repro.baselines.srikanth_toueg import StParams
from repro.harness.experiments import fast_dynamics_params
from repro.topology.cluster_graph import ClusterGraph
from repro.topology.schedule import build_schedule

#: Seeded variants per slot; ``reference.json`` holds all of them.
VARIANTS = 8

WORKLOADS = ("event_ftgcs", "vec_scale", "service_faulted")

# Parameter sets, shared with the registered experiments they mirror.
FT = fast_dynamics_params(f=1)                      # t01/t09/t16/t18
GCS_VEC = GcsParams(rho=1e-3, d=1.0, u=0.01, mu=0.01, period=10.0,
                    kappa=0.3, slack=0.1)           # t17/t18
GCS_FAST = GcsParams.default(rho=1e-2, d=1.0, u=0.05, mu=0.05,
                             period=2.0)            # t13/t16

#: Node-churn knobs of ``service_faulted`` (t16's shape, more crashes).
CHURN_CRASH = 0.25
CHURN_REJOIN = 0.8


@dataclass(frozen=True)
class Cell:
    """One generated cell: its spec plus what the checks need to know."""

    slot: str
    spec: object            # ScenarioSpec
    lossy: bool = False
    churn: bool = False
    #: ``(baseline slot, envelope kwargs)`` for adversarial cells.
    envelope: tuple | None = None
    #: ``(nodes, rounds)`` for vectorized cells.
    size: tuple | None = None


@dataclass(frozen=True)
class Slot:
    name: str
    make: object            # (variant_rng, seed) -> Cell kwargs
    group: str = ""


# ----------------------------------------------------------------------
# event_ftgcs
# ----------------------------------------------------------------------

#: Cell cost grows linearly in the rounds (line D=16: 0.064-0.072 s per
#: round from 3 to 20 rounds), so the start-up round does not dominate;
#: at 6 rounds ``SystemBuilder.build`` is about 2% of a cell's time.
EVENT_ROUNDS = 6
#: (graph, D) per slot; repeated small lines get distinct variants.
EVENT_SHAPES = (
    [("line", d) for d in (2, 3, 4, 5, 6, 7, 8, 10, 12, 16)]
    + [("line", d) for d in (2, 3, 4)]
    + [("ring", d) for d in (2, 3, 4, 5, 6, 7, 8, 10)])


def _event_slot(index: int, graph: str, diameter: int) -> Slot:
    n = diameter + 1 if graph == "line" else 2 * diameter

    def make(rng: random.Random, seed: int) -> dict:
        offsets = [rng.uniform(-FT.kappa, FT.kappa) for _ in range(n)]
        spec = (Scenario.on(graph, n).params(FT).rounds(EVENT_ROUNDS)
                .seed(seed).adversarial("equivocate")
                .configure(cluster_offsets=offsets, policy="max_rule",
                           enable_max_estimate=True)
                .tag(graph, diameter, index).build())
        return {"spec": spec}

    return Slot(f"{graph}{diameter}-{index}", make)


# ----------------------------------------------------------------------
# vec_scale
# ----------------------------------------------------------------------

#: Caterpillar sizes: ~1e4, ~5e4 and ~1e5 nodes.
CATERPILLARS = ((63, 160), (127, 393), (255, 393))
VEC_ROUNDS = 40
#: Rounds of the adversary groups on the small and the big caterpillar.
#: The sizes also keep the cell whose latency is the workload's median
#: (st256) well apart from its neighbours, so ``cell_s_p50`` does not
#: hop between two cells of nearly equal cost from run to run.
ADV_ROUNDS = {CATERPILLARS[0]: 10, CATERPILLARS[-1]: 20}


def _gcs(length: int, width: int, rounds: int) -> Scenario:
    return (Scenario.on("caterpillar", length, width).protocol("gcs_single")
            .payload(params=GCS_VEC, until=rounds * GCS_VEC.period))


def _ftgcs(length: int, width: int, rounds: int) -> Scenario:
    return Scenario.on("caterpillar", length, width).params(FT).rounds(rounds)


#: Envelope inputs of ``resilience_bound`` per protocol (t18's).
ENVELOPES = {
    "gcs_single": dict(kappa=GCS_VEC.kappa, slack=GCS_VEC.slack,
                       correction=GCS_VEC.mu * GCS_VEC.period),
    "ftgcs": dict(kappa=FT.kappa, slack=FT.delta_trigger,
                  correction=FT.mu * FT.round_length),
}
#: Amplitudes: below gcs_single's deadband (it is not fault tolerant),
#: well above FTGCS's (t18's challenge amplitude).
AMPLITUDES = {"gcs_single": 0.5 * GCS_VEC.kappa, "ftgcs": 2.5 * FT.kappa}


def _vec_slot(name: str, protocol: str, size: tuple, rounds: int,
              adversary: str | None = None, group: str = "") -> Slot:
    length, width = size
    base = _gcs if protocol == "gcs_single" else _ftgcs

    def make(rng: random.Random, seed: int) -> dict:
        scenario = base(length, width, rounds).engine("vectorized")
        envelope = None
        if adversary is not None:
            amplitude = AMPLITUDES[protocol]
            scenario = scenario.adversarial(adversary, amplitude=amplitude)
            envelope = (f"{group}/base", dict(amplitude=amplitude,
                                              **ENVELOPES[protocol]))
        return {"spec": scenario.seed(seed).tag(name).build(),
                "envelope": envelope, "size": (length * width, rounds)}

    return Slot(name, make, group=group)


def _st_slot(n: int, rounds: int) -> Slot:
    params = StParams(n=n, f=(n - 1) // 3, rho=1e-3, d=1.0, u=0.01,
                      period=10.0)

    def make(rng: random.Random, seed: int) -> dict:
        spec = (Scenario.of_protocol("srikanth_toueg")
                .payload(params=params, rounds=rounds).engine("vectorized")
                .seed(seed).tag(f"st{n}").build())
        return {"spec": spec, "size": (n, rounds)}

    return Slot(f"st{n}", make)


def _vec_slots() -> list[Slot]:
    slots = []
    for protocol in ("gcs_single", "ftgcs"):
        for size in CATERPILLARS:
            slots.append(_vec_slot(f"{protocol}-{size[0] * size[1]}",
                                   protocol, size, VEC_ROUNDS))
    slots.append(_st_slot(256, 30))
    small, big = CATERPILLARS[0], CATERPILLARS[-1]
    for protocol, size, adversaries in (
            ("gcs_single", small, ("silent", "greedy", "random_restart")),
            ("ftgcs", small, ("silent", "greedy", "random_restart")),
            ("gcs_single", big, ("silent",))):
        group = f"{protocol}-{size[0] * size[1]}-adv"
        rounds = ADV_ROUNDS[size]
        slots.append(_vec_slot(f"{group}/base", protocol, size, rounds,
                               group=group))
        for adversary in adversaries:
            slots.append(_vec_slot(f"{group}/{adversary}", protocol, size,
                                   rounds, adversary, group=group))
    return slots


# ----------------------------------------------------------------------
# service_faulted
# ----------------------------------------------------------------------

LOSSES = (
    {"kind": "bernoulli", "rate": 0.05},
    {"kind": "bernoulli", "rate": 0.2},
    {"kind": "burst", "p_g2b": 0.05, "p_b2g": 0.3, "p_bad": 0.8},
    {"kind": "burst", "p_g2b": 0.02, "p_b2g": 0.5, "p_bad": 0.95},
)
SERVICE_PROTOCOLS = ("ftgcs", "gcs_single", "master_slave")
FT_ROUNDS, MS_ROUNDS, GCS_HORIZON = 12, 15, 600.0


def _service_base(protocol: str) -> tuple[Scenario, float, tuple, float]:
    """(scenario, churn interval, protected clusters, churn horizon)."""
    line = Scenario.line(4)
    if protocol == "ftgcs":
        return (line.params(FT).rounds(FT_ROUNDS),
                2.0 * FT.round_length, (), FT_ROUNDS * FT.round_length)
    if protocol == "gcs_single":
        return (line.protocol("gcs_single")
                .payload(params=GCS_FAST, until=GCS_HORIZON),
                50.0, (), GCS_HORIZON)
    # master_slave: churn silences links only; the root is protected so
    # the tree keeps a master (t16's convention).
    return (line.protocol("master_slave").params(FT).rounds(MS_ROUNDS)
            .payload(record_series=True),
            2.0 * FT.round_length, (0,), MS_ROUNDS * FT.round_length)


def churn_crashes(spec, horizon: float) -> int:
    """Crash events the spec's node-churn schedule emits before
    ``horizon`` — computed from the schedule alone, without running."""
    graph = getattr(ClusterGraph, spec.graph)(*spec.graph_args)
    schedule = build_schedule(spec.schedule, graph, **spec.schedule_args)
    return sum(1 for _, _, alive in schedule.node_events(horizon, spec.seed)
               if not alive)


def _service_slot(protocol: str, loss: dict, churn: bool,
                  rep: int) -> Slot:
    name = (f"{protocol}-{loss['kind']}{loss.get('rate', loss.get('p_bad'))}"
            f"-{'churn' if churn else 'static'}-{rep}")

    def make(rng: random.Random, seed: int) -> dict:
        scenario, interval, protect, horizon = _service_base(protocol)
        scenario = scenario.lossy(**loss)
        if churn:
            scenario = scenario.churn_nodes(
                interval=interval, crash=CHURN_CRASH, rejoin=CHURN_REJOIN,
                protect=protect)
        spec = scenario.seed(seed).tag(name).build()
        # Feature-took-effect guard: a churn cell whose schedule never
        # crashes a node in the first half of its run would time a
        # static run, so such a seed is never generated.
        if churn and churn_crashes(spec, horizon / 2.0) == 0:
            return None
        return {"spec": spec, "lossy": True, "churn": churn}

    return Slot(name, make)


def _service_slots() -> list[Slot]:
    return [_service_slot(protocol, loss, churn, rep)
            for loss in LOSSES for churn in (False, True)
            for protocol in SERVICE_PROTOCOLS for rep in range(2)]


# ----------------------------------------------------------------------
# Catalogue and selection
# ----------------------------------------------------------------------

def slots(workload: str) -> list[Slot]:
    if workload == "event_ftgcs":
        return [_event_slot(i, graph, d)
                for i, (graph, d) in enumerate(EVENT_SHAPES)]
    if workload == "vec_scale":
        return _vec_slots()
    if workload == "service_faulted":
        return _service_slots()
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def make_cell(workload: str, slot: Slot, variant: int) -> Cell:
    """The cell of one (slot, variant): deterministic in its arguments.

    Candidate seeds are drawn from a stream keyed by the variant's
    group (or slot); a candidate the slot's feature guard rejects is
    skipped, deterministically.
    """
    key = slot.group or slot.name
    seeds = random.Random(f"perfbench/{workload}/{key}/{variant}")
    rng = random.Random(f"perfbench/{workload}/{slot.name}/{variant}/inputs")
    for _ in range(64):
        fields = slot.make(rng, seeds.randrange(1, 2 ** 31))
        if fields is not None:
            return Cell(slot=slot.name, **fields)
    raise RuntimeError(f"no admissible seed for {workload}/{slot.name}")


def catalogue(workload: str) -> list[Cell]:
    """Every variant of every slot (what ``reference.json`` covers)."""
    return [make_cell(workload, slot, variant)
            for slot in slots(workload) for variant in range(VARIANTS)]


def generate(workload: str, seed: int) -> list[Cell]:
    """The grid for one benchmark seed: one variant per slot (group)."""
    pick = random.Random(f"perfbench/{workload}/seed/{seed}")
    chosen: dict[str, int] = {}
    cells = []
    for slot in slots(workload):
        key = slot.group or slot.name
        if key not in chosen:
            chosen[key] = pick.randrange(VARIANTS)
        cells.append(make_cell(workload, slot, chosen[key]))
    check_engine_features(cells)
    return cells


def warmup_cells() -> list:
    """Two tiny cells outside every grid; a job of them starts the
    service's worker pool during set-up."""
    return [Scenario.line(2).protocol("gcs_single")
            .payload(params=GCS_FAST, until=10.0).seed(seed)
            .tag("warmup", seed).build() for seed in (1, 2)]


def check_engine_features(cells: list[Cell]) -> None:
    """The vectorized engine silently ignores loss, first contact and
    topology schedules, so a vectorized cell with any of them would
    time a no-op: refuse to generate one."""
    for cell in cells:
        spec = cell.spec
        if spec.engine == "vectorized" and (
                spec.loss or spec.first_contact
                or spec.schedule not in ("", "static")):
            raise ValueError(
                f"cell {cell.slot!r} pairs loss, first contact or a "
                f"topology schedule with the vectorized engine")
