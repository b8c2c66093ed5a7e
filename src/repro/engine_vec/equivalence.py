"""The event/vectorized equivalence contract, executable.

Every protocol with a vectorized port is pinned to the event engine by
a matrix of *cells* — (protocol, topology, parameters, seed) points
run on **both** engines and compared under one of three modes:

``exact``
    Bit-equality of the headline skews.  Used on degenerate
    deterministic cells (``rho = 0``, ``u = 0``): every clock agrees
    forever, so both engines must report exactly ``0.0`` — any float
    of drift in either round model is a bug, not noise.
``tolerance``
    ``|vec - event| <= tol`` with a per-cell documented ``tol``.  The
    engines sample at different instants (wall-clock grid vs round
    boundaries) and the round models abstract per-message effects, so
    stochastic cells agree up to a drift-plus-jitter budget derived
    from the cell's parameters (see each cell's construction).
``envelope``
    Both engines inside the analytic skew bounds.  Used where the
    vectorized model is a structural port rather than a re-execution
    (FTGCS's cluster-round skeleton): value-vs-value comparison is
    meaningless, the theory's guarantees are the shared contract.

:func:`quick_cells` is the standing matrix (every vectorized protocol,
including the degenerate-topology and f-bound fault cells);
:func:`run_equivalence` executes it and returns a report.  The matrix
runs in-process in a few seconds — it is a test fixture
(``tests/test_equivalence.py``) and the ``make smoke-vec`` target, not
a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.baselines.gcs_single import GcsParams
from repro.baselines.srikanth_toueg import StParams
from repro.core.params import Parameters
from repro.core.protocol import SystemBuilder
from repro.topology.cluster_graph import ClusterGraph

MODES = ("exact", "tolerance", "envelope")


@dataclass(frozen=True)
class EquivalenceCell:
    """One (protocol, topology, parameters, seed) comparison point.

    ``factory`` builds a fresh :class:`SystemBuilder` with everything
    *except* engine and seed composed; the runner applies those.
    ``compare`` names the headline fields diffed under
    exact/tolerance (lynch_welch compares ``global`` only: its event
    adapter reports local cluster skew as 0.0 on the single cluster
    while the round model has no separate local notion).
    ``bound_local``/``bound_global`` are analytic ceilings both
    engines must individually respect (the whole contract for
    ``envelope`` cells, an extra sanity net elsewhere).
    """

    name: str
    protocol: str
    mode: str
    factory: Callable[[], SystemBuilder]
    seed: int = 0
    tolerance: float = 0.0
    compare: tuple[str, ...] = ("local", "global")
    bound_local: float | None = None
    bound_global: float | None = None


@dataclass
class CellResult:
    """Both engines' headline skews for one cell, plus the verdict."""

    cell: EquivalenceCell
    event_local: float
    event_global: float
    vec_local: float
    vec_global: float
    passed: bool
    failures: list[str] = field(default_factory=list)


@dataclass
class EquivalenceReport:
    """The full matrix outcome; ``passed`` iff every cell passed."""

    results: list[CellResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def failures(self) -> list[str]:
        return [f"{r.cell.name}: {msg}"
                for r in self.results for msg in r.failures]

    def summary(self) -> str:
        ok = sum(r.passed for r in self.results)
        lines = [f"equivalence: {ok}/{len(self.results)} cells passed"]
        for r in self.results:
            status = "ok" if r.passed else "FAIL"
            lines.append(
                f"  [{status}] {r.cell.name} ({r.cell.mode}): "
                f"event=({r.event_local:.6g}, {r.event_global:.6g}) "
                f"vec=({r.vec_local:.6g}, {r.vec_global:.6g})")
            lines.extend(f"         {msg}" for msg in r.failures)
        return "\n".join(lines)


def run_cell(cell: EquivalenceCell) -> CellResult:
    """Run one cell on both engines and compare per its mode."""
    skews = {}
    for engine in ("event", "vectorized"):
        result = (cell.factory().engine(engine).seed(cell.seed)
                  .build().run())
        skews[engine] = (result.max_local_skew, result.max_global_skew)
    ev_local, ev_global = skews["event"]
    vec_local, vec_global = skews["vectorized"]
    failures: list[str] = []
    pairs = {"local": (ev_local, vec_local),
             "global": (ev_global, vec_global)}
    if cell.mode == "exact":
        for which in cell.compare:
            ev, vec = pairs[which]
            if vec != ev:
                failures.append(
                    f"{which} skew not bit-equal: event={ev!r} "
                    f"vec={vec!r}")
    elif cell.mode == "tolerance":
        for which in cell.compare:
            ev, vec = pairs[which]
            if abs(vec - ev) > cell.tolerance:
                failures.append(
                    f"{which} skew diff {abs(vec - ev):.6g} exceeds "
                    f"tolerance {cell.tolerance:.6g}")
    elif cell.mode != "envelope":
        failures.append(f"unknown mode {cell.mode!r}")
    for bound, which in ((cell.bound_local, "local"),
                         (cell.bound_global, "global")):
        if bound is None:
            continue
        for engine, (local, global_) in skews.items():
            value = local if which == "local" else global_
            if value > bound:
                failures.append(
                    f"{engine} {which} skew {value:.6g} exceeds "
                    f"analytic bound {bound:.6g}")
    return CellResult(cell=cell, event_local=ev_local,
                      event_global=ev_global, vec_local=vec_local,
                      vec_global=vec_global, passed=not failures,
                      failures=failures)


def run_equivalence(cells: list[EquivalenceCell] | None = None
                    ) -> EquivalenceReport:
    """Run ``cells`` (default :func:`quick_cells`) on both engines."""
    if cells is None:
        cells = quick_cells()
    return EquivalenceReport([run_cell(cell) for cell in cells])


# ----------------------------------------------------------------------
# The standing quick matrix
# ----------------------------------------------------------------------


def _st_cell(name: str, mode: str, *, n: int, f: int, rho: float,
             u: float, rounds: int, silent: int = 0, seed: int = 0,
             d: float = 1.0, period: float = 10.0) -> EquivalenceCell:
    params = StParams(n=n, f=f, rho=rho, d=d, u=u, period=period)

    def factory(params=params, rounds=rounds, silent=silent):
        return (SystemBuilder("srikanth_toueg")
                .payload(params=params, rounds=rounds,
                         silent_faults=silent))

    # Tolerance budget: the engines probe at different instants, at
    # most one inter-accept interval apart, so they can disagree by
    # the jitter width plus one period of drift — twice, once per
    # probe side.
    tol = 2.0 * (u + rho * period)
    return EquivalenceCell(name=name, protocol="srikanth_toueg",
                           mode=mode, factory=factory, seed=seed,
                           tolerance=tol)


def _gcs_cell(name: str, mode: str, *, graph_size: int,
              params: GcsParams, until: float, tolerance: float = 0.0,
              seed: int = 0) -> EquivalenceCell:
    def factory(graph_size=graph_size, params=params, until=until):
        return (SystemBuilder("gcs_single")
                .topology(ClusterGraph.line(graph_size))
                .payload(params=params, until=until))

    return EquivalenceCell(name=name, protocol="gcs_single",
                           mode=mode, factory=factory, seed=seed,
                           tolerance=tolerance)


def quick_cells() -> list[EquivalenceCell]:
    """The standing matrix: every vectorized protocol, exact cells
    where the math permits, documented tolerance otherwise, plus the
    degenerate-topology and f-bound fault cells."""
    cells: list[EquivalenceCell] = []

    # -- srikanth_toueg ------------------------------------------------
    # Exact: rho = u = 0 makes every resync deterministic and perfect.
    cells.append(_st_cell("st-exact-n4", "exact", n=4, f=1, rho=0.0,
                          u=0.0, rounds=5))
    # Silent faults at the f-bound stay exact: the n - f quorum is met
    # by the n - f correct proposals alone.
    cells.append(_st_cell("st-exact-silent-fbound", "exact", n=7, f=2,
                          rho=0.0, u=0.0, rounds=5, silent=2))
    # Single node: quorum of one, offset advances by d per round.
    cells.append(_st_cell("st-exact-single", "exact", n=1, f=0,
                          rho=0.0, u=0.0, rounds=5))
    # Stochastic cells, with and without silent faults.
    for seed in (0, 1):
        cells.append(_st_cell(f"st-tol-s{seed}", "tolerance", n=7,
                              f=2, rho=1e-4, u=0.01, rounds=20,
                              seed=seed))
    cells.append(_st_cell("st-tol-silent-fbound", "tolerance", n=7,
                          f=2, rho=1e-4, u=0.01, rounds=20, silent=2,
                          seed=1))

    # -- gcs_single ----------------------------------------------------
    exact_params = GcsParams(rho=0.0, d=1.0, u=0.0, mu=0.01,
                             period=10.0, kappa=0.3, slack=0.1)
    cells.append(_gcs_cell("gcs-exact-line4", "exact", graph_size=4,
                           params=exact_params, until=200.0))
    # Edge-free graph: local skew is 0.0 by convention on both engines
    # (degree-0 vertices never trigger).
    cells.append(_gcs_cell("gcs-exact-edgeless", "exact",
                           graph_size=1, params=exact_params,
                           until=100.0))
    # Stochastic cell through a full trigger sawtooth (drift to the
    # first level boundary and fast-mode recovery).  Tolerance: one
    # level width — engine disagreement is at most one round of
    # trigger-decision divergence, worth (mu + 2 rho) * period + u,
    # which kappa dominates by construction.
    tol_params = GcsParams(rho=1e-3, d=1.0, u=0.01, mu=0.01,
                           period=10.0, kappa=0.3, slack=0.1)
    for seed in (0, 1):
        cells.append(_gcs_cell(f"gcs-tol-line6-s{seed}", "tolerance",
                               graph_size=6, params=tol_params,
                               until=1000.0,
                               tolerance=tol_params.kappa, seed=seed))

    # -- adversary layer (engine-agnostic AdversaryModel) --------------
    # Silent adversary ≡ native silent_faults: on the degenerate cell
    # both engines are deterministic and perfect, so the unified
    # spelling must reproduce the exact 0.0 the legacy payload gives.
    adv_st = StParams(n=7, f=2, rho=0.0, d=1.0, u=0.0, period=10.0)

    def adv_st_factory(params=adv_st):
        return (SystemBuilder("srikanth_toueg")
                .payload(params=params, rounds=5)
                .adversary("silent", count=2))

    cells.append(EquivalenceCell(
        name="st-adv-silent-exact", protocol="srikanth_toueg",
        mode="exact", factory=adv_st_factory))
    # Equivocate adversary: the event engine realizes per-delivery
    # liars (GcsLiarNode, bias = amplitude, ramp = 0), the vectorized
    # engine masked estimate writes.  Same placement and directions,
    # different mechanisms — the budget is one trigger-level width,
    # as for the benign stochastic cells (measured diff ~u, far
    # inside it).
    adv_gcs = GcsParams(rho=1e-3, d=1.0, u=0.01, mu=0.01,
                        period=10.0, kappa=0.3, slack=0.1)

    def adv_gcs_factory(params=adv_gcs):
        return (SystemBuilder("gcs_single")
                .topology(ClusterGraph.line(6))
                .payload(params=params, until=1000.0)
                .adversary("equivocate"))

    cells.append(EquivalenceCell(
        name="gcs-adv-equivocate-tol", protocol="gcs_single",
        mode="tolerance", factory=adv_gcs_factory,
        tolerance=adv_gcs.kappa))

    # -- lynch_welch ---------------------------------------------------
    lw_params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
    lw_bound = lw_params.intra_skew_bound()

    def lw_factory(params=lw_params):
        return SystemBuilder("lynch_welch").params(params).rounds(10)

    for seed in (0, 1):
        cells.append(EquivalenceCell(
            name=f"lw-tol-s{seed}", protocol="lynch_welch",
            mode="tolerance", factory=lw_factory, seed=seed,
            # The event path runs the full FTGCS intra-cluster
            # machinery, the round model the classic recursion; both
            # live inside (and may differ by up to) the intra-cluster
            # bound.  Global only: the event adapter's "local" is the
            # cross-cluster notion, identically 0.0 on one cluster.
            tolerance=lw_bound, compare=("global",),
            bound_global=lw_bound))

    # -- ftgcs ---------------------------------------------------------
    ft_params = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
    ft_graph = ClusterGraph.line(3)
    ft_global = ft_params.global_skew_bound(2)  # line(3): D = 2

    def ft_factory(params=ft_params, graph=ft_graph):
        return (SystemBuilder("ftgcs").topology(graph).params(params)
                .rounds(4))

    for seed in (0, 1):
        cells.append(EquivalenceCell(
            name=f"ftgcs-envelope-s{seed}", protocol="ftgcs",
            mode="envelope", factory=ft_factory, seed=seed,
            bound_global=ft_global,
            bound_local=ft_params.local_skew_bound(ft_global)))

    # Equivocate adversary on FTGCS: event side is the model's own
    # driver on each faulty node, vectorized side masked estimate
    # writes into the cluster-round skeleton — structural port vs
    # re-execution, so the envelope is the contract (as for the
    # benign ftgcs cells).
    def ft_adv_factory(params=ft_params, graph=ft_graph):
        return (SystemBuilder("ftgcs").topology(graph).params(params)
                .rounds(4).adversary("equivocate"))

    cells.append(EquivalenceCell(
        name="ftgcs-adv-equivocate-envelope", protocol="ftgcs",
        mode="envelope", factory=ft_adv_factory,
        bound_global=ft_global,
        bound_local=ft_params.local_skew_bound(ft_global)))

    return cells


__all__ = [
    "MODES",
    "CellResult",
    "EquivalenceCell",
    "EquivalenceReport",
    "quick_cells",
    "run_cell",
    "run_equivalence",
]
