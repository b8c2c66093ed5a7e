"""The paper's experiment suite (T1–T12) plus extensions (T13+),
declaratively.

Every experiment is registered with
:data:`~repro.harness.registry.REGISTRY` as metadata (id, title,
claim, table schema, default seed) plus a *plan* function compiling
``(quick, seed)`` into an
:class:`~repro.harness.registry.ExperimentPlan`: a grid of picklable
:class:`~repro.harness.sweep.ScenarioSpec` cells — built with the
fluent :class:`~repro.harness.scenario.Scenario` builder — and a pure
``finish`` step folding the executed cells into the experiment's
:class:`~repro.harness.tables.Table`.

Execution is uniform across every table:
:func:`~repro.harness.registry.run_experiment` fans each grid across
:class:`~repro.harness.sweep.SweepRunner`, so every experiment accepts
``processes`` (explicit > ``REPRO_SWEEP_PROCESSES`` > serial) and
produces bit-identical tables for any worker count.  Simulation cells
all run through the generic ``"protocol"`` cell kind — one
:class:`~repro.core.protocol.SystemBuilder` path parameterized by
protocol name (``ftgcs``, ``lynch_welch``, ``master_slave``,
``gcs_single``, ``srikanth_toueg``) and an optional topology schedule
for dynamic networks (T13).  Non-simulation work rides the same
engine through dedicated cell kinds: the T5 Monte Carlo
(``failure_mc``, whose cells fast-forward one shared serial RNG
stream so the grid reproduces the historical single-stream
implementation bit-for-bit), the T10 randomized trigger check
(``trigger_fuzz``), and the T8 graph accounting (``augment_counts``).

``quick=True`` (the default) is the CI size; ``quick=False`` the full
sweeps reported in EXPERIMENTS.md.

Run one through the registry::

    from repro.harness import run_experiment
    table = run_experiment("t09", quick=True, processes=4)
"""

from __future__ import annotations

import math
import random

from repro.analysis.bounds import (
    cluster_failure_bound_3ep,
    cluster_failure_bound_binomial,
    cluster_failure_probability,
    resilience_bound,
)
from repro.analysis.metrics import log_log_fit
from repro.baselines.gcs_single import GcsParams
from repro.baselines.srikanth_toueg import StParams
from repro.core.params import Parameters
from repro.core.rounds import RoundSchedule
from repro.harness.registry import REGISTRY, ExperimentPlan
from repro.harness.runner import (
    default_params,
    gradient_offsets,
    step_offsets,
)
from repro.harness.scenario import Scenario
from repro.harness.tables import Table
from repro.topology.cluster_graph import ClusterGraph


def fast_dynamics_params(rho: float = 1e-4, d: float = 1.0,
                         u: float = 0.05, f: int = 1,
                         **kwargs) -> Parameters:
    """Parameters tuned for convergence-dynamics experiments.

    ``eps = 0.2`` keeps ``E`` (and hence ``kappa`` and the rounds
    needed per kappa-level of catch-up) small; ``k_stab = 1`` shortens
    the trigger slack.  All structural relations of Eq. (5) hold.
    """
    kwargs.setdefault("eps", 0.2)
    kwargs.setdefault("k_stab", 1)
    return Parameters.practical(rho=rho, d=d, u=u, f=f, **kwargs)


# ----------------------------------------------------------------------
# T1 — Theorem 1.1: local skew vs diameter under Byzantine faults
# ----------------------------------------------------------------------

@REGISTRY.experiment(
    "t01",
    title="T1  Local skew vs diameter (Theorem 1.1)",
    claim="Line networks under one equivocator per cluster keep the "
          "steady local skew below the O(kappa log S) bounds of "
          "Theorem 1.1 at every diameter.",
    columns=["D", "global S", "local cluster", "cluster bound",
             "local node", "node bound", "holds"],
    default_seed=1)
def t01_plan(quick: bool, seed: int) -> ExperimentPlan:
    params = fast_dynamics_params(f=1)
    diameters = (2, 4, 8) if quick else (2, 4, 8, 16, 32)
    rounds = 40 if quick else 80
    # The engine-agnostic adversary spelling: on the (default) event
    # engine it runs the equivocator's own driver on each faulty
    # node, and it lets ``run_experiment("t01", engine="vectorized")``
    # move the whole grid onto the numpy round engine unchanged.
    specs = [
        Scenario.line(diameter + 1).params(params).rounds(rounds)
        .seed(seed).adversarial("equivocate")
        .offsets(gradient_offsets(diameter + 1, 2.2 * params.kappa))
        .tag("D", diameter).build()
        for diameter in diameters]

    def finish(cells, table: Table) -> Table:
        for diameter, cell, spec in zip(diameters, cells, specs):
            detail = cell.result.detail
            if isinstance(detail, dict) \
                    and detail.get("engine") == "vectorized":
                # Vectorized rows (engine override): steady skews from
                # the series tail; the cluster-round skeleton has no
                # node-level machinery, so the node column carries the
                # cluster skew against the node bound (envelope
                # contract, see repro.engine_vec.protocols).
                from repro.analysis.bounds import BoundsReport
                series = cell.result.series
                tail = series[int(len(series) * 0.7):] or series
                local = max(v for _, v, _ in tail)
                bounds = BoundsReport.for_run(
                    params, diameter,
                    global_skew=cell.result.max_global_skew)
                holds = (local <= bounds.local_skew_bound
                         and local <= bounds.node_local_skew_bound)
                table.add_row(diameter, cell.result.max_global_skew,
                              local, bounds.local_skew_bound, local,
                              bounds.node_local_skew_bound, holds)
                # Cross-engine agreement, t17-style: run the event
                # twin of the same spec and hold both engines to the
                # shared analytic envelope.
                from dataclasses import replace

                from repro.harness.sweep import SweepRunner
                twin = SweepRunner().run(
                    [replace(spec, engine="event")],
                    base_seed=spec.seed)[0]
                twin_steady = twin.steady_state_skews(
                    tail_fraction=0.3)
                agrees = (holds and twin_steady["local_cluster"]
                          <= bounds.local_skew_bound)
                table.add_note(
                    f"D={diameter}: vectorized steady local "
                    f"{local:.4g} vs event {twin_steady['local_cluster']:.4g}; "
                    f"agrees (both within cluster bound): {agrees}")
                continue
            result = detail
            steady = cell.steady_state_skews(tail_fraction=0.3)
            bounds = result.bounds
            holds = (steady["local_cluster"] <= bounds.local_skew_bound
                     and steady["local_node"]
                     <= bounds.node_local_skew_bound)
            table.add_row(diameter, result.max_global_skew,
                          steady["local_cluster"], bounds.local_skew_bound,
                          steady["local_node"],
                          bounds.node_local_skew_bound, holds)
        table.add_note(
            f"kappa={params.kappa:.4g}, one equivocator per cluster, "
            f"gradient init 2.2*kappa/edge, steady tail of {rounds} rounds")
        table.add_note("bound columns are the explicit O(kappa log S) "
                       "forms of Thm 4.10 / Thm 1.1; measured << bound "
                       "is expected")
        return table

    return ExperimentPlan(specs=specs, finish=finish)


# ----------------------------------------------------------------------
# T2 — Corollary 3.2: intra-cluster skew vs cluster size
# ----------------------------------------------------------------------

@REGISTRY.experiment(
    "t02",
    title="T2  Intra-cluster skew vs cluster size (Corollary 3.2)",
    claim="Single clusters of size 3f+1 under the strongest pulse "
          "attacks keep the steady intra-cluster skew below both "
          "forms of the Corollary 3.2 bound.",
    columns=["f", "k", "attack", "steady skew", "bound 2*theta_g*E",
             "bound B.8", "max ||p(r)||", "E", "holds"],
    default_seed=2)
def t02_plan(quick: bool, seed: int) -> ExperimentPlan:
    fault_counts = (1, 2) if quick else (1, 2, 3)
    rounds = 30 if quick else 60
    attacks = ("equivocate", "silent")
    grid = [(f, attack) for f in fault_counts for attack in attacks]
    specs = [
        Scenario.line(1).params(default_params(f=f)).rounds(rounds)
        .seed(seed).adversarial(attack).measure("pulse_diameters")
        .tag("f", f, "attack", attack).build()
        for f, attack in grid]

    def finish(cells, table: Table) -> Table:
        for (f, attack), cell in zip(grid, cells):
            params = cell.result.detail.params
            steady = cell.steady_state_skews()
            diameters = cell.pulse_diameters
            worst_pulse = max(
                (v for (_, r), v in diameters.items() if r > 3),
                default=0.0)
            holds = steady["intra"] <= params.intra_skew_bound_paper()
            table.add_row(f, params.cluster_size, attack,
                          steady["intra"],
                          params.intra_skew_bound_paper(),
                          params.intra_skew_bound(), worst_pulse,
                          params.cap_e, holds)
        table.add_note("steady skew = max over final half of samples; "
                       "||p(r)|| should stay below E")
        return table

    return ExperimentPlan(specs=specs, finish=finish)


# ----------------------------------------------------------------------
# T3 — attack gallery + the fault-intolerant GCS failure
# ----------------------------------------------------------------------

@REGISTRY.experiment(
    "t03",
    title="T3  Attack gallery (FTGCS) vs fault-intolerant GCS",
    claim="Every fault strategy leaves the FTGCS bounds intact, while "
          "the fault-intolerant GCS baseline's correct-edge local "
          "skew grows without bound under a single liar.",
    columns=["system", "attack", "intra", "local cluster",
             "bounds hold", "trend"],
    default_seed=3)
def t03_plan(quick: bool, seed: int) -> ExperimentPlan:
    params = default_params(f=1)
    rounds = 15 if quick else 40
    ring_size = 4 if quick else 6
    attacks = [
        ("silent", "silent", {}),
        ("crash@3T", "crash", {"crash_time": 3 * params.round_length}),
        ("random-pulse", "random_pulse", {"pulses_per_round": 4.0}),
        ("fast-clock", "fast_clock", {"speed_factor": 1.5}),
        ("slow-clock", "fast_clock", {"speed_factor": 0.7}),
        ("equivocate", "equivocate", {}),
        ("pull-apart", "pull_apart", {}),
        ("collusion", "collusion", {}),
    ]
    specs = [
        Scenario.ring(ring_size).params(params).rounds(rounds).seed(seed)
        .adversarial(model, **knobs).tag("attack", name).build()
        for name, model, knobs in attacks]

    # Fault-intolerant GCS: one liar, correct-edge skew ramps forever.
    gcs_params = GcsParams.default(rho=params.rho, d=params.d, u=params.u)
    horizon = 4000.0 if quick else 12000.0
    specs.append(
        Scenario.ring(6).protocol("gcs_single").seed(seed)
        .payload(params=gcs_params, until=horizon,
                 liars={0: {1: +1, 5: -1}})
        .tag("gcs", "1 liar").build())

    def finish(cells, table: Table) -> Table:
        for (name, _, _), cell in zip(attacks, cells):
            result = cell.result.detail
            steady = cell.steady_state_skews()
            table.add_row("FTGCS", name, steady["intra"],
                          steady["local_cluster"],
                          result.all_bounds_hold, "bounded")
        samples = cells[-1].result.series
        half = len(samples) // 2
        first_half = max(s[1] for s in samples[:half])
        second_half = max(s[1] for s in samples[half:])
        growing = second_half > 1.5 * first_half
        table.add_row("GCS (no FT)", "1 liar", float("nan"),
                      second_half, not growing,
                      "GROWS" if growing else "bounded")
        table.add_note("GCS (no FT) local skew is over correct edges "
                       "only; its growth under a single Byzantine node "
                       "is the paper's motivating failure")
        return table

    return ExperimentPlan(specs=specs, finish=finish)


# ----------------------------------------------------------------------
# T4 — master-slave tree: skew-wave compression (introduction / [15])
# ----------------------------------------------------------------------

@REGISTRY.experiment(
    "t04",
    title="T4  Master-slave compression vs FTGCS (intro / [15])",
    claim="A global skew S injected at the root of a line crosses "
          "every interior edge of a jump-based master-slave tree "
          "nearly in full, while FTGCS caps interior edges near "
          "2 kappa.",
    columns=["D", "S injected", "MS interior max", "FTGCS interior max",
             "FTGCS cap 2*kappa+slack", "MS/S ratio"],
    default_seed=4)
def t04_plan(quick: bool, seed: int) -> ExperimentPlan:
    params = fast_dynamics_params(f=0)
    diameters = (3, 5) if quick else (3, 5, 9)
    injected = 6.0 * params.kappa
    rounds = 25 if quick else 40
    specs = []
    for diameter in diameters:
        n = diameter + 1
        offsets = step_offsets(n, step_at=0, height=0.0)
        offsets[0] = injected  # root ahead by S
        specs.append(
            Scenario.line(n).params(params).seed(seed)
            .protocol("master_slave")
            .payload(rounds=rounds, root=0, cluster_offsets=offsets,
                     jump=True, track_edges=True)
            .tag("ms", diameter).build())
        specs.append(
            Scenario.line(n).params(params).rounds(rounds).seed(seed)
            .offsets(list(offsets)).tag("ftgcs", diameter).build())

    def finish(cells, table: Table) -> Table:
        for diameter, ms_cell, ft_cell in zip(diameters, cells[0::2],
                                              cells[1::2]):
            ms_interior = max(
                (skew for edge, skew in ms_cell.result.edge_maxima.items()
                 if 0 not in edge), default=0.0)
            ft_interior = max(
                (skew for edge, skew in ft_cell.result.edge_maxima.items()
                 if 0 not in edge), default=0.0)
            cap = 2 * params.kappa + params.delta_trigger
            table.add_row(diameter, injected, ms_interior, ft_interior,
                          cap, ms_interior / injected)
        table.add_note("interior max = worst cluster-edge skew excluding "
                       "the root edge, where S is injected; MS/S near 1 "
                       "means full compression onto interior edges")
        return table

    return ExperimentPlan(specs=specs, finish=finish)


# ----------------------------------------------------------------------
# T5 — Inequality (1): cluster failure probability
# ----------------------------------------------------------------------

@REGISTRY.experiment(
    "t05",
    title="T5  Cluster failure probability (Inequality (1))",
    claim="Monte Carlo failure rates stay below the binomial tail "
          "bound, which stays below the printed (3ep)^(f+1) form — "
          "Inequality (1) in both directions.",
    columns=["f", "p", "monte carlo", "exact tail",
             "C(3f+1,f+1)p^(f+1)", "(3ep)^(f+1)", "ordered"],
    default_seed=5)
def t05_plan(quick: bool, seed: int) -> ExperimentPlan:
    trials = 40_000 if quick else 400_000
    grid = [(f, p) for f in (1, 2, 3) for p in (0.01, 0.05, 0.1)]
    specs = []
    skip = 0
    for f, p in grid:
        specs.append(
            Scenario.of_kind("failure_mc").seed(seed)
            .payload(f=f, p=p, trials=trials, skip=skip)
            .tag("f", f, "p", p).build())
        # Every trial consumes exactly k = 3f+1 draws from the shared
        # serial stream, so the next cell's fast-forward is static.
        skip += trials * (3 * f + 1)

    def finish(cells, table: Table) -> Table:
        for (f, p), cell in zip(grid, cells):
            mc = cell.result
            exact = cluster_failure_probability(f, p)
            mid = cluster_failure_bound_binomial(f, p)
            top = cluster_failure_bound_3ep(f, p)
            ordered = mc <= mid * 1.2 + 3e-4 and mid <= top * 1.000001
            table.add_row(f, p, mc, exact, mid, top, ordered)
        table.add_note(f"{trials} Monte Carlo trials per row; 'ordered' "
                       "checks mc <~ binomial bound <= (3ep)^(f+1)")
        return table

    return ExperimentPlan(specs=specs, finish=finish)


# ----------------------------------------------------------------------
# T6 — Lemma 3.6: unanimous clusters converge tighter and keep rates
# ----------------------------------------------------------------------

@REGISTRY.experiment(
    "t06",
    title="T6  Unanimous cluster rates and errors (Lemma 3.6)",
    claim="A lagging cluster in unanimous fast mode outpaces the "
          "Lemma 3.6 rate floor while a leading cluster in unanimous "
          "slow mode stays inside the slow band, with pulse diameters "
          "contracting below the unanimous steady state.",
    columns=["cluster", "mode", "rounds", "min rate", "max rate",
             "fast floor", "slow band lo", "slow band hi", "holds"],
    default_seed=6)
def t06_plan(quick: bool, seed: int) -> ExperimentPlan:
    params = default_params(f=1)
    rounds = 25 if quick else 50
    specs = [
        Scenario.line(2).params(params).rounds(rounds).seed(seed)
        .offsets([0.0, 3.0 * params.kappa])
        .measure("unanimity", "amortized_rates", "pulse_diameters")
        .tag("two clusters").build()]

    def finish(cells, table: Table) -> Table:
        (cell,) = cells
        k_stab = params.k_stab
        fast_floor = (1 + params.phi) * (1 + 7 * params.mu / 8)
        slow_lo = (1 + params.phi) * (1 - params.mu / 8)
        slow_hi = (1 + params.phi) * (1 + params.mu / 8)
        all_rates = cell.extras["amortized_rates"]

        for cluster, expected_gamma in ((0, 1), (1, 0)):
            unanimity = cell.extras["unanimity"][cluster]
            # Longest unanimous prefix in the expected mode.
            stretch = []
            for r in sorted(unanimity):
                unanimous, gamma = unanimity[r]
                if unanimous and gamma == expected_gamma:
                    stretch.append(r)
                else:
                    break
            usable = {r for r in stretch
                      if r > k_stab and r < len(stretch)}
            rates = [rate for c, r, rate in all_rates
                     if c == cluster and r in usable]
            if not rates:
                table.add_row(cluster,
                              "fast" if expected_gamma else "slow",
                              0, float("nan"), float("nan"), fast_floor,
                              slow_lo, slow_hi, False)
                continue
            lo, hi = min(rates), max(rates)
            if expected_gamma == 1:
                holds = lo >= fast_floor * (1 - 1e-9)
                mode = "fast"
            else:
                holds = (lo >= slow_lo * (1 - 1e-9)
                         and hi <= slow_hi * (1 + 1e-9))
                mode = "slow"
            table.add_row(cluster, mode, len(usable), lo, hi, fast_floor,
                          slow_lo, slow_hi, holds)

        # Pulse-diameter comparison: unanimous steady state vs general E.
        diam = cell.pulse_diameters
        for cluster, mode in ((0, "fast"), (1, "slow")):
            entries = [v for (c, r), v in diam.items()
                       if c == cluster and r > k_stab + 2]
            worst = max(entries, default=float("nan"))
            predicted = params.unanimous_steady_state(mode)
            table.add_note(
                f"cluster {cluster} ({mode}): max ||p(r)|| after warmup "
                f"= {worst:.4g} vs e_inf_{mode} = {predicted:.4g} "
                f"vs general E = {params.cap_e:.4g}")
        return table

    return ExperimentPlan(specs=specs, finish=finish)


# ----------------------------------------------------------------------
# T7 — ablation: the amortization stretch c1 (the paper's key insight)
# ----------------------------------------------------------------------

@REGISTRY.experiment(
    "t07",
    title="T7  Ablation: amortization stretch c1 (Section 1)",
    claim="With a short phase 3 (small c1) Lynch-Welch corrections "
          "eat the entire mu speed budget and fast clusters cannot "
          "outrun slow ones; the paper's c1 = Theta(1/rho) restores "
          "the per-round gap.",
    columns=["c1", "E", "T", "min fast rate", "max slow rate",
             "worst gap", "worst gap / mu", "fast outruns slow"],
    default_seed=7)
def t07_plan(quick: bool, seed: int) -> ExperimentPlan:
    rho, d, u = 1e-4, 1.0, 0.1
    structural = (0.5 - 0.05) / ((1 + 32.0) * rho)
    c1_values = (3.0, 30.0, structural) if quick else (
        3.0, 10.0, 30.0, 100.0, structural)
    rounds = 30 if quick else 50
    param_sets = [Parameters.custom(rho=rho, d=d, u=u, f=1, c1=c1,
                                    c2=32.0, k_stab=4)
                  for c1 in c1_values]
    specs = [
        Scenario.line(2).params(params).rounds(rounds).seed(seed)
        .adversarial("equivocate")
        .offsets([0.0, 3.0 * params.kappa])
        .measure("amortized_rates")
        .tag("c1", c1).build()
        for c1, params in zip(c1_values, param_sets)]

    def finish(cells, table: Table) -> Table:
        for c1, params, cell in zip(c1_values, param_sets, cells):
            rates = {0: [], 1: []}
            for cluster, index, rate in cell.extras["amortized_rates"]:
                if params.k_stab < index < rounds - 1:
                    rates[cluster].append(rate)
            if rates[0] and rates[1]:
                # Lemma 3.6 is a *per-round* guarantee: every fast round
                # must outpace every slow round, so the worst-case gap is
                # min(fast) - max(slow).
                min_fast = min(rates[0])
                max_slow = max(rates[1])
                gap = min_fast - max_slow
            else:
                min_fast = max_slow = gap = float("nan")
            table.add_row(c1, params.cap_e, params.round_length, min_fast,
                          max_slow, gap, gap / params.mu, gap > 0)
        table.add_note("lagging cluster 0 is fast-triggered, leading "
                       "cluster 1 slow-triggered; one equivocator per "
                       "cluster supplies the adversarial correction "
                       "noise; small c1 (short phase 3) lets per-round "
                       "corrections eat the entire mu budget")
        return table

    return ExperimentPlan(specs=specs, finish=finish)


# ----------------------------------------------------------------------
# T8 — overhead accounting: O(f) nodes, O(f^2) edges (Theorem 1.1)
# ----------------------------------------------------------------------

@REGISTRY.experiment(
    "t08",
    title="T8  Augmentation overheads (Theorem 1.1)",
    claim="The augmentation multiplies node counts by exactly "
          "k = 3f+1 = O(f) and edge counts by O(f^2) on every "
          "topology.",
    columns=["graph", "f", "k", "nodes", "node factor", "edges",
             "edge factor"],
    default_seed=8)
def t08_plan(quick: bool, seed: int) -> ExperimentPlan:
    graphs = [("line", (8,)), ("ring", (8,)), ("grid", (4, 4))]
    if not quick:
        graphs += [("torus", (4, 4)), ("hypercube", (4,)),
                   ("balanced_tree", (2, 4))]
    specs = [
        Scenario.on(graph, *args).kind("augment_counts")
        .payload(fault_counts=(0, 1, 2, 3))
        .seed(seed).tag("graph", graph).build()
        for graph, args in graphs]

    def finish(cells, table: Table) -> Table:
        for cell in cells:
            counts = cell.result
            base_nodes = counts["clusters"]
            base_edges = counts["edges"]
            for f, k, nodes, edges in counts["rows"]:
                table.add_row(counts["name"], f, k, nodes,
                              nodes / base_nodes, edges,
                              edges / max(base_edges, 1))
        table.add_note("node factor = k = 3f+1 = O(f); edge factor -> "
                       "k^2 + k(k-1)/2 per original edge/cluster = "
                       "O(f^2)")
        return table

    return ExperimentPlan(specs=specs, finish=finish)


# ----------------------------------------------------------------------
# T9 — Theorem C.3: global skew O(delta * D) and the max-rule rescue
# ----------------------------------------------------------------------

@REGISTRY.experiment(
    "t09",
    title="T9  Global skew (Theorem C.3)",
    claim="Global skew stays below c_global * delta * (D+1) across "
          "diameters, and a lagging tail only recovers under the "
          "Theorem C.3 max-rule — slow-default freezes below the "
          "trigger thresholds forever.",
    columns=["scenario", "D", "policy", "global skew",
             "bound c*delta*(D+1)", "holds"],
    default_seed=9)
def t09_plan(quick: bool, seed: int) -> ExperimentPlan:
    params = fast_dynamics_params(f=1, c_global=2.0)
    diameters = (2, 4) if quick else (2, 4, 8)
    rounds = 20 if quick else 40
    # repro: allow[raw-rng] -- t09's offset stream predates derive_seed;
    # re-deriving it would redraw every initial offset and change the
    # published table bytes.
    rng = random.Random(seed)
    specs = []
    for diameter in diameters:
        n = diameter + 1
        offsets = [rng.uniform(-params.kappa, params.kappa)
                   for _ in range(n)]
        specs.append(
            Scenario.line(n).params(params).rounds(rounds).seed(seed)
            .configure(cluster_offsets=offsets, policy="max_rule",
                       enable_max_estimate=True)
            .tag("random init", diameter).build())

    # (b) lagging-tail convergence: last two clusters far behind.
    n = 5
    lag = (params.c_global * params.delta_trigger + 2.0 * params.kappa)
    offsets = [0.0, 0.0, 0.0, -lag, -lag]
    tail_rounds = 140 if quick else 200
    policies = ("slow_default", "max_rule")
    for policy in policies:
        specs.append(
            Scenario.line(n).params(params).rounds(tail_rounds).seed(seed)
            .configure(cluster_offsets=list(offsets), policy=policy,
                       enable_max_estimate=policy == "max_rule",
                       max_estimate_unit=params.kappa,
                       record_series=True)
            .tag("lagging tail", policy).build())

    def finish(cells, table: Table) -> Table:
        for cell in cells[:len(diameters)]:
            result = cell.result.detail
            table.add_row("random init", cell.key[1], "max_rule",
                          result.max_global_skew,
                          result.bounds.global_skew_bound,
                          result.within_global_bound)
        for policy, cell in zip(policies, cells[len(diameters):]):
            series = cell.result.series
            recovered = next(
                (s.time for s in series if s.global_skew < 0.9 * lag),
                float("inf"))
            table.add_row("lagging tail", n - 1, policy, recovered,
                          float("nan"), True)
        table.add_note("for 'lagging tail' rows the 'global skew' "
                       "column is the time until the tail recovered "
                       "10% of its lag")
        table.add_note("with slow_default the partial gradient freezes "
                       "below the trigger thresholds and the tail NEVER "
                       "recovers (inf) — the M_v rule of Theorem C.3 is "
                       "what bounds the global skew")
        return table

    return ExperimentPlan(specs=specs, finish=finish)


# ----------------------------------------------------------------------
# T10 — Lemmas 4.5 / 4.8: trigger exclusion and faithfulness
# ----------------------------------------------------------------------

@REGISTRY.experiment(
    "t10",
    title="T10  Trigger exclusion & faithfulness (Lemmas 4.5/4.8)",
    claim="No simulated round ever satisfies both triggers, and "
          "conditions on true cluster clocks always imply the "
          "matching trigger on estimates perturbed by up to 2E.",
    columns=["check", "cases", "violations"],
    default_seed=10)
def t10_plan(quick: bool, seed: int) -> ExperimentPlan:
    params = default_params(f=1)
    rounds = 12 if quick else 30
    graphs = (("line", (3,)), ("ring", (4,)))
    specs = []
    for graph, args in graphs:
        num_clusters = getattr(ClusterGraph, graph)(*args).num_clusters
        specs.append(
            Scenario.on(graph, *args).params(params).rounds(rounds)
            .seed(seed).adversarial("equivocate")
            .offsets(gradient_offsets(num_clusters, 1.5 * params.kappa))
            .tag("exclusion", graph).build())
    trials = 4000 if quick else 40_000
    specs.append(
        Scenario.of_kind("trigger_fuzz").seed(seed)
        .payload(trials=trials, kappa=params.kappa,
                 slack=params.delta_trigger, err=2.0 * params.cap_e)
        .tag("faithfulness").build())

    def finish(cells, table: Table) -> Table:
        simulated = cells[:len(graphs)]
        both = sum(cell.result.detail.both_triggers_rounds
                   for cell in simulated)
        decided = sum(cell.result.detail.fast_rounds
                      + cell.result.detail.slow_rounds
                      for cell in simulated)
        table.add_row("FT & ST simultaneously (simulated rounds)",
                      decided, both)
        table.add_row("FC/SC without matching FT/ST (randomized)",
                      trials, cells[-1].result)
        table.add_note("both checks must report 0 violations")
        return table

    return ExperimentPlan(specs=specs, finish=finish)


# ----------------------------------------------------------------------
# T11 — Appendix A: Lynch–Welch vs Srikanth–Toueg clique skew
# ----------------------------------------------------------------------

@REGISTRY.experiment(
    "t11",
    title="T11  Lynch-Welch vs Srikanth-Toueg cliques (Appendix A)",
    claim="As U shrinks relative to d, Lynch-Welch's measured clique "
          "skew tracks its O(U + (theta-1)d) bound while "
          "Srikanth-Toueg carries an O(d) worst case.",
    columns=["U/d", "LW steady skew", "LW bound", "ST steady skew",
             "ST bound O(d)"],
    default_seed=11)
def t11_plan(quick: bool, seed: int) -> ExperimentPlan:
    rho, d = 1e-4, 1.0
    u_values = (0.2, 0.05) if quick else (0.5, 0.2, 0.05, 0.01)
    rounds = 25 if quick else 60
    param_sets = [default_params(rho=rho, d=d, u=u, f=1)
                  for u in u_values]
    specs = []
    for u, params in zip(u_values, param_sets):
        specs.append(
            Scenario.of_protocol("lynch_welch")
            .params(params).rounds(rounds).seed(seed)
            .adversarial("equivocate").configure(init_jitter=u / 2)
            .tag("lw", u).build())
        specs.append(
            Scenario.of_protocol("srikanth_toueg").seed(seed)
            .payload(params=StParams(n=4, f=1, rho=rho, d=d, u=u,
                                     period=params.round_length),
                     silent_faults=1, rounds=rounds)
            .tag("st", u).build())

    def finish(cells, table: Table) -> Table:
        for (u, params), lw_cell, st_cell in zip(
                zip(u_values, param_sets), cells[0::2], cells[1::2]):
            lw_steady = lw_cell.steady_state_skews()["intra"]
            table.add_row(u / d, lw_steady,
                          params.intra_skew_bound_paper(),
                          st_cell.result.detail, 2.0 * d)
        table.add_note("LW bound = 2*theta_g*E = O(U + rho*d); ST's "
                       "O(d) worst case needs adversarial "
                       "delay+equivocation schedules; benign "
                       "measurements for both are U-dominated (see "
                       "EXPERIMENTS.md discussion)")
        return table

    return ExperimentPlan(specs=specs, finish=finish)


# ----------------------------------------------------------------------
# T12 — Proposition B.14 / Corollary B.13: convergence from loose init
# ----------------------------------------------------------------------

@REGISTRY.experiment(
    "t12",
    title="T12  Convergence from loose initialization (Prop. B.14)",
    claim="Started with pulse spread ~ e(1) >> E under the adaptive "
          "round schedule, measured ||p(r)|| stays below the "
          "predicted e(r) as it contracts geometrically to E.",
    columns=["round", "predicted e(r)", "measured ||p(r)||", "within"],
    default_seed=12)
def t12_plan(quick: bool, seed: int) -> ExperimentPlan:
    params = default_params(f=1)
    e1 = 20.0 * params.cap_e
    rounds = 30 if quick else 80
    specs = [
        Scenario.line(1).params(params).rounds(rounds).seed(seed)
        .configure(e1=e1, init_jitter=e1 / 2.0)
        .measure("pulse_diameters")
        .tag("e1", e1).build()]

    def finish(cells, table: Table) -> Table:
        (cell,) = cells
        schedule = RoundSchedule(params, e1=e1)
        diameters = cell.pulse_diameters
        report_rounds = [1, 2, 3, 5, 8, 12, 20, rounds]
        for r in report_rounds:
            measured = diameters.get((0, r))
            if measured is None:
                continue
            predicted = schedule.e(r)
            table.add_row(r, predicted, measured, measured <= predicted)
        table.add_note(f"e(1) = 20E = {e1:.4g}; e(r+1) = alpha*e(r) + "
                       f"beta with alpha = {params.alpha:.4f}")
        return table

    return ExperimentPlan(specs=specs, finish=finish)


# ----------------------------------------------------------------------
# T13 — dynamic networks: skew vs edge churn (Kuhn et al. direction)
# ----------------------------------------------------------------------

#: GCS-baseline parameters for the dynamic/parameter-grid workloads:
#: drift fast enough (rho = 1e-2) that trigger-driven corrections
#: happen within a quick-mode horizon.
def _fast_gcs_params(mu: float = 0.05, period: float = 2.0) -> GcsParams:
    return GcsParams.default(rho=1e-2, d=1.0, u=0.05, mu=mu,
                             period=period)


@REGISTRY.experiment(
    "t13",
    title="T13  Dynamic networks: skew vs edge churn (Kuhn et al.)",
    claim="Under i.i.d. edge churn applied through the topology "
          "schedule, FTGCS and the fault-intolerant GCS baseline both "
          "degrade gracefully on line/ring/grid; the sweep quantifies "
          "skew growth against the churn rate for each.  An "
          "adversarial cut-sweep row (first-contact estimator "
          "bring-up enabled) measures the worst case: the topology is "
          "disconnected at every step, yet skew stabilizes after the "
          "events.",
    columns=["graph", "churn", "ftgcs local", "ftgcs global",
             "gcs local", "gcs global"],
    default_seed=13)
def t13_plan(quick: bool, seed: int) -> ExperimentPlan:
    params = fast_dynamics_params(f=1)
    gcs_params = _fast_gcs_params()
    graphs = [("line", (4,)), ("ring", (4,))]
    if not quick:
        graphs.append(("grid", (3, 3)))
    churn_rates = (0.0, 0.25, 0.5)
    rounds = 10 if quick else 25
    interval = 2.0 * params.round_length
    gcs_horizon = 600.0 if quick else 1500.0
    gcs_interval = 50.0

    grid = [(graph, args, churn) for graph, args in graphs
            for churn in churn_rates]
    specs = []
    for graph, args, churn in grid:
        specs.append(
            Scenario.on(graph, *args).params(params).rounds(rounds)
            .dynamic("churn", interval=interval, churn=churn)
            .tag("ftgcs", graph, churn).build())
        specs.append(
            Scenario.on(graph, *args).protocol("gcs_single")
            .dynamic("churn", interval=gcs_interval, churn=churn)
            .payload(params=gcs_params, until=gcs_horizon)
            .tag("gcs", graph, churn).build())

    # Appended after the churn grid so the derived per-cell seeds of
    # the existing cells (and hence the existing rows) stay
    # byte-identical: the adversarial cut-sweep pair, with
    # first-contact estimator bring-up on the FTGCS side.
    sweep_rounds = 12 if quick else 30
    specs.append(
        Scenario.line(4).params(params).rounds(sweep_rounds)
        .dynamic("adversarial_sweep", interval=interval)
        .first_contact()
        .tag("ftgcs", "line-sweep", "adv").build())
    specs.append(
        Scenario.line(4).protocol("gcs_single")
        .dynamic("adversarial_sweep", interval=gcs_interval)
        .payload(params=gcs_params, until=gcs_horizon)
        .tag("gcs", "line-sweep", "adv").build())

    def finish(cells, table: Table) -> Table:
        churn_cells = cells[:2 * len(grid)]
        for (graph, args, churn), ft_cell, gcs_cell in zip(
                grid, churn_cells[0::2], churn_cells[1::2]):
            ft = ft_cell.result
            gcs = gcs_cell.result
            table.add_row(f"{graph}{args}", churn,
                          ft.max_local_skew, ft.max_global_skew,
                          gcs.max_local_skew, gcs.max_global_skew)
        adv_ft, adv_gcs = cells[2 * len(grid):]
        ft = adv_ft.result
        gcs = adv_gcs.result
        table.add_row("line(4,)", "sweep",
                      ft.max_local_skew, ft.max_global_skew,
                      gcs.max_local_skew, gcs.max_global_skew)
        table.add_note(
            f"edges flap i.i.d. per interval (ftgcs: every "
            f"{interval:.3g}, gcs: every {gcs_interval:.3g}); down "
            f"edges drop messages while estimators coast; GCS local "
            f"skew is measured over currently active correct edges")
        table.add_note("the two algorithms run their own parameter "
                       "scales (FTGCS: rho=1e-4 cluster params; GCS: "
                       "rho=1e-2 fast-drift params), so compare trends "
                       "down a column, not across algorithms")
        detail = ft.detail
        table.add_note(
            f"'sweep' row: an adversarial cut walks the line (one "
            f"step per {interval:.3g}, disconnecting the graph each "
            f"step) with first-contact estimator bring-up enabled "
            f"({detail.estimator_bring_ups} bring-ups, "
            f"{detail.estimator_resyncs} resyncs, "
            f"{adv_ft.result.messages_dropped} messages dropped); "
            f"local skew stabilizes into its steady band by "
            f"t={ft.stabilization_time:.4g}")
        return table

    return ExperimentPlan(specs=specs, finish=finish)


# ----------------------------------------------------------------------
# T14 — Gradient-TRIX-style parameter grid (Lenzen & Srinivas direction)
# ----------------------------------------------------------------------

#: Deterministic eps ladder searched (in order) when mapping a GCS
#: baseline ``mu`` onto a feasible FTGCS parameter set: aggressive mu
#: needs a larger eps before the Eq. (10) contraction ``alpha < 1``
#: admits a fixed point (and past ``mu ~ 0.05`` no eps does — the
#: feasibility frontier of the paper's construction sits *inside* the
#: baseline's design space, which T14 reports explicitly).
FTGCS_MU_EPS_LADDER = (0.2, 0.25, 0.3, 0.35, 0.4, 0.44)


def ftgcs_params_for_mu(mu: float, d: float = 1.0,
                        u: float = 0.05) -> Parameters | None:
    """Feasible FTGCS parameters with exactly this ``mu``, or ``None``.

    ``rho = mu / 32`` keeps the Eq. (5) structure ``mu = c2 * rho``
    with ``c2 = 32`` (the division by a power of two is float-exact,
    so ``params.mu == mu`` bit-for-bit); eps is taken from
    :data:`FTGCS_MU_EPS_LADDER`, first feasible wins.  Deterministic:
    the same ``mu`` always maps to the same parameters, on any
    machine.
    """
    from repro.errors import ParameterError

    rho = mu / 32.0
    for eps in FTGCS_MU_EPS_LADDER:
        try:
            return Parameters.practical(rho=rho, d=d, u=u, f=1,
                                        eps=eps, k_stab=1)
        except ParameterError:
            continue
    return None


@REGISTRY.experiment(
    "t14",
    title="T14  Gradient-TRIX parameter grid: skew vs mu across D",
    claim="Across the mu/period design space of the gradient "
          "algorithm — now including full-scale diameters D=32/64 — "
          "the steady local skew tracks the trigger unit kappa "
          "(log-log fit of skew against kappa near slope 1 with small "
          "residual) and its kappa-normalized value stays flat in the "
          "diameter; FTGCS swept over the same mu grid tracks its own "
          "kappa until the Eq. (5) feasibility frontier, which lies "
          "inside the baseline's design space — the trade-off "
          "Gradient-TRIX navigates in hardware.",
    columns=["protocol", "D", "mu", "kappa", "steady local",
             "steady global", "local/kappa", "kappa-fit slope",
             "kappa-fit residual"],
    default_seed=14)
def t14_plan(quick: bool, seed: int) -> ExperimentPlan:
    diameters = (4, 8, 32, 64) if quick else (4, 8, 16, 32, 64)
    mu_values = (0.02, 0.05, 0.1) if quick else (0.02, 0.05, 0.1, 0.2)
    horizon = 400.0 if quick else 1200.0
    grid = [(diameter, mu) for diameter in diameters
            for mu in mu_values]
    specs = [
        Scenario.line(diameter + 1).protocol("gcs_single").seed(seed)
        .payload(params=_fast_gcs_params(mu=mu), until=horizon)
        .tag("D", diameter, "mu", mu).build()
        for diameter, mu in grid]

    # FTGCS comparison block: the same mu grid, one cell per feasible
    # mu (see ftgcs_params_for_mu) on a fixed-diameter line with a
    # trigger-forcing initial gradient, fault-free.
    ftgcs_d = 4
    ftgcs_rounds = 12 if quick else 25
    ftgcs_params = {mu: ftgcs_params_for_mu(mu) for mu in mu_values}
    for mu in mu_values:
        params = ftgcs_params[mu]
        if params is None:
            continue
        specs.append(
            Scenario.line(ftgcs_d + 1).params(params)
            .rounds(ftgcs_rounds).seed(seed)
            .offsets(gradient_offsets(ftgcs_d + 1, 2.2 * params.kappa))
            .tag("ftgcs", "mu", mu).build())

    def finish(cells, table: Table) -> Table:
        # (protocol, D, mu, kappa, steady local, steady global); NaN
        # kappa marks an infeasible FTGCS cell (no simulation ran).
        rows: list[tuple] = []
        for (diameter, mu), cell in zip(grid, cells):
            kappa = _fast_gcs_params(mu=mu).kappa
            samples = cell.result.series
            tail = samples[len(samples) // 2:]
            steady_local = max((s[1] for s in tail), default=0.0)
            steady_global = max((s[2] for s in tail), default=0.0)
            rows.append(("gcs", diameter, mu, kappa, steady_local,
                         steady_global))
        ftgcs_cells = iter(cells[len(grid):])
        for mu in mu_values:
            params = ftgcs_params[mu]
            if params is None:
                # None (rendered "-"), not NaN: infeasible cells must
                # compare equal across runs for the pool-invariance
                # and artifact-diff checks.
                rows.append(("ftgcs", ftgcs_d, mu, None, None, None))
                continue
            cell = next(ftgcs_cells)
            steady = cell.steady_state_skews()
            rows.append(("ftgcs", ftgcs_d, mu, params.kappa,
                         steady["local_cluster"], steady["global"]))

        # Per-(protocol, D) kappa-vs-measured-local-skew regression
        # across the mu axis (pure arithmetic on the rows above, so
        # serial and pooled sweeps stay bit-identical).
        groups: dict[tuple[str, int], list[tuple[float, float]]] = {}
        for protocol, diameter, _mu, kappa, local, _global in rows:
            points = groups.setdefault((protocol, diameter), [])
            if kappa is not None and kappa > 0 and local > 0:
                points.append((kappa, local))
        fits = {}
        for key, points in groups.items():
            if len(points) >= 2:
                slope, _intercept, residual = log_log_fit(
                    [p[0] for p in points], [p[1] for p in points])
                fits[key] = (slope, residual)
            else:
                fits[key] = (None, None)
        for protocol, diameter, mu, kappa, local, global_ in rows:
            contributed = kappa is not None and kappa > 0 and local > 0
            # Rows outside the fit's point set (infeasible mu) show no
            # fit either — a dashed row must not display a regression
            # it contributed nothing to.
            slope, residual = (fits[(protocol, diameter)]
                               if contributed else (None, None))
            ratio = local / kappa if contributed else None
            table.add_row(protocol, diameter, mu, kappa, local, global_,
                          ratio, slope, residual)
        table.add_note("steady skews = max over the final half of "
                       "samples; gcs rows: fault-free lines with "
                       "alternating drift rates, rho=1e-2, period=2d; "
                       "ftgcs rows: fault-free line D=4, gradient "
                       "init 2.2*kappa/edge, Eq. (5) params with "
                       "mu = 32*rho")
        table.add_note("kappa-fit slope/residual: least-squares fit "
                       "of ln(steady local) against ln(kappa) across "
                       "the mu grid, per (protocol, D) row group — "
                       "slope near 1 means the measured skew tracks "
                       "the trigger unit proportionally (the "
                       "Gradient-TRIX regression)")
        infeasible = [mu for mu in mu_values if ftgcs_params[mu] is None]
        if infeasible:
            table.add_note(
                f"dashed ftgcs rows: mu in {infeasible} admits no "
                f"alpha < 1 fixed point on the eps ladder "
                f"{FTGCS_MU_EPS_LADDER} — the Eq. (5) feasibility "
                f"frontier lies inside the baseline's mu range")
        return table

    return ExperimentPlan(specs=specs, finish=finish)


# ----------------------------------------------------------------------
# T15 — T-interval connectivity vs measured local skew (Kuhn et al.)
# ----------------------------------------------------------------------

@REGISTRY.experiment(
    "t15",
    title="T15  T-interval connectivity vs local skew (Kuhn et al.)",
    claim="Against a worst-case T-interval-connected adversary (a "
          "rotating spanning backbone; every non-backbone edge down), "
          "FTGCS with first-contact estimator bring-up keeps the "
          "local skew bounded at every T, degrading as T shrinks — "
          "smaller T means a faster-rotating backbone, more "
          "first-contact events, and longer stabilization.",
    columns=["graph", "T", "local skew", "global skew", "bring-ups",
             "resyncs", "stabilized by"],
    default_seed=15)
def t15_plan(quick: bool, seed: int) -> ExperimentPlan:
    params = fast_dynamics_params(f=1)
    graphs = [("ring", (4,))]
    if not quick:
        graphs.append(("grid", (3, 3)))
    t_values = (1, 2, 4) if quick else (1, 2, 4, 8)
    rounds = 15 if quick else 40
    interval = params.round_length

    grid = [(graph, args, T) for graph, args in graphs
            for T in t_values]
    specs = [
        Scenario.on(graph, *args).params(params).rounds(rounds)
        .dynamic("t_interval", interval=interval, T=T)
        .first_contact()
        .tag(graph, T).build()
        for graph, args, T in grid]

    def finish(cells, table: Table) -> Table:
        for (graph, args, T), cell in zip(grid, cells):
            result = cell.result
            detail = result.detail
            table.add_row(f"{graph}{args}", T,
                          result.max_local_skew, result.max_global_skew,
                          detail.estimator_bring_ups,
                          detail.estimator_resyncs,
                          result.stabilization_time)
        table.add_note(
            f"T-interval connectivity: the adversary keeps one seeded "
            f"random spanning tree up per epoch of T intervals (each "
            f"tree lives two epochs, so every sliding window of T "
            f"intervals contains a stable connected spanning "
            f"subgraph) and kills every other edge; interval = "
            f"{interval:.4g} (one round)")
        table.add_note("'stabilized by' = time of the last local-skew "
                       "sample above 1.2x the steady (final-30%) "
                       "level; estimators warm up (one completed "
                       "exchange) before entering the trigger "
                       "aggregation")
        return table

    return ExperimentPlan(specs=specs, finish=finish)


# ----------------------------------------------------------------------
# T16 — Robustness: message loss x node churn (deployment-grade faults)
# ----------------------------------------------------------------------

@REGISTRY.experiment(
    "t16",
    title="T16  Robustness: skew vs message loss and node churn",
    claim="Under deployment-grade fault injection — Bernoulli message "
          "loss on every link and whole-node crash-and-rejoin churn "
          "(rejoin with protocol-state amnesia through the bring-up "
          "path) — every faulted cell degrades relative to the "
          "fault-free corner and FTGCS re-enters its steady band "
          "after each churn wave.  FTGCS skew peaks at *moderate* "
          "loss: heavy loss starves estimates low and the triggers "
          "fail slow (the sound direction), trading clock progress "
          "for gradient.  The zero/zero corner is bit-identical to "
          "the fault-free tables.",
    columns=["protocol", "loss", "churn", "steady local skew",
             "stabilized by", "lost", "link-down", "crashes", "rejoins"],
    default_seed=16)
def t16_plan(quick: bool, seed: int) -> ExperimentPlan:
    params = fast_dynamics_params(f=1)
    gcs_params = _fast_gcs_params()
    loss_rates = (0.0, 0.05, 0.2) if quick else (0.0, 0.02, 0.05,
                                                 0.1, 0.2)
    churn_rates = (0.0, 0.1) if quick else (0.0, 0.05, 0.15)
    rounds = 12 if quick else 30
    ms_rounds = 15 if quick else 40
    reps = 2 if quick else 4
    interval = 2.0 * params.round_length
    gcs_horizon = 600.0 if quick else 1500.0
    gcs_interval = 50.0
    rejoin = 0.8

    def churned(scenario, crash, churn_interval, protect=()):
        if crash == 0.0:
            # No schedule at all: the fault-free corner runs the
            # exact static code path (byte-identity, not just zero
            # counters).
            return scenario
        return scenario.churn_nodes(interval=churn_interval,
                                    crash=crash, rejoin=rejoin,
                                    protect=protect)

    grid = [(loss, churn) for loss in loss_rates
            for churn in churn_rates]
    specs = []
    for loss, churn in grid:
        for rep in range(reps):
            specs.append(
                churned(Scenario.line(4).params(params).rounds(rounds)
                        .lossy(rate=loss), churn, interval)
                .tag("ftgcs", loss, churn, rep).build())
        for rep in range(reps):
            specs.append(
                churned(Scenario.line(4).protocol("gcs_single")
                        .payload(params=gcs_params, until=gcs_horizon)
                        .lossy(rate=loss), churn, gcs_interval)
                .tag("gcs_single", loss, churn, rep).build())
        # Master-slave: churn is link silencing only (no bring-up
        # path to lose state through); the root is protected so the
        # tree still has a master to chase.
        for rep in range(reps):
            specs.append(
                churned(Scenario.line(4).protocol("master_slave")
                        .params(params).rounds(ms_rounds)
                        .payload(record_series=True)
                        .lossy(rate=loss), churn, interval,
                        protect=(0,))
                .tag("master_slave", loss, churn, rep).build())

    def steady_local(result) -> float:
        """Steady-band local skew: max over the final 30% of samples
        (the level the run settles to under *sustained* faults)."""
        series = result.series
        if not series:
            return result.max_local_skew
        if isinstance(series[0], tuple):  # gcs: (t, local, global)
            locals_ = [s[1] for s in series]
        else:  # SkewSnapshot list
            locals_ = [s.max_local_cluster for s in series]
        return max(locals_[int(len(locals_) * 0.7):])

    def finish(cells, table: Table) -> Table:
        per_point = 3 * reps
        for (loss, churn), index in zip(
                grid, range(0, len(cells), per_point)):
            point = cells[index:index + per_point]
            for offset in range(0, per_point, reps):
                group = point[offset:offset + reps]
                results = [cell.result for cell in group]
                settles = [r.stabilization_time for r in results
                           if r.stabilization_time is not None]
                table.add_row(
                    group[0].key[0], loss, churn,
                    math.fsum(steady_local(r) for r in results) / reps,
                    (math.fsum(settles) / len(settles) if settles
                     else float("nan")),
                    sum(r.messages_lost for r in results),
                    sum(r.dropped_link_down for r in results),
                    sum(r.node_crashes for r in results),
                    sum(r.node_rejoins for r in results))
        table.add_note(
            f"loss: i.i.d. Bernoulli per message from a dedicated "
            f"seed stream (delay draws untouched); churn: every "
            f"interval (ftgcs/ms: {interval:.3g}, gcs: "
            f"{gcs_interval:.3g}) each alive node crashes with the "
            f"churn probability and each crashed one rejoins with "
            f"p={rejoin:g} — whole node dark, state lost, rejoin "
            f"through the amnesiac bring-up path")
        table.add_note(
            "master_slave churn silences links only (its root is "
            "protected); the three algorithms run their own parameter "
            "scales, so compare trends down a column, not across "
            "algorithms")
        table.add_note(
            f"'stabilized by' = time of the last local-skew sample "
            f"above 1.2x the steady (final-30%) level; 'lost' counts "
            f"random-loss drops, 'link-down' drops on dark links; "
            f"skew/stabilization are means over {reps} seeds, "
            f"counters are totals")
        table.add_note(
            "FTGCS skew is not monotone in loss: moderate loss "
            "maximizes asymmetric estimate staleness, while heavy "
            "loss starves estimates low so triggers fail slow — the "
            "skew tightens but the clocks visibly lag real time "
            "(progress, not gradient, is what heavy loss costs)")
        return table

    return ExperimentPlan(specs=specs, finish=finish)


# ----------------------------------------------------------------------
# T17 — vectorized engine: cross-engine agreement and scale
# ----------------------------------------------------------------------

@REGISTRY.experiment(
    "t17",
    title="T17  Vectorized engine: skew agreement and scale",
    claim="The struct-of-arrays round engine reproduces the event "
          "engine's GCS skews within one trigger-level width at every "
          "small diameter, and extends the same sweep to "
          "caterpillar graphs of 1e5+ nodes at diameter 256 — sizes "
          "the event kernel cannot touch — reporting measured "
          "rounds/s for both engines.",
    columns=["topology", "D", "nodes", "engine", "rounds",
             "local skew", "global skew", "rounds/s", "agrees"],
    default_seed=17)
def t17_plan(quick: bool, seed: int) -> ExperimentPlan:
    # The drift-sawtooth cell of the equivalence matrix: odd/even
    # neighbors drift apart at rho per unit time, hit the first
    # trigger level (2*kappa - slack), and fast mode pulls them back.
    # kappa is one level width — the documented cross-engine
    # tolerance (at most one round of trigger-decision divergence).
    gcs = GcsParams(rho=1e-3, d=1.0, u=0.01, mu=0.01, period=10.0,
                    kappa=0.3, slack=0.1)
    small_d = (4, 8, 16) if quick else (4, 8, 16, 32, 64)
    small_rounds = 100
    small_until = small_rounds * gcs.period
    # Big cells: caterpillar(length, width) has length * width nodes
    # but diameter length + 1 — node count and diameter decoupled, so
    # D=256 coexists with 1e5 (quick) / 1e6 (full) nodes.  Diameters
    # are computed from the construction, never via graph.diameter()
    # (an O(n^2) BFS at these sizes).
    if quick:
        big = [(63, 160, 50), (255, 393, 50)]      # ~10k, ~100k nodes
    else:
        big = [(63, 1600, 100), (255, 3922, 100)]  # ~100k, ~1e6 nodes

    specs = []
    for d in small_d:
        base = (Scenario.line(d + 1).protocol("gcs_single")
                .payload(params=gcs, until=small_until)
                .seed(seed).timed())
        for engine in ("event", "vectorized"):
            specs.append(base.engine(engine)
                         .tag("line", d, engine).build())
    for length, width, rounds in big:
        specs.append(
            Scenario.on("caterpillar", length, width)
            .protocol("gcs_single").engine("vectorized")
            .payload(params=gcs, until=rounds * gcs.period)
            .seed(seed).timed()
            .tag("caterpillar", length + 1, "vectorized").build())

    def finish(cells, table: Table) -> Table:
        def add_row(cell, nodes, rounds, agrees):
            topology, d, engine = cell.key
            result = cell.result
            wall = cell.extras["timing"]["wall_seconds"]
            table.add_row(topology, d, nodes, engine, rounds,
                          result.max_local_skew,
                          result.max_global_skew,
                          (rounds / wall if wall > 0
                           else float("nan")), agrees)

        index = 0
        for d in small_d:
            event_cell = cells[index]
            vec_cell = cells[index + 1]
            index += 2
            agrees = (
                abs(vec_cell.result.max_local_skew
                    - event_cell.result.max_local_skew) <= gcs.kappa
                and abs(vec_cell.result.max_global_skew
                        - event_cell.result.max_global_skew)
                <= gcs.kappa)
            add_row(event_cell, d + 1, small_rounds, "-")
            add_row(vec_cell, d + 1, small_rounds, agrees)
        for (length, width, rounds), cell in zip(big, cells[index:]):
            add_row(cell, length * width, rounds, "-")
        table.add_note(
            f"agrees: the vectorized row's skews match the event row "
            f"above it within one trigger-level width "
            f"(kappa = {gcs.kappa:g}) — the documented tolerance of "
            f"the engine equivalence contract "
            f"(repro.engine_vec.equivalence)")
        table.add_note(
            "rounds/s is in-worker wall clock (machine-dependent, "
            "excluded from determinism guarantees); every skew column "
            "is bit-reproducible")
        table.add_note(
            "caterpillar(length, width): spine of `length` hubs with "
            "width-1 leaves each — n = length*width nodes at diameter "
            "length+1, so the D=256 rows carry 1e5+ nodes; vectorized "
            "only (the event kernel would need ~n*rounds events)")
        return table

    return ExperimentPlan(specs=specs, finish=finish)


# ----------------------------------------------------------------------
# T18 — adversarial resilience: injected error vs achieved skew
# ----------------------------------------------------------------------

@REGISTRY.experiment(
    "t18",
    title="T18  Adversarial resilience: injected error vs achieved "
          "skew",
    claim="Amplitude-capped adversaries — static and search-based "
          "adaptive, engine-agnostic through the unified "
          "AdversaryModel layer — stay within the absorption envelope "
          "on the deadband-protected protocols (sub-deadband lies are "
          "absorbed outright), adaptive search dominates every static "
          "pattern at equal budget, and the vectorized injection path "
          "sustains 1e4+-node sweeps at measured rounds/s.",
    columns=["protocol", "adversary", "amplitude", "engine", "nodes",
             "local skew", "extra", "envelope", "within", "rounds/s"],
    default_seed=18)
def t18_plan(quick: bool, seed: int) -> ExperimentPlan:
    ft = fast_dynamics_params(f=1)
    gcs = GcsParams(rho=1e-3, d=1.0, u=0.01, mu=0.01, period=10.0,
                    kappa=0.3, slack=0.1)
    st = StParams(n=8, f=2, rho=1e-3, d=1.0, u=0.01, period=10.0)
    ft_n, gcs_n = 6, 16
    ft_rounds = 40 if quick else 80
    gcs_until = (40 if quick else 100) * gcs.period
    st_rounds = 20 if quick else 60
    # Challenge amplitudes sit well above each protocol's deadband
    # (2*kappa - slack); the "_lo" rows sit below it, exhibiting
    # outright absorption.  The clique has no deadband: its envelope
    # is the lie itself plus the jitter width.
    ft_amp, ft_amp_lo = 2.5 * ft.kappa, 0.5 * ft.kappa
    gcs_amp, gcs_amp_lo = 4.0 * gcs.kappa, 0.5 * gcs.kappa
    st_amp, st_amp_lo = st.d, 0.1 * st.d

    def ft_cell() -> Scenario:
        return (Scenario.line(ft_n).params(ft).rounds(ft_rounds)
                .seed(seed))

    def gcs_cell() -> Scenario:
        return (Scenario.line(gcs_n).protocol("gcs_single")
                .payload(params=gcs, until=gcs_until).seed(seed))

    def st_cell() -> Scenario:
        return (Scenario.of_protocol("srikanth_toueg")
                .payload(params=st, rounds=st_rounds).seed(seed))

    specs: list = []
    grid: list[tuple] = []

    def cell(protocol, adversary, amplitude, engine, nodes, builder,
             timed=False):
        if adversary is not None:
            builder = builder.adversarial(adversary,
                                          amplitude=amplitude)
        if engine == "vectorized":
            builder = builder.engine("vectorized")
        if timed:
            builder = builder.timed()
        specs.append(builder.tag(protocol, adversary or "none",
                                 engine).build())
        grid.append((protocol, adversary, amplitude, engine, nodes,
                     timed))

    # Fault-free baselines (the "extra skew" reference points).
    cell("ftgcs", None, 0.0, "vectorized", ft_n, ft_cell())
    cell("gcs_single", None, 0.0, "vectorized", gcs_n, gcs_cell())
    cell("srikanth_toueg", None, 0.0, "vectorized", st.n, st_cell())
    # Static vs adaptive at the challenge amplitude, vectorized.
    for adv in ("silent", "equivocate", "fast_clock", "greedy",
                "random_restart"):
        cell("ftgcs", adv, ft_amp, "vectorized", ft_n, ft_cell())
        cell("gcs_single", adv, gcs_amp, "vectorized", gcs_n,
             gcs_cell())
    for adv in ("silent", "random_pulse", "greedy", "random_restart"):
        cell("srikanth_toueg", adv, st_amp, "vectorized", st.n,
             st_cell())
    # Sub-deadband absorption rows.
    cell("ftgcs", "equivocate", ft_amp_lo, "vectorized", ft_n,
         ft_cell())
    cell("gcs_single", "equivocate", gcs_amp_lo, "vectorized", gcs_n,
         gcs_cell())
    cell("srikanth_toueg", "random_pulse", st_amp_lo, "vectorized",
         st.n, st_cell())
    # Engine-agnostic twins: the same .adversarial(...) spelling on
    # the event kernel (the model's driver / liars / silent_faults).
    cell("ftgcs", "equivocate", ft_amp, "event", ft_n, ft_cell())
    cell("gcs_single", "equivocate", gcs_amp, "event", gcs_n,
         gcs_cell())
    cell("srikanth_toueg", "silent", st_amp, "event", st.n, st_cell())
    # Scale cell: adaptive search at 1e4+ (quick) / 1e5+ (full) nodes.
    length, width = (63, 160) if quick else (255, 393)
    big_rounds = 20 if quick else 50
    cell("gcs_single", "random_restart", gcs_amp, "vectorized",
         length * width,
         Scenario.on("caterpillar", length, width)
         .protocol("gcs_single")
         .payload(params=gcs, until=big_rounds * gcs.period)
         .seed(seed), timed=True)

    def envelope(protocol: str, amplitude: float) -> float:
        if protocol == "ftgcs":
            return resilience_bound(
                amplitude, kappa=ft.kappa, slack=ft.delta_trigger,
                correction=ft.mu * ft.round_length)
        if protocol == "gcs_single":
            return resilience_bound(
                amplitude, kappa=gcs.kappa, slack=gcs.slack,
                correction=gcs.mu * gcs.period)
        return resilience_bound(amplitude, kappa=0.0, slack=0.0,
                                correction=st.u)

    def finish(cells, table: Table) -> Table:
        baseline = {
            spec_row[0]: cell.result.max_local_skew
            for spec_row, cell in zip(grid, cells)
            if spec_row[1] is None}
        for (protocol, adv, amp, engine, nodes, timed), cell in zip(
                grid, cells):
            skew = cell.result.max_local_skew
            if adv is None:
                table.add_row(protocol, "none", 0.0, engine, nodes,
                              skew, 0.0, "-", "-", "-")
                continue
            extra = max(0.0, skew - baseline[protocol])
            env = envelope(protocol, amp)
            within = extra <= env * (1.0 + 1e-9)
            if timed:
                wall = cell.extras["timing"]["wall_seconds"]
                rounds = cell.result.detail.get("rounds", 0)
                rate = rounds / wall if wall > 0 else float("nan")
            else:
                rate = "-"
            table.add_row(protocol, adv, amp, engine, nodes, skew,
                          extra, env, within, rate)
        table.add_note(
            "extra = max(0, local skew - same-protocol fault-free "
            "baseline); envelope = resilience_bound(...) — the "
            "absorption argument adapted from arXiv:1809.03165 / "
            "arXiv:2006.15832 (deadband 2*kappa - slack plus one "
            "correction quantum per round)")
        table.add_note(
            "greedy/random_restart are search-based adaptive "
            "adversaries (vectorized-only, one-step lookahead over "
            "budget-feasible patterns); 'within' False on the "
            "fault-INtolerant gcs_single baseline is the expected "
            "paper narrative, not a regression")
        table.add_note(
            "rounds/s is in-worker wall clock (machine-dependent, "
            "excluded from determinism guarantees); every skew column "
            "is bit-reproducible, serial == pooled")
        return table

    return ExperimentPlan(specs=specs, finish=finish)
