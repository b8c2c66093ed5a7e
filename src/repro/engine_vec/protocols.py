"""Vectorized round models of the round-structured protocols.

Each class here is the struct-of-arrays counterpart of one event-path
adapter in :mod:`repro.protocols`, registered in
:data:`VEC_PROTOCOLS` under the same protocol name.  A model consumes
the same :class:`~repro.core.protocol.BuildContext` the event engine
would (graph, params, rounds, seed, payload) and returns the same
:class:`~repro.core.protocol.ProtocolRunResult` shape; randomness
comes from :class:`~repro.engine_vec.engine.VecStreams`.

Equivalence contracts (enforced by
:mod:`repro.engine_vec.equivalence`, documented in API.md):

``srikanth_toueg`` / ``gcs_single``
    *Exact* on degenerate deterministic cells (``rho = 0``, ``u = 0``:
    every clock agrees forever, both engines report exactly ``0.0``),
    *tolerance* otherwise.  The tolerance covers the two engines'
    different measurement instants: the event kernel samples on a
    fixed wall-clock grid while the round model probes at round
    boundaries, so headline skews agree up to one sampling interval of
    drift plus the per-message jitter width (see
    ``st_tolerance``/``gcs_tolerance`` in the equivalence module).
``lynch_welch``
    Tolerance: the event path runs the full FTGCS intra-cluster
    machinery while the round model is the classic trimmed
    approximate-agreement recursion, so skews are compared against the
    shared analytic envelope ``params.intra_skew_bound()``.
``ftgcs``
    Envelope only: the vectorized port is the *cluster-round skeleton*
    (one state per cluster, trigger-driven mode selection, estimate
    error drawn within ``±E``), so both engines are held to the
    analytic bounds ``global_skew_bound(D)`` /
    ``local_skew_bound(...)`` rather than to each other.

Scale notes: per-round cost is O(slots) for the graph protocols and
O(n^2) for the cliques; the graph models run 1e5–1e6-node topologies
at interactive rates (experiment t17 measures rounds/s).  An
adversarial graph round adds one honest-slot reduction, and each
action it scores or takes costs O(controlled slots) plus one pass over
the honest edges (:class:`_Injection`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.metrics import stabilization_time
from repro.core.protocol import BuildContext, ProtocolRunResult, Reads
from repro.engine_vec.csr import CSRAdjacency
from repro.engine_vec.engine import VecStreams, fast_trigger_mask
from repro.errors import ConfigError
from repro.faults.adversary import (
    CliqueAdversaryRuntime,
    VecAdversaryRuntime,
    get_adversary,
)


def _spread(values: np.ndarray) -> float:
    if values.size == 0:
        return 0.0
    return float(values.max() - values.min())


def _advance(clocks: np.ndarray, rate: np.ndarray, up: np.ndarray,
             down: np.ndarray, p, slack: float,
             step: float) -> tuple[np.ndarray, np.ndarray]:
    """The FT trigger (with ``slack``) and clock step of a graph round
    on the rows the arrays hold: ``(gamma, next clocks)``."""
    gamma = fast_trigger_mask(up, down, p.kappa, slack).astype(np.float64)
    return gamma, clocks + rate * (1.0 + p.mu * gamma) * step


class _Injection:
    """Fault-vector injection into a graph round, priced by the
    controlled slots.

    :meth:`begin` computes once per round what every action shares:
    the segment max and min over the honest-sender slots (the
    estimates with the controlled slots at ``-inf``/``+inf``) and from
    them :attr:`up`, :attr:`down`, :attr:`gamma` and :attr:`next` --
    the round in which every controlled sender is silent.  An action
    ``(offsets, keep)`` moves only the rows its controlled slots reach,
    :attr:`rows`: :meth:`reach` gathers those slots, reduces them per
    row with one ``reduceat``, folds in the honest max and min and
    recomputes trigger and clock step there.  Max and min are exact
    and every other step is the same float operation on fewer rows, so
    each value is the one a reduction over every slot gives: displaced
    estimates enter the trigger, silenced ones drop out, and a row left
    with no estimate comes out trigger-false, like degree 0.
    """

    def __init__(self, csr: CSRAdjacency, controlled: np.ndarray,
                 rate: np.ndarray, p, slack: float, step: float) -> None:
        self.csr = csr
        #: The controlled slots in slot order, so grouped by row.
        self.slots = controlled
        receivers = csr.row[controlled]
        first = np.ones(receivers.size, dtype=bool)
        first[1:] = receivers[1:] != receivers[:-1]
        self._starts = np.flatnonzero(first)
        #: The rows a controlled slot reaches, one per group.
        self.rows = receivers[self._starts]
        self._rate = rate
        self._row_rate = rate[self.rows]
        self._knobs = (p, slack, step)

    def begin(self, clocks: np.ndarray, estimates: np.ndarray) -> None:
        """The shared half of this round's actions.  Overwrites the
        controlled slots of ``estimates``, the round's own array."""
        slots, rows = self.slots, self.rows
        self._estimates = estimates[slots]
        estimates[slots] = -np.inf
        top = self.csr.segment_max(estimates)
        estimates[slots] = np.inf
        bottom = self.csr.segment_min(estimates)
        self.up = top - clocks
        self.down = clocks - bottom
        self.gamma, self.next = _advance(clocks, self._rate, self.up,
                                         self.down, *self._knobs)
        self._top, self._bottom = top[rows], bottom[rows]
        self._clocks = clocks[rows]

    def reach(self, offsets: np.ndarray, keep: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(up, down, gamma, next clocks)`` on :attr:`rows` under
        the action."""
        est = self._estimates + offsets[self.slots]
        kept = keep[self.slots]
        top = np.maximum(self._top, np.maximum.reduceat(
            np.where(kept, est, -np.inf), self._starts))
        bottom = np.minimum(self._bottom, np.minimum.reduceat(
            np.where(kept, est, np.inf), self._starts))
        up = top - self._clocks
        down = self._clocks - bottom
        return (up, down) + _advance(self._clocks, self._row_rate, up,
                                     down, *self._knobs)

    def next_clocks(self, offsets: np.ndarray,
                    keep: np.ndarray) -> np.ndarray:
        """Every clock after this round under the action."""
        after = self.next.copy()
        after[self.rows] = self.reach(offsets, keep)[3]
        return after


def _run_graph_rounds(model: VecGcsSingle | VecFtgcs,
                      noise: np.random.Generator, half_width: float,
                      slack: float, step: float, clocks: np.ndarray,
                      rate: np.ndarray) -> ProtocolRunResult:
    """The round loop of the graph models (``gcs_single`` and the
    ``ftgcs`` skeleton), which differ only in their arguments.

    Per round: per-slot neighbor estimates ``clocks[j]`` plus one
    uniform ``±half_width`` draw per directed slot from ``noise``, the
    adversary's injection (choosing against a lookahead of this very
    round, both through :class:`_Injection`), the FT trigger via CSR
    segment max/min with ``slack``, then every clock advances ``step``
    at ``rate * (1 + mu * gamma)``; the local and global skew after
    each round form the series.
    """
    p = model.params
    csr = model.csr
    adv = model.adv
    series: list[tuple[float, float, float]] = []
    max_local = max_global = 0.0
    last_local = 0.0
    slots = csr.num_slots
    if adv is not None:
        inject = _Injection(csr, adv.controlled_slots, rate, p, slack,
                            step)

        def lookahead(offsets, keep):
            return adv.local_skew(inject.next_clocks(offsets, keep))

    for r in range(1, model.rounds + 1):
        estimates = csr.gather(clocks)
        if half_width > 0.0 and slots:
            estimates += noise.uniform(-half_width, half_width, slots)
        if adv is not None:
            inject.begin(clocks, estimates)
            offsets, keep = adv.round_vectors(
                r, honest_local_skew=last_local, evaluate=lookahead)
            clocks = inject.next_clocks(offsets, keep)
            local = adv.local_skew(clocks)
            global_ = adv.global_skew(clocks)
        else:
            _, clocks = _advance(
                clocks, rate, csr.segment_max(estimates) - clocks,
                clocks - csr.segment_min(estimates), p, slack, step)
            local = csr.edge_skew(clocks)
            global_ = _spread(clocks)
        last_local = local
        series.append((r * step, local, global_))
        max_local = max(max_local, local)
        max_global = max(max_global, global_)
    return model._result(
        max_global=max_global, max_local=max_local, series=series,
        messages_sent=model.rounds * slots, rounds=model.rounds,
        nodes=csr.num_nodes,
        adversary=adv.counters() if adv is not None else None)


class VecRoundModel:
    """Shared plumbing: context, streams, result assembly."""

    name = ""
    #: The ``config`` and ``payload`` keys the model reads (the base
    #: reads none); :func:`~repro.core.protocol.check_composition`
    #: rejects any other key on the vectorized engine.
    reads = Reads()

    def __init__(self, ctx: BuildContext) -> None:
        self.ctx = ctx
        self.streams = VecStreams(ctx.seed, self.name)

    def _adversary_model(self):
        """The resolved adversary model, or ``None``; models with no
        vectorized injection hook must keep ``ctx.adversary`` empty
        (the builder's ``supports_vectorized_faults`` check)."""
        if self.ctx.adversary is None:
            return None
        return get_adversary(**self.ctx.adversary)

    def _result(self, *, max_global: float, max_local: float,
                series: list, messages_sent: int, rounds: int,
                nodes: int, detail_extra: dict | None = None,
                with_stabilization: bool = True,
                adversary: dict | None = None) -> ProtocolRunResult:
        detail = {"engine": "vectorized", "rounds": rounds,
                  "nodes": nodes}
        if detail_extra:
            detail.update(detail_extra)
        stab = None
        if with_stabilization and series:
            stab = stabilization_time(
                [(t, local) for t, local, _ in series])
        return ProtocolRunResult(
            protocol=self.name, seed=self.ctx.seed,
            max_global_skew=max_global, max_local_skew=max_local,
            series=series, messages_sent=messages_sent,
            events_processed=rounds, stabilization_time=stab,
            adversary=adversary, detail=detail)


class VecGcsSingle(VecRoundModel):
    """Plain GCS, one vectorized step per broadcast period.

    Per round: per-slot neighbor estimates ``L[j] ± u/2`` (one uniform
    draw per directed slot from the ``delays`` stream), FT trigger via
    CSR segment max/min, then every clock advances one nominal period
    at ``rate * (1 + mu * gamma)``.  Payload mirrors the event
    adapter minus the Byzantine ``liars`` knobs (per-victim phantom
    streams are inherently per-message; the event engine keeps that
    workload, and ``.adversary("equivocate")`` runs here) and minus
    ``sample_interval`` (the model probes once per round).
    """

    name = "gcs_single"
    reads = Reads(payload=("params", "until", "rate_spread"),
                  required=("params", "until"))

    def __init__(self, ctx: BuildContext) -> None:
        super().__init__(ctx)
        payload = ctx.payload
        self.params = payload["params"]
        until = payload["until"]
        self.rate_spread = bool(payload.get("rate_spread", True))
        self.rounds = int(math.floor(
            until / self.params.period + 1e-9))
        self.csr = CSRAdjacency(ctx.graph)
        model = self._adversary_model()
        self.adv = None
        if model is not None:
            self.adv = VecAdversaryRuntime(
                model, self.csr, self.streams,
                default_amplitude=4.0 * self.params.kappa)

    def run(self) -> ProtocolRunResult:
        p = self.params
        n = self.csr.num_nodes
        ids = np.arange(n)
        if self.rate_spread:
            rate = 1.0 + p.rho * (ids % 2)
        else:
            rate = np.ones(n)
        return _run_graph_rounds(
            self, self.streams.stream("delays"), p.u / 2.0, p.slack,
            p.period, np.zeros(n), rate)


class VecSrikanthToueg(VecRoundModel):
    """Propose-and-pull on a clique, one vectorized resync per round.

    Round ``r``: naive propose times from each correct clock's
    ``r * period`` boundary, one uniform ``[d - u, d]`` delay draw per
    ordered correct pair, the ``f + 1`` pull rule as a (few-step)
    fixed point over propose times, accept at the ``(n - f)``-th
    earliest proposal, clocks reset to ``r * period + d``.  Skew is
    probed just before the first accept (worst accumulated drift) and
    just after the last (resync quality), plus a final probe at the
    event adapter's ``(rounds + 1) * period`` horizon, so it reads
    no ``sample_interval``.
    """

    name = "srikanth_toueg"
    reads = Reads(payload=("params", "rounds", "silent_faults",
                           "rate_spread"),
                  required=("params",))
    #: Pull-rule fixed-point cap; relays only cascade when propose
    #: spreads exceed message delays, which a handful of sweeps covers.
    _MAX_RELAY_ITER = 4

    def __init__(self, ctx: BuildContext) -> None:
        super().__init__(ctx)
        payload = ctx.payload
        self.params = payload["params"]
        self.rounds = int(payload.get("rounds", ctx.rounds))
        self.silent_faults = int(payload.get("silent_faults", 0))
        if self.silent_faults > self.params.f:
            raise ConfigError(
                f"{self.silent_faults} silent faults exceed "
                f"f={self.params.f}")
        self.rate_spread = bool(payload.get("rate_spread", True))
        model = self._adversary_model()
        self.adv = None
        if model is not None:
            if self.silent_faults:
                raise ConfigError(
                    "compose either payload silent_faults or "
                    ".adversary(...), not both")
            # A faulty clique member displaces its per-receiver
            # arrival times; the amplitude default is the delay bound
            # d (the largest displacement a Byzantine proposer can
            # pass off as network latency).
            self.adv = CliqueAdversaryRuntime(
                model, self.params.n, self.params.f, self.streams,
                default_amplitude=self.params.d)

    def _resync(self, naive: np.ndarray, delay: np.ndarray,
                live: np.ndarray | None) -> np.ndarray:
        """One resync: relay fixed point, then quorum accept.  ``live``
        holds the speaking faulty members' arrival rows ``(k, count)``
        (``None``: none speak — exactly the silent/absent case, so the
        no-adversary path and a silent adversary are bit-identical)."""
        p = self.params
        f = p.f
        count = naive.size
        extra = 0 if live is None else live.shape[0]
        propose = naive
        if count - 1 + extra >= f + 1:
            for _ in range(self._MAX_RELAY_ITER):
                arrivals = propose[:, None] + delay
                np.fill_diagonal(arrivals, np.inf)
                pool = arrivals if extra == 0 \
                    else np.vstack([arrivals, live])
                # The pool is this sweep's own temporary (never
                # ``delay``, which the lookahead reuses), so it is
                # partitioned in place.
                pool.partition(f, axis=0)
                kth = pool[f]
                pulled = np.minimum(naive, kth)
                if np.array_equal(pulled, propose):
                    break
                propose = pulled
        arrivals = propose[:, None] + delay
        # A node's own proposal counts toward its quorum at its
        # propose time (it never receives its own broadcast).
        np.fill_diagonal(arrivals, 0.0)
        arrivals[np.arange(count),
                 np.arange(count)] = propose
        pool = arrivals if extra == 0 else np.vstack([arrivals, live])
        quorum = p.n - f
        pool.partition(quorum - 1, axis=0)
        return pool[quorum - 1]

    def run(self) -> ProtocolRunResult:
        p = self.params
        n = p.n
        adv = self.adv
        fc = adv.faulty_ids.size if adv is not None \
            else self.silent_faults
        correct = np.arange(fc, n)
        count = correct.size
        if self.rate_spread:
            rate = 1.0 + p.rho * (correct / max(n - 1, 1))
        else:
            rate = np.ones(count)
        offset = np.zeros(count)
        delays = self.streams.stream("delays")
        adv_delays = self.streams.stream("adv_delays") \
            if adv is not None else None
        max_skew = 0.0
        last_skew = 0.0
        # The event adapter's horizon is (rounds + 1) * period, which
        # executes the round-(rounds + 1) resync just before the end;
        # mirror that so steady-state maxima cover the same window.
        total_rounds = self.rounds + 1
        for r in range(1, total_rounds + 1):
            boundary = r * p.period
            naive = (boundary - offset) / rate
            if p.u > 0.0:
                delay = delays.uniform(p.d - p.u, p.d,
                                       size=(count, count))
            else:
                delay = np.full((count, count), p.d)
            if adv is not None:
                # Faulty delay draws come from a dedicated stream, in
                # a fixed per-round order, so the honest draw sequence
                # matches the adversary-free run exactly.
                if p.u > 0.0:
                    fdelay = adv_delays.uniform(p.d - p.u, p.d,
                                                (fc, count))
                else:
                    fdelay = np.full((fc, count), p.d)

                def lookahead(off, keep):
                    live = (boundary + fdelay + off)[keep]
                    acc = self._resync(
                        naive, delay, live if live.size else None)
                    new_offset = boundary + p.d - rate * acc
                    return _spread(rate * float(acc.max())
                                   + new_offset)

                off, keep = adv.round_pairs(
                    r, honest_local_skew=last_skew,
                    evaluate=lookahead)
                live = (boundary + fdelay + off)[keep]
                accept = self._resync(
                    naive, delay, live if live.size else None)
            else:
                accept = self._resync(naive, delay, None)
            # Probe 1: just before the first accept, on old offsets —
            # the largest drift accumulated since the last resync.
            t_pre = float(accept.min())
            max_skew = max(max_skew, _spread(rate * t_pre + offset))
            offset = boundary + p.d - rate * accept
            # Probe 2: just after the last accept, on new offsets.
            t_post = float(accept.max())
            last_skew = _spread(rate * t_post + offset)
            max_skew = max(max_skew, last_skew)
        horizon = (total_rounds + 1) * p.period
        max_skew = max(max_skew, _spread(rate * horizon + offset))
        return self._result(
            max_global=max_skew, max_local=max_skew, series=[],
            messages_sent=total_rounds * count * (n - 1),
            rounds=total_rounds, nodes=n,
            detail_extra={"max_skew": max_skew,
                          "silent_faults": self.silent_faults},
            with_stabilization=False,
            adversary=adv.counters() if adv is not None else None)


class VecLynchWelch(VecRoundModel):
    """Classic Lynch–Welch on one clique: trimmed approximate
    agreement over pulse times, one vectorized step per pulse round.

    Node ``i``'s round: observe every peer's pulse through a
    ``[d - u, d]`` delay draw, midpoint-compensate, trim the ``f``
    lowest and highest offset estimates, correct the next pulse by the
    midpoint of the survivors.  The event path runs the full FTGCS
    intra-cluster machinery instead, so equivalence is an
    envelope/tolerance contract on ``params.intra_skew_bound()``.
    """

    name = "lynch_welch"
    reads = Reads(config=("init_jitter",))

    def __init__(self, ctx: BuildContext) -> None:
        super().__init__(ctx)
        self.params = ctx.params
        self.rounds = int(ctx.rounds)
        init_jitter = ctx.config.get("init_jitter")
        self.init_jitter = (self.params.cap_e / 4.0
                            if init_jitter is None else init_jitter)

    def run(self) -> ProtocolRunResult:
        p = self.params
        k, f = p.cluster_size, p.f
        rate = 1.0 + p.rho * (np.arange(k) / max(k - 1, 1))
        if self.init_jitter > 0.0:
            pulses = self.streams.stream("init").uniform(
                0.0, self.init_jitter, k)
        else:
            pulses = np.zeros(k)
        delays = self.streams.stream("delays")
        series: list[tuple[float, float, float]] = []
        spread = _spread(pulses)
        max_skew = spread
        series.append((0.0, spread, spread))
        for r in range(1, self.rounds + 1):
            delay = delays.uniform(p.d - p.u, p.d, size=(k, k))
            # offsets[i, j]: i's midpoint-compensated estimate of
            # how far j's pulse leads/lags its own.
            offsets = (pulses[None, :] + delay.T
                       - pulses[:, None] - (p.d - p.u / 2.0))
            np.fill_diagonal(offsets, 0.0)
            trimmed = np.sort(offsets, axis=1)[:, f:k - f]
            correction = (trimmed[:, 0] + trimmed[:, -1]) / 2.0
            pulses = pulses + (p.round_length + correction) / rate
            spread = _spread(pulses)
            series.append((r * p.round_length, spread, spread))
            max_skew = max(max_skew, spread)
        return self._result(
            max_global=max_skew, max_local=max_skew, series=series,
            messages_sent=self.rounds * k * (k - 1),
            rounds=self.rounds, nodes=k)


class VecFtgcs(VecRoundModel):
    """The FTGCS *cluster-round skeleton*: one state per cluster.

    Each cluster is reduced to its (already intra-synchronized)
    cluster clock; per round it estimates neighbor clusters within the
    steady-state error ``±E``, evaluates the FT trigger, and advances
    at ``rate * (1 + mu * gamma)``.  This abstracts away the
    intra-cluster Lynch–Welch layer — the reason its equivalence
    contract is envelope-only (both engines inside the analytic
    bounds), not value-vs-value.
    """

    name = "ftgcs"
    reads = Reads(config=("cluster_offsets",))

    def __init__(self, ctx: BuildContext) -> None:
        super().__init__(ctx)
        self.params = ctx.params
        self.rounds = int(ctx.rounds)
        self.cluster_offsets = ctx.config.get("cluster_offsets")
        self.csr = CSRAdjacency(ctx.graph)
        model = self._adversary_model()
        self.adv = None
        if model is not None:
            # A "faulty" skeleton node is a cluster whose broadcast
            # estimate the coalition controls; the amplitude default
            # is the steady-state estimate error E (the budget the
            # paper's per-cluster f < k/3 grants an adversary).
            self.adv = VecAdversaryRuntime(
                model, self.csr, self.streams,
                default_amplitude=self.params.cap_e)

    def run(self) -> ProtocolRunResult:
        p = self.params
        n = self.csr.num_nodes
        rate = 1.0 + p.rho * (np.arange(n) % 2)
        clocks = np.zeros(n)
        if self.cluster_offsets is not None:
            clocks = clocks + np.asarray(self.cluster_offsets,
                                         dtype=np.float64)
        return _run_graph_rounds(
            self, self.streams.stream("estimates"), p.cap_e,
            p.delta_trigger, p.round_length, clocks, rate)


#: Protocol name -> vectorized round model; the vectorized engine's
#: registry (lookup happens in
#: :func:`repro.engine_vec.engine.build_vec_system`).  Names match
#: :data:`repro.core.protocol.PROTOCOLS`; an adapter advertising
#: ``supports_vectorized`` must have an entry here.
VEC_PROTOCOLS: dict[str, type[VecRoundModel]] = {
    VecGcsSingle.name: VecGcsSingle,
    VecSrikanthToueg.name: VecSrikanthToueg,
    VecLynchWelch.name: VecLynchWelch,
    VecFtgcs.name: VecFtgcs,
}


__all__ = [
    "VEC_PROTOCOLS",
    "VecFtgcs",
    "VecGcsSingle",
    "VecLynchWelch",
    "VecSrikanthToueg",
]
