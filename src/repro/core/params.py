"""Algorithm parameters and feasibility analysis.

This module turns the paper's parameter equations into code:

* **Eq. (5)** — the headline parameter choice: ``mu = c2 * rho``,
  ``c1 = 1/phi = ((1/2 - eps)/(1 + c2)) / rho`` with ``c2 = 32`` and
  ``eps = 1/4096``.
* **Eq. (10)/(11)** — the steady-state intra-cluster error ``E`` as the
  fixed point of the per-round error recursion ``e(r+1) = alpha*e(r) +
  beta`` and the constant phase durations ``tau1, tau2, tau3``.
* **Eq. (4)** — the ``zeta_max = (1+phi)(1+mu)`` stretch on the phase
  durations that keeps rounds proper when logical clocks run at their
  sped-up nominal rates.  (Eq. (5) omits this factor; we keep it, and
  fold it consistently into the fixed-point computation — see
  ``tau_stretch`` below.)
* **Corollary B.10 / Claim B.15** — steady-state errors for
  *unanimous* executions, where nominal rates span only ``[zeta,
  zeta*(1+rho)]`` and the contraction tail is ``O(rho*T)`` instead of
  ``O(mu*T)``.  This is the quantitative heart of Lemma 3.6.
* **Lemma 4.8** — the trigger slack ``delta_trigger = (k_stab + 5) E``
  and level width ``kappa = 3 * delta_trigger``.

Derivation note (fixed point).  Plugging constant phase durations

    tau1 = z * theta_g * E
    tau2 = z * theta_g * (E + d)
    tau3 = z * theta_g * (E + U) / phi

(``z`` = ``tau_stretch``) into the recursion of Corollary B.13 yields

    E = A(theta_g) * E + (3*theta_g - 1) * U
        + (1 - 1/theta_g) * z * theta_g * ((2 + 1/phi) * E + d + U/phi)

with ``A(theta) = (2 theta^2 + 5 theta - 5) / (2 (theta + 1))`` the
approximate-agreement contraction factor.  Collecting the ``E`` terms
gives ``alpha = A(theta_g) + z * (theta_g - 1) * (2 + 1/phi)`` and
``beta = (3*theta_g - 1) U + z (theta_g - 1)(d + U/phi)``; with
``z = 1`` these are *exactly* the printed Eq. (11).  Feasibility
requires ``alpha < 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ParameterError

#: Eq. (5) constants.
PAPER_C2 = 32.0
PAPER_EPS = 1.0 / 4096.0


def contraction_factor(theta: float) -> float:
    """The Lynch–Welch per-round contraction ``(2θ²+5θ−5)/(2(θ+1))``.

    For ``theta -> 1`` this tends to ``1/2``: one approximate-agreement
    step halves the pulse diameter (plus additive noise terms).
    """
    if theta < 1.0:
        raise ParameterError(f"theta must be >= 1: {theta!r}")
    return (2 * theta * theta + 5 * theta - 5) / (2 * (theta + 1))


@dataclass(frozen=True)
class Parameters:
    """All constants of the FTGCS algorithm, validated for feasibility.

    Instances are immutable; use the classmethod constructors
    (:meth:`paper`, :meth:`practical`, :meth:`custom`) rather than the
    raw dataclass constructor so derived values stay consistent.

    Attributes (model):
        rho: hardware clock drift bound (rates in ``[1, 1+rho]``).
        d: maximum message delay.
        u: delay uncertainty (delays in ``[d-u, d]``).
        f: Byzantine faults tolerated per cluster.
        cluster_size: nodes per cluster ``k >= 3f + 1``.

    Attributes (algorithm, Eq. (5)):
        c1: phase-3 stretch, ``Theta(1/rho)``; ``phi = 1/c1``.
        c2: fast-mode boost factor; ``mu = c2 * rho``.
        mu, phi: Eq. (2) rate-control constants.
        tau_stretch: the Eq. (4) ``zeta_max`` factor on phase lengths.

    Attributes (derived, Eq. (10)/(11)):
        theta_g: ``(1+rho)(1+mu)`` — max nominal rate envelope.
        alpha, beta: error recursion coefficients; ``alpha < 1``.
        cap_e: steady-state intra-cluster error ``E = beta/(1-alpha)``.
        tau1, tau2, tau3, round_length: constant round structure.

    Attributes (intercluster, Lemma 4.8 / Theorem C.3):
        k_stab: unanimity lead rounds ``k`` of Lemma 3.6 (``O(1)``).
        delta_trigger: trigger slack ``delta = (k_stab + 5) E``.
        kappa: GCS level width ``3 * delta_trigger``.
        c_global: the "sufficiently large constant" of Theorem C.3.
    """

    rho: float
    d: float
    u: float
    f: int
    cluster_size: int
    c1: float
    c2: float
    eps: float
    mu: float
    phi: float
    tau_stretch: float
    theta_g: float
    theta_u: float
    zeta_max: float
    theta_max: float
    alpha: float
    beta: float
    cap_e: float
    tau1: float
    tau2: float
    tau3: float
    round_length: float
    k_stab: int
    delta_trigger: float
    kappa: float
    c_global: float

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def custom(cls, rho: float, d: float, u: float, f: int,
               cluster_size: int | None = None, *,
               c1: float, c2: float, eps: float = float("nan"),
               k_stab: int = 4, c_global: float = 8.0,
               use_tau_stretch: bool = True) -> "Parameters":
        """Build parameters from explicit ``c1``/``c2``.

        This is the fully general constructor used by ablations; the
        :meth:`paper` and :meth:`practical` presets delegate here.
        """
        if rho <= 0:
            raise ParameterError(f"rho must be positive: {rho!r}")
        if d <= 0:
            raise ParameterError(f"d must be positive: {d!r}")
        if not 0 <= u <= d:
            raise ParameterError(f"need 0 <= U <= d: U={u!r}, d={d!r}")
        if f < 0:
            raise ParameterError(f"f must be non-negative: {f!r}")
        if cluster_size is None:
            cluster_size = 3 * f + 1
        if cluster_size < 3 * f + 1:
            raise ParameterError(
                f"cluster_size={cluster_size!r} violates k >= 3f+1 "
                f"with f={f!r}")
        if c1 <= 1:
            raise ParameterError(
                f"c1 must exceed 1 so that phi = 1/c1 < 1: {c1!r}")
        if c2 <= 0:
            raise ParameterError(f"c2 must be positive: {c2!r}")
        if k_stab < 0:
            raise ParameterError(f"k_stab must be >= 0: {k_stab!r}")

        mu = c2 * rho
        phi = 1.0 / c1
        theta_g = (1.0 + rho) * (1.0 + mu)
        theta_u = 1.0 + rho
        zeta_max = (1.0 + phi) * (1.0 + mu)
        theta_max = (1.0 + 2.0 * phi / (1.0 - phi)) * (1.0 + mu) * (1.0 + rho)
        z = zeta_max if use_tau_stretch else 1.0

        alpha = (contraction_factor(theta_g)
                 + z * (theta_g - 1.0) * (2.0 + c1))
        beta = ((3.0 * theta_g - 1.0) * u
                + z * (theta_g - 1.0) * (d + u * c1))
        if alpha >= 1.0:
            raise ParameterError(
                f"infeasible parameters: alpha={alpha:.6f} >= 1 "
                f"(rho={rho}, c1={c1}, c2={c2}); reduce rho, c1, or c2")
        cap_e = beta / (1.0 - alpha)

        tau1 = z * theta_g * cap_e
        tau2 = z * theta_g * (cap_e + d)
        tau3 = z * theta_g * (cap_e + u) * c1
        round_length = tau1 + tau2 + tau3

        delta_trigger = (k_stab + 5) * cap_e
        kappa = 3.0 * delta_trigger

        return cls(
            rho=rho, d=d, u=u, f=f, cluster_size=cluster_size,
            c1=c1, c2=c2, eps=eps, mu=mu, phi=phi, tau_stretch=z,
            theta_g=theta_g, theta_u=theta_u, zeta_max=zeta_max,
            theta_max=theta_max, alpha=alpha, beta=beta, cap_e=cap_e,
            tau1=tau1, tau2=tau2, tau3=tau3, round_length=round_length,
            k_stab=k_stab, delta_trigger=delta_trigger, kappa=kappa,
            c_global=c_global,
        )

    @classmethod
    def paper(cls, rho: float, d: float, u: float, f: int,
              cluster_size: int | None = None, *,
              k_stab: int = 4, c_global: float = 8.0) -> "Parameters":
        """The exact Eq. (5) choice: ``c2=32``, ``eps=1/4096``.

        Feasible only for very small ``rho`` (roughly ``rho < 4e-6``
        with ``d = 1``): Eq. (5) tunes ``alpha`` to ``1 - eps`` with
        ``eps = 1/4096``, so the lower-order ``O(rho)`` terms must fit
        under ``eps``.  Use :meth:`practical` for simulation-scale
        drifts.
        """
        if rho <= 0:
            raise ParameterError(f"rho must be positive: {rho!r}")
        c1 = (0.5 - PAPER_EPS) / ((1.0 + PAPER_C2) * rho)
        return cls.custom(rho, d, u, f, cluster_size, c1=c1, c2=PAPER_C2,
                          eps=PAPER_EPS, k_stab=k_stab, c_global=c_global)

    @classmethod
    def practical(cls, rho: float, d: float, u: float, f: int,
                  cluster_size: int | None = None, *,
                  c2: float = 32.0, eps: float = 0.05,
                  k_stab: int = 4, c_global: float = 8.0) -> "Parameters":
        """Eq. (5) structure with moderate ``eps`` for simulation.

        Keeps every structural relation (``mu = c2*rho``, ``phi = 1/c1``,
        ``c1 = ((1/2 - eps)/(1+c2))/rho``) but uses a larger ``eps`` so
        the fixed point exists for realistic drifts (``rho ~ 1e-4``)
        and rounds stay short enough to simulate thousands of them.
        """
        if not 0 < eps < 0.5:
            raise ParameterError(f"need 0 < eps < 1/2: {eps!r}")
        if rho <= 0:
            raise ParameterError(f"rho must be positive: {rho!r}")
        c1 = (0.5 - eps) / ((1.0 + c2) * rho)
        return cls.custom(rho, d, u, f, cluster_size, c1=c1, c2=c2,
                          eps=eps, k_stab=k_stab, c_global=c_global)

    # ------------------------------------------------------------------
    # Derived bounds
    # ------------------------------------------------------------------

    @property
    def n_trim(self) -> int:
        """Values trimmed from each end of the pulse multiset (= f)."""
        return self.f

    def unanimous_steady_state(self, mode: str) -> float:
        """Steady-state pulse diameter for a unanimous cluster.

        Corollary B.10 with ``theta = theta_u = 1 + rho`` and speedup
        ``zeta`` = ``(1+phi)`` (``mode='slow'``) or ``(1+phi)(1+mu)``
        (``mode='fast'``): the fixed point of

            e <- A(theta_u) e + (3 theta_u - 1) U
                 + (1/zeta)(1 - 1/theta_u) T

        where ``T`` is the *general* (shared-schedule) round length.
        The point of Lemma 3.6: this is ``O(rho * T)``-sized, far below
        the general ``E`` which absorbs ``O(mu)`` rate disagreement.
        """
        if mode == "slow":
            zeta = 1.0 + self.phi
        elif mode == "fast":
            zeta = (1.0 + self.phi) * (1.0 + self.mu)
        else:
            raise ParameterError(f"mode must be 'fast' or 'slow': {mode!r}")
        a_u = contraction_factor(self.theta_u)
        tail = ((3.0 * self.theta_u - 1.0) * self.u
                + (1.0 / zeta) * (1.0 - 1.0 / self.theta_u)
                * self.round_length)
        if a_u >= 1.0:
            raise ParameterError("unanimous contraction factor >= 1")
        return tail / (1.0 - a_u)

    def intra_skew_bound(self) -> float:
        """Rigorous intra-cluster skew bound (Lemma B.8 form).

        ``theta_max * E + (theta_max - 1) * T`` where ``theta_max`` is
        the Eq. (6) worst-case logical rate.  This holds for *all*
        proper executions, including phase-3 maximal corrections.
        """
        return (self.theta_max * self.cap_e
                + (self.theta_max - 1.0) * self.round_length)

    def intra_skew_bound_paper(self) -> float:
        """The bound as printed in Corollary 3.2: ``2 * theta_g * E``."""
        return 2.0 * self.theta_g * self.cap_e

    def estimate_error_bound(self) -> float:
        """Corollary 3.5: observer estimate error ``|L~ - L_v| <= E``."""
        return self.cap_e

    def gcs_effective_rho(self) -> float:
        """Proposition 4.11: effective drift ``(1+phi)(1+mu/4) - 1``."""
        return (1.0 + self.phi) * (1.0 + 0.25 * self.mu) - 1.0

    def gcs_effective_mu(self) -> float:
        """Proposition 4.11: effective boost ``(1+phi)(1+7mu/8) - 1``."""
        return (1.0 + self.phi) * (1.0 + 0.875 * self.mu) - 1.0

    def gcs_base(self) -> float:
        """The GCS logarithm base ``sigma = mu_eff / rho_eff`` (> 1)."""
        return self.gcs_effective_mu() / self.gcs_effective_rho()

    def local_skew_levels(self, global_skew: float) -> int:
        """Levels ``s`` needed to cover ``global_skew`` (Thm 4.10).

        The explicit form we use for the ``O(kappa log_sigma S)`` bound:
        ``s* = max(1, ceil(log_sigma(S / kappa)))``.
        """
        if global_skew <= self.kappa:
            return 1
        sigma = self.gcs_base()
        if sigma <= 1.0:
            raise ParameterError(
                "GCS base <= 1: effective mu must exceed effective rho")
        return max(1, math.ceil(math.log(global_skew / self.kappa)
                                / math.log(sigma)))

    def local_skew_bound(self, global_skew: float) -> float:
        """Cluster-level local skew bound ``2 * kappa * s*`` (Thm 4.10)."""
        return 2.0 * self.kappa * self.local_skew_levels(global_skew)

    def node_local_skew_bound(self, global_skew: float) -> float:
        """Node-level bound (Theorem 1.1 proof): cluster bound plus the
        two intra-cluster detours ``|L_v - L_B| + |L_C - L_w|``."""
        return self.local_skew_bound(global_skew) + 2.0 * self.intra_skew_bound()

    def global_skew_bound(self, diameter: int) -> float:
        """Theorem C.3: global skew ``O(delta * D)``; explicit constant
        ``c_global * delta_trigger * (D + 1)``."""
        return self.c_global * self.delta_trigger * (diameter + 1)

    def summary(self) -> str:
        """Human-readable multi-line parameter dump for reports."""
        lines = [
            f"rho={self.rho:g} d={self.d:g} U={self.u:g} f={self.f} "
            f"k={self.cluster_size}",
            f"c1={self.c1:g} c2={self.c2:g} mu={self.mu:g} phi={self.phi:g}",
            f"alpha={self.alpha:.6f} beta={self.beta:.6g} E={self.cap_e:.6g}",
            f"tau=({self.tau1:.6g}, {self.tau2:.6g}, {self.tau3:.6g}) "
            f"T={self.round_length:.6g}",
            f"delta_trigger={self.delta_trigger:.6g} kappa={self.kappa:.6g} "
            f"k_stab={self.k_stab}",
        ]
        return "\n".join(lines)
