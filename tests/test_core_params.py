"""Unit tests for the parameter system (Eq. (4)/(5)/(10)/(11))."""

import pytest

from repro.core.params import (
    PAPER_C2,
    PAPER_EPS,
    Parameters,
    contraction_factor,
)
from repro.errors import ParameterError


class TestContractionFactor:
    def test_limit_at_one_is_half(self):
        assert contraction_factor(1.0) == pytest.approx(0.5)

    def test_increasing_in_theta(self):
        assert contraction_factor(1.01) > contraction_factor(1.001)

    def test_theta_below_one_rejected(self):
        with pytest.raises(ParameterError):
            contraction_factor(0.99)


class TestConstructors:
    def test_practical_is_feasible(self):
        p = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
        assert p.alpha < 1.0
        assert p.cap_e > 0
        assert 0 < p.phi < 1
        assert p.mu == pytest.approx(p.c2 * p.rho)
        assert p.c1 == pytest.approx(1.0 / p.phi)

    def test_paper_constants(self):
        p = Parameters.paper(rho=1e-7, d=1.0, u=0.01, f=1)
        assert p.c2 == PAPER_C2
        assert p.eps == PAPER_EPS
        # Eq. (5): c1 = ((1/2) - eps) / ((1 + c2) rho)
        assert p.c1 == pytest.approx(
            (0.5 - PAPER_EPS) / ((1 + PAPER_C2) * 1e-7))
        assert p.alpha < 1.0

    def test_paper_infeasible_for_large_rho(self):
        with pytest.raises(ParameterError):
            Parameters.paper(rho=1e-3, d=1.0, u=0.1, f=1)

    def test_eq11_matches_closed_form_without_stretch(self):
        """Our alpha/beta with tau_stretch=1 equal the printed Eq. (11)."""
        p = Parameters.custom(rho=1e-4, d=1.0, u=0.1, f=1,
                              c1=100.0, c2=16.0, use_tau_stretch=False)
        tg = p.theta_g
        phi = p.phi
        alpha_printed = ((6 * tg ** 2 * phi + 5 * tg * phi - 9 * phi
                          + 2 * tg ** 2 - 2)
                         / (2 * phi * (tg + 1)))
        beta_printed = ((3 * tg - 1 + (tg - 1) / phi) * p.u
                        + (tg - 1) * p.d)
        assert p.alpha == pytest.approx(alpha_printed, rel=1e-12)
        assert p.beta == pytest.approx(beta_printed, rel=1e-12)

    def test_cap_e_is_fixed_point(self):
        p = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
        assert p.cap_e == pytest.approx(p.alpha * p.cap_e + p.beta)

    def test_tau_formulas(self):
        p = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)
        z = p.tau_stretch
        assert p.tau1 == pytest.approx(z * p.theta_g * p.cap_e)
        assert p.tau2 == pytest.approx(z * p.theta_g * (p.cap_e + p.d))
        assert p.tau3 == pytest.approx(
            z * p.theta_g * (p.cap_e + p.u) * p.c1)
        assert p.round_length == pytest.approx(p.tau1 + p.tau2 + p.tau3)

    def test_trigger_parameters_lemma_4_8(self):
        p = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1, k_stab=4)
        assert p.delta_trigger == pytest.approx((4 + 5) * p.cap_e)
        assert p.kappa == pytest.approx(3 * p.delta_trigger)
        # Lemma 4.5 needs slack < 2 kappa.
        assert p.delta_trigger < 2 * p.kappa

    def test_default_cluster_size(self):
        for f in (0, 1, 2, 3):
            p = Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=f)
            assert p.cluster_size == 3 * f + 1

    def test_cluster_size_validation(self):
        with pytest.raises(ParameterError):
            Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=2,
                                 cluster_size=6)

    def test_argument_validation(self):
        with pytest.raises(ParameterError):
            Parameters.practical(rho=0.0, d=1.0, u=0.1, f=1)
        with pytest.raises(ParameterError):
            Parameters.practical(rho=1e-4, d=0.0, u=0.0, f=1)
        with pytest.raises(ParameterError):
            Parameters.practical(rho=1e-4, d=1.0, u=2.0, f=1)
        with pytest.raises(ParameterError):
            Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=-1)
        with pytest.raises(ParameterError):
            Parameters.custom(rho=1e-4, d=1.0, u=0.1, f=1, c1=0.5, c2=8.0)
        with pytest.raises(ParameterError):
            Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1, eps=0.6)

    def test_infeasible_custom_raises(self):
        # Huge c1 at large rho pushes alpha over 1.
        with pytest.raises(ParameterError):
            Parameters.custom(rho=1e-2, d=1.0, u=0.1, f=1,
                              c1=1000.0, c2=32.0)


class TestDerivedBounds:
    @pytest.fixture
    def params(self):
        return Parameters.practical(rho=1e-4, d=1.0, u=0.1, f=1)

    def test_unanimous_far_below_general(self, params):
        """The Lemma 3.6 mechanism: unanimous steady-state error is far
        below the general E (here by an order of magnitude)."""
        e_slow = params.unanimous_steady_state("slow")
        e_fast = params.unanimous_steady_state("fast")
        assert e_slow < 0.2 * params.cap_e
        assert e_fast < 0.2 * params.cap_e

    def test_unanimous_mode_validation(self, params):
        with pytest.raises(ParameterError):
            params.unanimous_steady_state("wobbly")

    def test_intra_bounds_ordering(self, params):
        # The rigorous Lemma B.8 bound dominates the paper's 2*theta_g*E
        # only through its (theta_max - 1) * T term; both are positive.
        assert params.intra_skew_bound() > 0
        assert params.intra_skew_bound_paper() == pytest.approx(
            2 * params.theta_g * params.cap_e)

    def test_gcs_axioms_proposition_4_11(self, params):
        """Axioms (A2)-(A4) hold for the effective rho/mu."""
        rho_eff = params.gcs_effective_rho()
        mu_eff = params.gcs_effective_mu()
        # (A4): mu_eff / rho_eff > 1.
        assert mu_eff / rho_eff > 1.0
        # (A2): slow clusters stay below 1 + rho_eff by construction.
        assert (1 + params.phi) * (1 + params.mu / 8) <= 1 + rho_eff + 1e-12
        # (A3): fast clusters reach at least 1 + mu_eff.
        assert (1 + params.phi) * (1 + 7 * params.mu / 8) >= 1 + mu_eff - 1e-12

    def test_local_skew_levels_monotone_in_s(self, params):
        levels = [params.local_skew_levels(s)
                  for s in (params.kappa, 10 * params.kappa,
                            1000 * params.kappa)]
        assert levels[0] == 1
        assert levels[0] <= levels[1] <= levels[2]

    def test_local_skew_bound_logarithmic(self, params):
        """Bound grows ~log in S: squaring S at most doubles it."""
        s1 = 100 * params.kappa
        b1 = params.local_skew_bound(s1)
        b2 = params.local_skew_bound(s1 * s1 / params.kappa)
        assert b2 <= 2.2 * b1

    def test_global_skew_bound_linear_in_d(self, params):
        b2 = params.global_skew_bound(2)
        b8 = params.global_skew_bound(8)
        assert b8 == pytest.approx(3 * b2)

    def test_node_bound_exceeds_cluster_bound(self, params):
        s = params.global_skew_bound(4)
        assert (params.node_local_skew_bound(s)
                > params.local_skew_bound(s))

    def test_summary_contains_key_values(self, params):
        text = params.summary()
        assert "rho" in text and "kappa" in text
