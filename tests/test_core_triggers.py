"""Unit and property tests for FT/ST triggers (Defs 4.1-4.4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.triggers import evaluate
from repro.errors import ParameterError

KAPPA = 3.0
SLACK = 1.0  # = kappa/3, the Lemma 4.8 choice


def decide(own, neighbors, kappa=KAPPA, slack=SLACK):
    return evaluate(own, dict(enumerate(neighbors)), kappa, slack)


class TestFastTrigger:
    def test_far_ahead_neighbor_fires_fast(self):
        # up = 10 >= 2*1*3 - 1; down = -10 <= 2*1*3 + 1.
        d = decide(0.0, [10.0])
        assert d.fast and not d.slow

    def test_no_neighbors_no_triggers(self):
        d = decide(0.0, [])
        assert not d.fast and not d.slow

    def test_balanced_clocks_no_trigger(self):
        d = decide(0.0, [0.5, -0.5])
        assert not d.fast and not d.slow

    def test_fast_blocked_by_lagging_neighbor(self):
        # One neighbor at +2k, but another so far behind that FT-2
        # fails at every level covered by FT-1.
        d = decide(0.0, [2 * KAPPA, -50 * KAPPA])
        assert not d.fast

    def test_fast_at_higher_level(self):
        # up = 4k (s=2 rung), down = 3.9k <= 4k + slack: fires at s=2.
        d = decide(0.0, [4 * KAPPA, -3.9 * KAPPA])
        assert d.fast

    def test_slack_relaxes_threshold(self):
        # up slightly below 2k fires only thanks to the slack.
        up = 2 * KAPPA - 0.5 * SLACK
        assert decide(0.0, [up]).fast
        assert not decide(0.0, [up], slack=0.0).fast


class TestSlowTrigger:
    def test_far_behind_neighbor_fires_slow(self):
        d = decide(0.0, [-10.0])
        assert d.slow and not d.fast

    def test_slow_blocked_by_leading_neighbor(self):
        d = decide(0.0, [-KAPPA, 50 * KAPPA])
        assert not d.slow

    def test_slow_at_odd_rung(self):
        # down = 3k (m=3 rung), up = 2.9k <= 3k + slack.
        d = decide(0.0, [-3 * KAPPA, 2.9 * KAPPA])
        assert d.slow

    def test_below_first_rung_does_not_fire_slow(self):
        # down = 0.5*kappa is under the first odd rung (kappa - slack).
        d = decide(0.0, [-0.5 * KAPPA], slack=0.01)
        assert not d.slow

    def test_even_multiple_still_fires_slow_via_lower_rung(self):
        # down = 2*kappa satisfies ST at s=1 (down >= kappa - slack and
        # up <= kappa + slack): being ahead by two rungs still means
        # "slow down".
        d = decide(0.0, [-2 * KAPPA], slack=0.01)
        assert d.slow


class TestValidation:
    def test_bad_kappa(self):
        with pytest.raises(ParameterError):
            evaluate(0.0, {1: 1.0}, 0.0, 0.1)

    def test_bad_slack(self):
        with pytest.raises(ParameterError):
            evaluate(0.0, {1: 1.0}, 1.0, -0.1)

    def test_up_down_reported(self):
        d = decide(1.0, [4.0, -2.0])
        assert d.up == pytest.approx(3.0)
        assert d.down == pytest.approx(3.0)


class TestMutualExclusion:
    """Lemma 4.5: FT and ST are mutually exclusive for slack < k/2."""

    @given(
        own=st.floats(-1e4, 1e4),
        neighbors=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=6),
        kappa=st.floats(0.1, 100.0),
        slack_frac=st.floats(0.0, 0.49),
    )
    @settings(max_examples=400)
    def test_never_both(self, own, neighbors, kappa, slack_frac):
        # Lemma 4.8 uses slack = kappa/3; we test up to 0.49*kappa.
        # Firing fast at level s and slow at odd rung m needs
        # |2s - m| * kappa <= 2 * slack, and |2s - m| >= 1, so the
        # triggers exclude each other exactly for slack < kappa/2.
        # The margin below kappa/2 absorbs rounding in up + slack.
        slack = slack_frac * kappa
        d = evaluate(own, dict(enumerate(neighbors)), kappa, slack)
        assert not (d.fast and d.slow)

    def test_both_fire_at_half_kappa(self):
        # The lemma's boundary: at slack = kappa/2, up = down = 1.5
        # satisfies FT at s = 1 and ST at m = 1.
        d = evaluate(0.0, {0: 1.5, 1: -1.5}, 1.0, 0.5)
        assert d.fast and d.slow

    @given(
        own=st.floats(-1e3, 1e3),
        neighbors=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5),
        kappa=st.floats(0.5, 50.0),
    )
    @settings(max_examples=200)
    def test_conditions_imply_triggers(self, own, neighbors, kappa):
        """FC => FT and SC => ST when evaluated on the same values
        (the slack only widens the satisfied region)."""
        values = dict(enumerate(neighbors))
        cond = evaluate(own, values, kappa, 0.0)
        trig = evaluate(own, values, kappa, kappa / 3.0)
        if cond.fast:
            assert trig.fast
        if cond.slow:
            assert trig.slow

    @given(
        shift=st.integers(-1000, 1000),
        own=st.integers(-1000, 1000),
        neighbors=st.lists(st.integers(-1000, 1000), min_size=1,
                           max_size=5),
    )
    @settings(max_examples=200)
    def test_translation_invariance(self, shift, own, neighbors):
        """Triggers depend only on clock *differences*.

        Integer-valued clocks keep the float arithmetic exact, so the
        invariance is not confounded by rounding at rung boundaries
        (real clock values are never exactly on a boundary).
        """
        values = {k: float(v) for k, v in enumerate(neighbors)}
        shifted = {k: float(v + shift) for k, v in values.items()}
        d1 = evaluate(float(own), values, KAPPA, SLACK)
        d2 = evaluate(float(own + shift), shifted, KAPPA, SLACK)
        assert d1.fast == d2.fast
        assert d1.slow == d2.slow
