import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seedbounds import bounds, rng
from seedbounds.errors import ConfigError
from seedbounds.urn import (biased_distinct_colors_dp,
                            biased_distinct_colors_mc, distinct_colors_exact,
                            distinct_colors_mc, tail_probability)

from conftest import assert_rel_close


def enum_distinct_counts(k):
    """Enumeration oracle: subsets of k balls from k pairs, by distinct colors."""
    counts = [0] * (k + 1)
    for subset in itertools.combinations(range(2 * k), k):
        counts[len({b // 2 for b in subset})] += 1
    return counts


# ---------------------------------------------------------------------------
# uniform draw
# ---------------------------------------------------------------------------

def test_exact_small_values():
    d2 = distinct_colors_exact(2)
    assert_rel_close(d2.probs[1], 1 / 3, 1e-15)
    assert_rel_close(d2.probs[2], 2 / 3, 1e-15)
    d3 = distinct_colors_exact(3)
    assert_rel_close(d3.probs[2], 12 / 20, 1e-15)
    assert_rel_close(d3.probs[3], 8 / 20, 1e-15)


def test_exact_matches_enumeration_exactly():
    for k in range(1, 7):
        counts = enum_distinct_counts(k)
        total = math.comb(2 * k, k)
        for i in range(k + 1):
            if 2 * i >= k:
                closed = (math.comb(k, i) * math.comb(i, k - i)) << (2 * i - k)
            else:
                closed = 0
            assert closed == counts[i]  # exact rational agreement
            assert distinct_colors_exact(k).probs[i] == closed / total


def test_exact_pigeonhole_zeros():
    for k in (5, 9, 16):
        probs = distinct_colors_exact(k).probs
        assert np.all(probs[: (k + 1) // 2] == 0.0)
        assert_rel_close(probs.sum(), 1.0, 1e-12)


def test_mc_matches_exact():
    exact = distinct_colors_exact(2)
    mc = distinct_colors_mc(2, 10**5, rng_seed=11)
    for i in (1, 2):
        se = (exact.probs[i] * (1 - exact.probs[i]) / 10**5) ** 0.5
        assert abs(mc.probs[i] - exact.probs[i]) <= 4 * se
    assert distinct_colors_mc(1, 100, rng_seed=0).probs[1] == 1.0


def test_mc_total_variation_k64():
    exact = distinct_colors_exact(64)
    mc = distinct_colors_mc(64, 10**5, rng_seed=5)
    tv = 0.5 * np.abs(exact.probs - mc.probs).sum()
    assert tv <= 0.01


def test_mc_is_deterministic():
    a = distinct_colors_mc(8, 5000, rng_seed=3)
    b = distinct_colors_mc(8, 5000, rng_seed=3)
    assert np.array_equal(a.probs, b.probs)


# ---------------------------------------------------------------------------
# biased draw
# ---------------------------------------------------------------------------

def test_dp_gamma1_equals_uniform_exact():
    for k in range(1, 65):
        dp = biased_distinct_colors_dp(k, 1.0)
        exact = distinct_colors_exact(k)
        assert np.abs(dp.probs - exact.probs).max() <= 1e-12


def test_dp_hand_value_k2_gamma5():
    dp = biased_distinct_colors_dp(2, 5.0)
    assert dp.probs[2] == 10 / 11
    assert_rel_close(dp.probs[1], 1 / 11, 1e-15)


def test_dp_trivial_k1():
    for gamma in (1.0, 2.5, 5.0):
        assert biased_distinct_colors_dp(1, gamma).probs[1] == 1.0


def test_dp_gamma_monotone_in_tail():
    # more bias toward new colors can only fatten the distinct-color tail
    t1 = tail_probability(biased_distinct_colors_dp(32, 1.0), 0.75)
    t3 = tail_probability(biased_distinct_colors_dp(32, 3.0), 0.75)
    t5 = tail_probability(biased_distinct_colors_dp(32, 5.0), 0.75)
    assert t1 <= t3 <= t5


@given(p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_transition_pair_sums_to_one_exactly(p):
    # the DP forms the stay-probability as 1 - p_new; for any p in [0, 1]
    # the rounded pair sums back to exactly 1.0
    assert p + (1.0 - p) == 1.0


def test_gamma_range_enforced():
    for bad in (0.5, 5.5, -1.0):
        with pytest.raises(ConfigError):
            biased_distinct_colors_dp(8, bad)
        with pytest.raises(ConfigError):
            biased_distinct_colors_mc(8, bad, 100, 0)


def test_mc_biased_gamma1_matches_exact():
    exact = distinct_colors_exact(3)
    mc = biased_distinct_colors_mc(3, 1.0, 2 * 10**5, rng_seed=7)
    for i in range(4):
        se = (exact.probs[i] * (1 - exact.probs[i]) / (2 * 10**5)) ** 0.5
        assert abs(mc.probs[i] - exact.probs[i]) <= max(4 * se, 1e-12)


def test_mc_biased_k2_gamma5():
    mc = biased_distinct_colors_mc(2, 5.0, 2 * 10**5, rng_seed=9)
    p = 10 / 11
    se = (p * (1 - p) / (2 * 10**5)) ** 0.5
    assert abs(mc.probs[2] - p) <= 4 * se


def test_mc_biased_matches_dp_midrange():
    dp = biased_distinct_colors_dp(16, 2.0)
    mc = biased_distinct_colors_mc(16, 2.0, 10**5, rng_seed=21)
    for i in range(17):
        se = (dp.probs[i] * (1 - dp.probs[i]) / 10**5) ** 0.5
        assert abs(mc.probs[i] - dp.probs[i]) <= max(4 * se, 1e-10)


@pytest.mark.parametrize("u", [0.0, 1.0 - 2**-53])
def test_mc_biased_extreme_uniforms(monkeypatch, u):
    # u = 0 draws the first ball of positive weight, u = 1 - 2**-53 the last:
    # both balls of one color, then of the next, so every trial sees
    # ceil(k/2) colors.  Rows of 2k balls end in zero padding at k = 1, 3 and
    # 17, and fill one or more whole tree blocks at k = 8 and 64; a draw on
    # padding or on a ball already drawn would change the count
    monkeypatch.setattr(rng, "uniform_matrix",
                        lambda seed, trials, n: np.full((len(trials), n), u))
    for k in (1, 3, 8, 17, 64):
        probs = biased_distinct_colors_mc(k, 1.3, 37, 0).probs
        assert probs[(k + 1) // 2] == 1.0 and probs.sum() == 1.0, k


def test_trials_must_be_positive():
    with pytest.raises(ConfigError):
        distinct_colors_mc(4, 0, 0)
    with pytest.raises(ConfigError):
        biased_distinct_colors_mc(4, 2.0, 0, 0)


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------

def test_tail_edges():
    d = distinct_colors_exact(6)
    assert_rel_close(tail_probability(d, 0.0), 1.0, 1e-12)  # p[0] = 0 at k >= 1
    assert tail_probability(d, 1.0) == 0.0
    with pytest.raises(ConfigError):
        tail_probability(d, 1.5)


def test_tail_against_closed_form_bound_k128():
    t = tail_probability(distinct_colors_exact(128), 7 / 8)
    b = bounds.uniform_tail_bound(128)
    assert_rel_close(b, 5 * math.sqrt(128) * 2.0**-8, 1e-15)
    assert t <= b


def test_tail_monotone_decay():
    tails = [tail_probability(distinct_colors_exact(k), 7 / 8)
             for k in (32, 64, 128, 256, 512)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))


def test_product_inequality_log_domain_spot():
    # full k range runs in the acceptance suite; spot-check the edges here
    def gap(k, i):
        lhs = sum(math.log(2 * k - j * 1.8) for j in range(i))
        rhs = (i * math.log(2) + math.lgamma(k + 1)
               - math.lgamma(k - 0.9 * i + 1) + (i / 10) * math.log(k - 0.9 * i))
        return lhs - rhs

    for k in (20, 21, 100, 512):
        for i in range(math.ceil(0.99 * k), k + 1):
            assert gap(k, i) >= -1e-9


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

def test_bound_values():
    assert_rel_close(bounds.early_miss_bound(300, 0.1, 0.1), math.exp(-1), 1e-12)
    assert_rel_close(bounds.early_miss_bound(150, 0.1, 0.1), math.exp(-0.5), 1e-12)
    assert_rel_close(bounds.uniform_tail_bound(128), 0.22097086912079612, 1e-12)
    assert_rel_close(bounds.biased_tail_bound(64), 8.0 * 0.5, 1e-12)
    assert_rel_close(bounds.high_coverage_bound(900), 7.5, 1e-12)
    assert bounds.is_vacuous(bounds.high_coverage_bound(900))
    assert not bounds.is_vacuous(bounds.high_coverage_bound(4000))


def test_bound_dispatch_and_validation():
    assert bounds.evaluate("early_miss", 300) == bounds.early_miss_bound(300, 0.1, 0.1)
    assert bounds.evaluate("high_coverage", 1000) == bounds.high_coverage_bound(1000)
    with pytest.raises(ConfigError):
        bounds.evaluate("nope", 10)
    with pytest.raises(ConfigError):
        bounds.early_miss_bound(10, 0.0, 0.5)
    with pytest.raises(ConfigError):
        bounds.uniform_tail_bound(0)
