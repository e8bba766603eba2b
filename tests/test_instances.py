import itertools
import math

import pytest

from seedbounds.core import TOP, cost, coverage, dist_pow
from seedbounds.errors import CapacityError, ConfigError
from seedbounds.instances import (brute_force_opt, gen_kmeans_bad,
                                  gen_kmedian_bad, reference_costs)

from conftest import assert_rel_close


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_kmeans_generation_small():
    inst = gen_kmeans_bad(1, 4.0, 1.0)
    (top, bot) = inst.locations
    assert (top.x.to_float(), top.y_mag.to_float(), top.weight.to_float()) == (0.0, 0.5, 4.0)
    assert bot.end_id == "bottom" and bot.weight.to_float() == 4.0

    inst = gen_kmeans_bad(2, 4.0, 1.0)
    t2 = inst.locations[2]
    assert (t2.x.to_float(), t2.y_mag.to_float(), t2.weight.to_float()) == (2.0, 1.0, 1.0)

    inst = gen_kmeans_bad(3, 16.0, 1.0)
    t3 = inst.locations[4]
    assert (t3.x.to_float(), t3.y_mag.to_float(), t3.weight.to_float()) == (6.0, 2.0, 1.0)


def test_kmedian_generation_small():
    inst = gen_kmedian_bad(1, 2.0, 1.0)
    assert inst.locations[0].weight.to_float() == 2.0
    assert inst.ell == 1
    inst = gen_kmedian_bad(2, 2.0, 1.0)
    t2 = inst.locations[2]
    assert (t2.x.to_float(), t2.y_mag.to_float(), t2.weight.to_float()) == (2.0, 1.0, 1.0)


def test_generation_scales_with_r():
    inst = gen_kmeans_bad(3, 1.0, 3.0)
    t3 = inst.locations[4]
    assert t3.x.to_float() == 18.0 and t3.y_mag.to_float() == 6.0


def test_weight_ratio_between_consecutive_clusters():
    km = gen_kmeans_bad(40, 7.0, 1.0)
    kd = gen_kmedian_bad(40, 7.0, 1.0)
    for i in range(0, 78, 2):
        assert km.locations[i].weight == km.locations[i + 2].weight.shifted(2)
        assert kd.locations[i].weight == kd.locations[i + 2].weight.shifted(1)


def test_generation_rejects_bad_params():
    with pytest.raises(ConfigError):
        gen_kmeans_bad(0)
    with pytest.raises(ConfigError):
        gen_kmeans_bad(2, m=0.5)
    with pytest.raises(ConfigError):
        gen_kmedian_bad(2, r=0.0)


# ---------------------------------------------------------------------------
# reference costs
# ---------------------------------------------------------------------------

def test_reference_costs_values():
    km = reference_costs(gen_kmeans_bad(2, 4.0, 1.0))
    assert km.discrete.to_float() == 8.0
    assert km.continuous.to_float() == 4.0
    kd = reference_costs(gen_kmedian_bad(3, 4.0, 1.0))
    assert kd.discrete.to_float() == 12.0
    assert kd.continuous <= kd.discrete
    km3 = reference_costs(gen_kmeans_bad(3, 2.0, 3.0))
    assert km3.discrete.to_float() == 3 * 2 * 9
    assert not km3.continuous.is_zero and km3.continuous <= km3.discrete


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def test_brute_force_small_examples():
    c, best = brute_force_opt(gen_kmeans_bad(2, 4.0, 1.0))
    assert c.to_float() == 8.0
    assert coverage(gen_kmeans_bad(2, 4.0, 1.0), best)[0] == 2

    c, _ = brute_force_opt(gen_kmeans_bad(7, 1.0, 1.0))
    assert_rel_close(c.to_float(), 7.0, 1e-9)

    c, _ = brute_force_opt(gen_kmedian_bad(2, 2.0, 1.0))
    assert_rel_close(c.to_float(), 4.0, 1e-9)


def test_brute_force_matches_reference_and_covers():
    for k in range(1, 9):
        for gen in (gen_kmeans_bad, gen_kmedian_bad):
            inst = gen(k, 2.0, 1.0)
            opt = reference_costs(inst).discrete
            got, best = brute_force_opt(inst)
            assert abs(got.ratio(opt) - 1.0) <= 1e-9
            assert coverage(inst, best)[0] == k


def test_brute_force_capacity_error():
    with pytest.raises(CapacityError):
        brute_force_opt(gen_kmeans_bad(12, 1.0, 1.0))


def test_brute_force_best_is_lexicographically_smallest():
    inst = gen_kmeans_bad(3, 4.0, 1.0)
    got, best = brute_force_opt(inst)
    opt = got.to_float()
    argmins = []
    for subset in itertools.combinations(range(6), 3):
        if abs(cost(inst, subset).to_float() - opt) <= 1e-12 * opt:
            argmins.append(subset)
    assert best == min(argmins)
    # the optimum is achieved exactly by one-end-per-cluster sets
    assert len(argmins) == 8
    for subset in argmins:
        assert coverage(inst, subset)[0] == 3


# ---------------------------------------------------------------------------
# geometry sanity at scale
# ---------------------------------------------------------------------------

def test_rightmost_cluster_potential_sanity():
    # either end of the rightmost bar, served by the leftmost top end, costs
    # at most 5*m*r^2; the uncovered end of a covered bar costs exactly m*r^2
    for k in range(2, 65):
        inst = gen_kmeans_bad(k, 4.0, 1.0)
        origin_top = inst.locations[0]
        m_r2 = 4.0
        for loc in inst.locations[-2:]:
            val = (loc.weight * dist_pow(loc, origin_top, 2)).to_float()
            assert val <= 5.0 * m_r2
        far_top, far_bot = inst.locations[-2], inst.locations[-1]
        own = (far_top.weight * dist_pow(far_top, far_bot, 2)).to_float()
        assert_rel_close(own, m_r2, 1e-12)


def test_heavy_prefix_potential_floor():
    # cost restricted to the B heaviest bars, with centers everywhere to
    # their right, exceeds 10 * 2^(2B) * m * r^2 once B >= 5 (the asymptotic
    # regime of the coverage analysis); below that the constant is too big.
    def phi_prefix(k, B):
        inst = gen_kmeans_bad(k, 1.0, 1.0)
        centers = [i for i, loc in enumerate(inst.locations) if loc.cluster_id > B]
        tot = 0.0
        for loc in inst.locations:
            if loc.cluster_id <= B:
                best = min(dist_pow(loc, inst.locations[c], 2) for c in centers)
                tot += (loc.weight * best).to_float()
        return tot

    for B in (5, 6, 8):
        assert phi_prefix(10 * B, B) >= 10.0 * 2.0 ** (2 * B)
    assert phi_prefix(40, 4) < 10.0 * 2.0 ** 8  # documented small-B failure
