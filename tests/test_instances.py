import itertools
import math
import pickle

import numpy as np
import pytest

import reference_oracles as ref
from seedbounds.core import TOP, cost, coverage, dist_pow
from seedbounds.errors import CapacityError, ConfigError
from seedbounds.harness import ExperimentConfig
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
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="m must be finite"):
            gen_kmeans_bad(2, m=bad)
        with pytest.raises(ConfigError, match="r must be finite"):
            gen_kmedian_bad(2, r=bad)
        for field in ("m", "r"):
            with pytest.raises(ConfigError, match=f"{field} must be finite"):
                ExperimentConfig(**{field: bad}).validate()


@pytest.mark.parametrize("variant, gen", [("kmeans", gen_kmeans_bad),
                                          ("kmedian", gen_kmedian_bad)])
def test_generated_columns_match_the_location_generator(variant, gen):
    # x = (2**i - 2) * r is exact up to cluster 54 and 2**i * r from 55 on
    for k in (1, 2, 53, 54, 55, 56, 200, 2000):
        for m, r in ((1.0, 1.0), (4.0, 1.0), (3.0, 0.7), (1e6, 2.0 ** -60), (1.0, 2.0 ** 40)):
            got, want = gen(k, m, r), ref.bar_instance(k, m, r, variant)
            for name in ("_cluster", "_w_m", "_w_e"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (name, k, m, r)
            for name in ("_x", "_y"):
                for a, b in zip(getattr(got, name), getattr(want, name)):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (name, k, m, r)
                    assert np.array_equal(np.signbit(a), np.signbit(b)), (name, k, m, r)
            assert (got.k, got.m, got.r, got.variant) == (want.k, want.m, want.r, want.variant)
            if k <= 200:
                assert got.locations == want.locations


def test_generated_instance_pickles_without_location_objects():
    for gen in (gen_kmeans_bad, gen_kmedian_bad):
        inst = gen(60, 4.0, 0.7)
        data = pickle.dumps(inst)
        assert b"WeightedLocation" not in data and b"ExtScalar" not in data
        assert pickle.loads(data).locations == inst.locations


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
        locs = gen_kmeans_bad(k, 4.0, 1.0).locations
        origin_top = locs[0]
        m_r2 = 4.0
        for loc in locs[-2:]:
            val = (loc.weight * dist_pow(loc, origin_top, 2)).to_float()
            assert val <= 5.0 * m_r2
        far_top, far_bot = locs[-2], locs[-1]
        own = (far_top.weight * dist_pow(far_top, far_bot, 2)).to_float()
        assert_rel_close(own, m_r2, 1e-12)


def test_heavy_prefix_potential_floor():
    # cost restricted to the B heaviest bars, with centers everywhere to
    # their right, exceeds 10 * 2^(2B) * m * r^2 once B >= 5 (the asymptotic
    # regime of the coverage analysis); below that the constant is too big.
    def phi_prefix(k, B):
        locs = gen_kmeans_bad(k, 1.0, 1.0).locations
        centers = [i for i, loc in enumerate(locs) if loc.cluster_id > B]
        tot = 0.0
        for loc in locs:
            if loc.cluster_id <= B:
                best = min(dist_pow(loc, locs[c], 2) for c in centers)
                tot += (loc.weight * best).to_float()
        return tot

    for B in (5, 6, 8):
        assert phi_prefix(10 * B, B) >= 10.0 * 2.0 ** (2 * B)
    assert phi_prefix(40, 4) < 10.0 * 2.0 ** 8  # documented small-B failure
