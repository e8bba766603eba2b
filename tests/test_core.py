import itertools
import tracemalloc

import numpy as np
import pytest

from seedbounds import core
from seedbounds.core import (BOTTOM, TOP, Instance, WeightedLocation, cost,
                             coverage, dist_pow, write_instance_csv)
from seedbounds.extfloat import EXT_ZERO, ExtScalar
from seedbounds.instances import gen_kmeans_bad, gen_kmedian_bad, reference_costs
from seedbounds.seeding import seed

from conftest import assert_rel_close


@pytest.fixture(scope="module")
def inst2():
    return gen_kmeans_bad(2, 4.0, 1.0)


# ---------------------------------------------------------------------------
# dist_pow
# ---------------------------------------------------------------------------

def test_dist_zero_for_identical_location(inst2):
    loc = inst2.locations[0]
    assert dist_pow(loc, loc, 2) == EXT_ZERO
    assert dist_pow(loc, loc, 1) == EXT_ZERO


def test_dist_hand_values(inst2):
    top1, bot1, top2, bot2 = inst2.locations
    # bar ends (0, 0.5)-(0, -0.5): squared distance 1
    assert dist_pow(top1, bot1, 2).to_float() == 1.0
    # (0, 0.5)-(2, 1): 2^2 + 0.5^2
    assert dist_pow(top1, top2, 2).to_float() == 4.25
    assert dist_pow(top1, bot2, 2).to_float() == 6.25
    assert_rel_close(dist_pow(top1, top2, 1).to_float(), 4.25 ** 0.5, 2**-48)
    assert dist_pow(top2, top1, 2).to_float() == 4.25  # symmetry


def test_dist_extreme_range_stays_finite():
    inst = gen_kmeans_bad(2000, 1.0, 1.0)
    d = dist_pow(inst.locations[0], inst.locations[-1], 2)
    # rightmost bar sits at x ~ 2^2000, squared distance ~ 2^4000
    assert 3990 <= d.e <= 4010
    assert not d.is_zero


def test_dist_closed_form_cross_check():
    # independent closed form for the generated geometry: for clusters
    # a > b and end signs s, t the squared distance is
    # r^2 * 4^a * ((1 - 2^-d)^2 + (s - t*2^-d)^2 / 16) with d = a - b
    inst = gen_kmeans_bad(9, 1.0, 3.0)
    by = {(loc.cluster_id, loc.end_id): loc for loc in inst.locations}
    for a, b, s_end, t_end in [(2, 1, TOP, TOP), (5, 3, TOP, BOTTOM),
                               (9, 1, BOTTOM, BOTTOM), (7, 6, BOTTOM, TOP)]:
        d = a - b
        s = 1.0 if s_end == TOP else -1.0
        t = 1.0 if t_end == TOP else -1.0
        expected = 9.0 * 4.0**a * ((1 - 2.0**-d) ** 2 + (s - t * 2.0**-d) ** 2 / 16)
        got = dist_pow(by[(a, s_end)], by[(b, t_end)], 2).to_float()
        assert_rel_close(got, expected, 2**-48)


def test_dist_rejects_bad_exponent(inst2):
    with pytest.raises(ValueError):
        dist_pow(inst2.locations[0], inst2.locations[1], 3)


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------

def test_cost_all_locations_is_zero(inst2):
    assert cost(inst2, range(4)) == EXT_ZERO


def test_cost_reference_and_doubled_prefix(inst2):
    assert cost(inst2, [0, 2]).to_float() == 8.0  # one end per cluster
    assert cost(inst2, [1, 3]).to_float() == 8.0
    assert cost(inst2, [0, 1]).to_float() == 8.5  # both ends of cluster 1


def test_cost_rejects_empty_and_invalid(inst2):
    with pytest.raises(ValueError):
        cost(inst2, [])
    with pytest.raises(ValueError):
        cost(inst2, [0, 0])
    with pytest.raises(ValueError):
        cost(inst2, [0, 9])


def test_cost_monotone_in_centers():
    inst = gen_kmeans_bad(6, 2.0, 1.0)
    rng = np.random.default_rng(7)
    for _ in range(25):
        order = rng.permutation(12)
        prev = None
        for j in range(1, 13):
            c = cost(inst, order[:j])
            if prev is not None:
                assert c <= prev
            prev = c


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------

def test_coverage_definitions(inst2):
    assert coverage(inst2, []) == (0, [False, False])
    assert coverage(inst2, [0, 1]) == (1, [True, False])
    assert coverage(inst2, [0, 2]) == (2, [True, True])
    assert coverage(inst2, [2, 0]) == (2, [True, True])  # order-independent


def test_coverage_bounded_by_center_count():
    inst = gen_kmeans_bad(5, 1.0, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        size = int(rng.integers(1, 11))
        picks = rng.choice(10, size=size, replace=False)
        count, flags = coverage(inst, picks)
        assert count == sum(flags) <= min(size, 5)


# ---------------------------------------------------------------------------
# coverage/cost floor: covering a*k clusters forces ratio >= (9 - a)/8
# ---------------------------------------------------------------------------

def test_cost_floor_random_subsets():
    rng = np.random.default_rng(12)
    for k in range(4, 9):
        inst = gen_kmeans_bad(k, 1.0, 1.0)
        opt = reference_costs(inst).discrete
        for _ in range(400):
            picks = rng.choice(2 * k, size=k, replace=False)
            a = coverage(inst, picks)[0] / k
            ratio = cost(inst, picks).ratio(opt)
            assert ratio >= (9.0 - a) / 8.0 - 1e-12


def test_cost_floor_equality_cases():
    # k=2, both ends of the heaviest bar: ratio is exactly 17/16
    inst = gen_kmeans_bad(2, 4.0, 1.0)
    ratio = cost(inst, [0, 1]).ratio(reference_costs(inst).discrete)
    assert abs(ratio - 17.0 / 16.0) <= 1e-12
    # doubly covering every other cluster meets the floor with equality
    for k in (4, 6, 8):
        inst = gen_kmeans_bad(k, 1.0, 1.0)
        picks = []
        for i in range(0, k, 2):  # both ends of odd-numbered clusters
            picks += [2 * i, 2 * i + 1]
        a = coverage(inst, picks)[0] / k
        assert a == 0.5
        ratio = cost(inst, picks).ratio(reference_costs(inst).discrete)
        assert abs(ratio - (9.0 - a) / 8.0) <= 1e-12


def test_uncovered_cluster_contributes_at_least_17_8():
    # every center set leaving exactly one cluster uncovered pays at least
    # (17/8) * m * r^2 for it
    for k in range(2, 9):
        inst = gen_kmeans_bad(k, 1.0, 1.0)
        locs = inst.locations  # rebuilt on each access: read it once
        floor = 17.0 / 8.0
        for picks in itertools.combinations(range(2 * k), k):
            count, flags = coverage(inst, picks)
            if count != k - 1:
                continue
            u = flags.index(False)
            ends = [loc for loc in locs if loc.cluster_id == u + 1]
            contrib = 0.0
            for loc in ends:
                best = min(dist_pow(loc, locs[c], 2) for c in picks)
                contrib += (loc.weight * best).to_float()
            assert contrib >= floor * (1 - 1e-12)


# ---------------------------------------------------------------------------
# custom instances and validation
# ---------------------------------------------------------------------------

def _symmetric_instance():
    # two equal-weight bars mirrored around x = 1, unit weights
    w = ExtScalar(1.0)
    h = ExtScalar(0.5)
    locs = [
        WeightedLocation(1, TOP, ExtScalar(0.0), h, w),
        WeightedLocation(1, BOTTOM, ExtScalar(0.0), h, w),
        WeightedLocation(2, TOP, ExtScalar(2.0), h, w),
        WeightedLocation(2, BOTTOM, ExtScalar(2.0), h, w),
    ]
    return Instance(locs, 2, 1.0, 1.0, "kmeans")


def test_custom_symmetric_instance_costs():
    inst = _symmetric_instance()
    assert cost(inst, [0, 2]).to_float() == 2.0  # each far end pays (2h)^2 = 1
    # both ends of bar 1: bar 2's ends each pay min(2^2, 2^2 + 1) = 4
    assert cost(inst, [0, 1]).to_float() == 8.0


def test_instance_validation():
    w = ExtScalar(1.0)
    h = ExtScalar(0.5)
    loc = WeightedLocation(1, TOP, ExtScalar(0.0), h, w)
    with pytest.raises(ValueError):
        Instance([loc], 1, 1.0, 1.0, "kmeans")
    with pytest.raises(ValueError):
        Instance([loc, loc], 1, 1.0, 1.0, "kmeans")
    with pytest.raises(ValueError):
        Instance([loc, WeightedLocation(1, BOTTOM, ExtScalar(0.0), h, w)],
                 1, 1.0, 1.0, "kmodes")
    with pytest.raises(ValueError):
        WeightedLocation(1, "middle", ExtScalar(0.0), h, w)
    with pytest.raises(ValueError):
        WeightedLocation(1, TOP, ExtScalar(0.0), h, EXT_ZERO)


def test_hand_built_locations_read_back_unchanged():
    # the packed columns are all an instance stores; its locations are rebuilt
    # from them: the end from the sign bit of y, -0.0 on a zero-height bottom
    w, h, zero = ExtScalar(1.5, -7), ExtScalar(0.5), ExtScalar(0.0)
    bottom_first = [WeightedLocation(2, BOTTOM, ExtScalar(3.0, 900), zero, w),
                    WeightedLocation(1, TOP, zero, h, ExtScalar(1.0)),
                    WeightedLocation(2, TOP, ExtScalar(3.0, 900), zero, w),
                    WeightedLocation(1, BOTTOM, zero, h, ExtScalar(1.0, -1100))]
    geo = _geometric_instance(6, "kmedian")
    for locs, k, variant in ((_symmetric_instance().locations, 2, "kmeans"),
                             (bottom_first, 2, "kmedian"),
                             (geo.locations, 6, "kmedian"),
                             (_bar_one_replaced(geo, zero, zero, w).locations, 6, "kmedian")):
        inst = Instance(locs, k, 1.0, 1.0, variant)
        assert inst.locations == tuple(locs)
        assert inst.n_locations == 2 * k


def test_instance_csv_round_trip(tmp_path):
    inst = gen_kmeans_bad(3, 4.0, 1.0)
    path = tmp_path / "instance.csv"
    write_instance_csv(inst, path)
    text = path.read_text().splitlines()
    assert text[0].startswith("# variant=kmeans k=3")
    assert text[1] == "cluster_id,end_id,x,y,weight"
    rows = [line.split(",") for line in text[2:]]
    assert len(rows) == 6
    # third bar: x = 6, y = +/-2, weight 1/4 of the second bar's
    row = rows[4]
    assert row[0] == "3" and row[1] == TOP
    assert_rel_close(ExtScalar.parse(row[2]).to_float(), 6.0, 1e-12)
    assert row[3].startswith("2.000")
    bot = rows[5]
    assert bot[3].startswith("-2.000")
    w2 = ExtScalar.parse(rows[2][4]).to_float()
    w3 = ExtScalar.parse(rows[4][4]).to_float()
    assert w2 / w3 == 4.0


# ---------------------------------------------------------------------------
# the row cache: the full matrix, or the bar-gap kernel above the cap
# ---------------------------------------------------------------------------

def _assert_rows_match(inst):
    """Every served row, near rows included, equals the explicitly computed
    row bit for bit, packed and as the plain source's doubles, whose F is
    that of every nonzero exponent of the explicit rows."""
    rows = inst.weighted_row_source()
    plain, F = inst.plain_row_source()
    ends = []
    for lo in range(0, inst.n_locations, 64):
        chunk = np.arange(lo, min(lo + 64, inst.n_locations))
        (km, ke), (wm, we) = rows(chunk), inst._weighted_rows(chunk)
        assert np.array_equal(km.view(np.int64), wm.view(np.int64)), chunk
        assert np.array_equal(ke, we), chunk
        assert np.array_equal(plain(chunk), core._as_plain(wm, we, F)), chunk
        # _plain_scale reads only the extremes, so each chunk's stand for it
        nz = we[wm != 0.0]
        ends += [nz.min(), nz.max()] if nz.size else []
    assert F == core._plain_scale(np.array(ends, dtype=np.int64))


def test_kernel_rows_match_every_explicit_row():
    for k in (1025, 1100):
        inst = gen_kmeans_bad(k, 4.0, 1.0)
        assert inst.n_locations ** 2 > core._MATRIX_MAX_ENTRIES
        _assert_rows_match(inst)
        kern = inst._rows
        # 108 zeros, then both ends of every bar gap -(n-1) .. n-1, n = k - 54
        assert kern.tail_m.shape == (2, 2 * 54 + 2 * (2 * (k - 54) - 1))
        # x = (2**i - 2) * r is a scaled power of two from bar 55 on; the head
        # columns repeat by scale once bar 55's x is negligible beside the
        # center's, from bar 109 on: the near block holds bars 1..54 over 1..108
        assert kern.near.shape == (2 * 54, 2 * 108)
        assert kern.near.nbytes == 186_624


def _geometric_instance(k, variant):
    """Hand-built bars that double from the first on: the tail is every bar."""
    ell = core.ELL[variant]
    locs = []
    for i in range(1, k + 1):
        x, h, w = ExtScalar(1.5, i), ExtScalar(1.25, i - 2), ExtScalar(1.0, -ell * i)
        locs += [WeightedLocation(i, TOP, x, h, w), WeightedLocation(i, BOTTOM, x, h, w)]
    return Instance(locs, k, 1.0, 1.0, variant)


def test_kernel_rows_match_every_row_under_a_zero_cap(monkeypatch):
    # under a zero cap every instance with a kernel caches it; under the real
    # cap the same instances cache the full matrix, gathered from its rows
    real_cap = core._MATRIX_MAX_ENTRIES
    for cap, ks in ((0, (55, 56, 60, 109, 110, 300)), (real_cap, (56, 109, 300))):
        monkeypatch.setattr(core, "_MATRIX_MAX_ENTRIES", cap)
        for gen in (gen_kmeans_bad, gen_kmedian_bad):
            # k=55 has no run of two bars past bar 54; k=56 and 60 have no
            # center whose head columns repeat by scale; from k=109 on some do
            for k, r, m in itertools.product(ks, (0.7, 1.0, 3.0), (1.0, 4.0)):
                inst = gen(k, m, r)
                _assert_rows_match(inst)
                is_matrix = isinstance(inst._rows, core._Matrix)
                assert is_matrix == (cap > 0 or k == 55), (cap, gen, k, r, m)
    monkeypatch.setattr(core, "_MATRIX_MAX_ENTRIES", 0)
    for variant in core.ELL:
        inst = _geometric_instance(40, variant)
        _assert_rows_match(inst)
        assert inst._rows.near.shape == (0, 2)  # the tail is every bar


def test_kernel_lowering_takes_the_minimum_with_the_served_rows(monkeypatch):
    # lower(s, j, lo, hi) against the whole plain row of j, for head and tail
    # centers, on spans left of, across and right of the tail's first column
    monkeypatch.setattr(core, "_MATRIX_MAX_ENTRIES", 0)
    rnd = np.random.default_rng(4)
    for gen, k in itertools.product((gen_kmeans_bad, gen_kmedian_bad), (60, 300, 1100)):
        inst = gen(k, 4.0, 1.0)
        plain, _ = inst.plain_row_source()
        lower, L, h = inst._rows.lowering(), inst.n_locations, len(inst._rows.near)
        spans = [(0, L), (0, 5), (h - 3, h + 3), (h, L), (L - 1, L)]
        spans += [tuple(sorted(rnd.integers(L + 1, size=2).tolist())) for _ in range(20)]
        for j in (0, h - 1, h, L - 1, *rnd.integers(L, size=20).tolist()):
            row = plain(np.array([j]))[0]
            for lo, hi in spans:
                # potentials on both sides of the row's values, +inf kept
                with np.errstate(over="ignore"):
                    s = row * rnd.choice([0.5, 2.0], size=L)
                s += rnd.choice([0.0, 2.0 ** -900], size=L)
                want = s.copy()
                want[lo:hi] = np.minimum(s[lo:hi], row[lo:hi])
                lower(s, j, lo, hi)
                assert np.array_equal(s.view(np.int64), want.view(np.int64)), (k, j, lo, hi)


def test_matrix_build_peaks_below_twice_the_cache():
    # the matrix is one gather of the kernel's plain rows or, without a
    # kernel (bar 1's weight has another mantissa), the explicit rows
    # converted block by block; either build holds little beyond the one
    # (L, L) array of doubles it returns
    gen = gen_kmeans_bad(600, 4.0, 1.0)
    bar1 = gen.locations[0]
    odd = _bar_one_replaced(gen, bar1.x, bar1.y_mag, ExtScalar(1.5, 2))
    for inst in (gen, odd):
        tracemalloc.start()
        try:
            cache = inst._row_cache()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(cache, core._Matrix)
        assert (inst._kern is None) is (inst is odd)
        arrays = [a for a in cache if isinstance(a, np.ndarray)]
        assert len(arrays) == 1 and arrays[0] is cache.plain
        assert cache.plain.shape == (1200, 1200) and cache.plain.dtype == np.float64
        assert peak < 2 * cache.plain.nbytes, inst is odd
    # the blocks hold the bits of one whole conversion
    plain, F = core._plain(*odd._weighted_rows(np.arange(odd.n_locations)))
    assert cache.plain.tobytes() == plain.tobytes() and cache.scale == F


def _bar_one_replaced(inst, x, h, w):
    """``inst`` with both ends of bar 1 at x, +/-h and weight w."""
    one = [WeightedLocation(1, end, x, h, w) for end in (TOP, BOTTOM)]
    return Instance(one + list(inst.locations[2:]), inst.k, 1.0, 1.0, inst.variant)


def test_hand_built_instance_has_no_kernel(monkeypatch):
    # whatever its size, an instance without a bar-gap tail caches the full
    # matrix, and reads its plain rows from it
    monkeypatch.setattr(core, "_MATRIX_MAX_ENTRIES", 0)
    inst = _symmetric_instance()
    assert core._tail_start(inst) == inst.k
    _assert_rows_match(inst)
    assert isinstance(inst._rows, core._Matrix)
    rows, F = inst.plain_row_source()
    assert rows == inst._rows.plain.__getitem__ and F == inst._rows.scale
    # one bar off the doubling pattern, the last, leaves no run of two bars
    geo = _geometric_instance(6, "kmeans")
    locs = list(geo.locations[:-2]) + [
        WeightedLocation(6, end, ExtScalar(1.0, 9), ExtScalar(1.25, 4), ExtScalar(1.0, -12))
        for end in (TOP, BOTTOM)]
    assert core._tail_start(Instance(locs, 6, 1.0, 1.0, "kmeans")) == 6
    # a tail from bar 2 on, but bar 1's weight has another mantissa, so its
    # rows are not the others' head columns transposed; or bar 1 is 2**600
    # away, so the near block holds values beyond the double range
    for x, w in ((ExtScalar(0.0), ExtScalar(1.5, -2)), (ExtScalar(1.0, 600), ExtScalar(1.0, -2))):
        odd = _bar_one_replaced(geo, x, ExtScalar(1.0, -600), w)
        assert core._tail_start(odd) == 1
        _assert_rows_match(odd)
        assert isinstance(odd._rows, core._Matrix)


def test_cost_above_the_cap_equals_seeding_cost():
    inst = gen_kmeans_bad(1100, 4.0, 1.0)
    assert inst.n_locations ** 2 > core._MATRIX_MAX_ENTRIES
    for t in range(2):
        tr = seed(inst, rng_seed=7, trial_index=t)
        assert cost(inst, tr.centers) == tr.final_cost
