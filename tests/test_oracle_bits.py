"""The block oracles, the urn oracles, the head-shift check and the bar
dominance check return the bits of their loop-at-a-time references."""

import itertools

import numpy as np
import pytest

import reference_oracles as ref
from seedbounds import core, rng, seeding, urn
from seedbounds.extfloat import ExtScalar
from seedbounds.instances import brute_force_opt, gen_kmeans_bad, gen_kmedian_bad

from test_core import _bar_one_replaced, _geometric_instance
from test_seeding import _M_R, _tall_head_bar, _two_bar_instance

GENS = (gen_kmeans_bad, gen_kmedian_bad)


def _same_brute(inst):
    (got_cost, got_best), (want_cost, want_best) = brute_force_opt(inst), ref.brute_force_opt(inst)
    assert (got_cost.m, got_cost.e, got_best) == (want_cost.m, want_cost.e, want_best)
    assert all(type(i) is int for i in got_best)


def _same_exact(inst):
    (got, got_ratio), (want, want_ratio) = (seeding.exact_distribution(inst),
                                            ref.exact_distribution(inst))
    assert np.array_equal(got.probs, want.probs)
    assert got_ratio == want_ratio and type(got_ratio) is type(want_ratio)


@pytest.mark.parametrize("gen", GENS)
@pytest.mark.parametrize("k", range(1, 8))
def test_brute_force_bits(gen, k):
    for m in (1.0, 4.0 ** k):
        for r in (1.0, 3.0):
            _same_brute(gen(k, m, r))


def test_brute_force_bits_two_bars():
    for x in (ExtScalar(3.0), ExtScalar(1.0, 10), ExtScalar(1.5, 484)):
        _same_brute(_two_bar_instance(x))


def test_closed_form_bits():
    for k in [*range(1, 301), 2048, 2049]:
        assert np.array_equal(urn.distinct_colors_exact(k).probs,
                              ref.distinct_colors_exact(k).probs), k


@pytest.mark.parametrize("gamma", [1.0, 1.3, 2.3, 5.0])
def test_biased_dp_bits(gamma):
    # the band DP against the DP over all k + 1 states: every state, in and
    # out of the band, and the exact zeros of the unreachable ones
    for k in [*range(1, 301), 1025, 2048, 2049]:
        got, want = urn.biased_distinct_colors_dp(k, gamma).probs, \
            ref.biased_distinct_colors_dp(k, gamma).probs
        assert got.tobytes() == want.tobytes(), k
        assert not got[:(k + 1) // 2].any(), k


@pytest.mark.parametrize("gamma", [1.0, 1.3, 5.0])
def test_biased_mc_bits(gamma):
    # 600 trials span two trial chunks at k = 64.  601 make an odd chunk at
    # every k: one chunk of 601 at k <= 17, chunks of 512 and 89 at k = 64.
    # A row of 2k balls fills part of one tree block at k <= 3, and ends in
    # zero padding at k = 1, 3 and 17
    for k in (1, 3, 17, 64):
        for trials in (600, 601):
            assert np.array_equal(urn.biased_distinct_colors_mc(k, gamma, trials, 5).probs,
                                  ref.biased_distinct_colors_mc(k, gamma, trials, 5).probs), \
                (k, trials)


def test_uniform_mc_bits():
    # 601 trials: a chunk of 512 and one of 89 at k = 64
    for k in (1, 2, 3, 17, 64):
        for trials in (1, 600, 601):
            assert np.array_equal(urn.distinct_colors_mc(k, trials, 3).probs,
                                  ref.distinct_colors_mc(k, trials, 3).probs), (k, trials)


@pytest.mark.parametrize("levels", [2, 4, 8])
def test_uniform_mc_ties_take_the_index_partition(monkeypatch, levels):
    # uniforms on a coarse grid often tie at a row's k-th smallest value, so
    # more than k balls lie at or below it
    uniform = rng.uniform_matrix
    monkeypatch.setattr(rng, "uniform_matrix",
                        lambda *args: np.floor(uniform(*args) * levels) / levels)
    for k in (2, 3, 5, 17):
        U = rng.uniform_matrix(11, np.arange(300, dtype=np.uint64), 2 * k)
        ties = np.count_nonzero(U <= np.partition(U, k - 1, axis=1)[:, k - 1:k], axis=1) > k
        assert ties.any() and (levels == 2 or not ties.all()), k
        assert np.array_equal(urn.distinct_colors_mc(k, 300, 11).probs,
                              ref.distinct_colors_mc(k, 300, 11).probs), k


@pytest.mark.parametrize("gen", GENS)
def test_exact_distribution_bits(gen):
    for k in range(1, 7):
        for m, r in ((4.0, 1.0), (1.0, 3.0)):
            _same_exact(gen(k, m, r))
    _same_exact(_two_bar_instance(ExtScalar(1.5, 484)))


def _urn_mcs(mod):
    # 61 trials: at k = 1 a grid of 7 elements makes chunks of 3 trials, the
    # last one of 1, and one of 64 makes a chunk of 32 and one of 29; at
    # k = 3 they make 61 one-trial chunks and chunks of 10 and 1
    return [f(k, 61, 4).probs for k in (1, 3, 5) for f in (
        mod.distinct_colors_mc, lambda *a: mod.biased_distinct_colors_mc(a[0], 2.3, *a[1:]))]


@pytest.mark.parametrize("chunk_elems", [1, 7, 64])
def test_block_oracles_ignore_the_chunk_grid(monkeypatch, chunk_elems):
    # the references run on the default grid; the block versions on a grid of
    # one to a few sets, subsets or trials per block
    want = [(ref.brute_force_opt(gen(k, 4.0, 1.0)), ref.exact_distribution(gen(k, 4.0, 1.0)))
            for gen in GENS for k in (3, 5)]
    want_urn = _urn_mcs(ref)
    monkeypatch.setattr(rng, "CHUNK_ELEMS", chunk_elems)
    got = [(brute_force_opt(gen(k, 4.0, 1.0)), seeding.exact_distribution(gen(k, 4.0, 1.0)))
           for gen in GENS for k in (3, 5)]
    for ((gc, gb), (gd, gr)), ((wc, wb), (wd, wr)) in zip(got, want):
        assert (gc, gb, gr) == (wc, wb, wr)
        assert np.array_equal(gd.probs, wd.probs)
    for got_probs, want_probs in zip(_urn_mcs(urn), want_urn, strict=True):
        assert np.array_equal(got_probs, want_probs)


def _same_head_shift(inst):
    tail = core._tail_start(inst)
    assert tail < inst.k
    assert core._head_shift_start(inst, tail) == ref.head_shift_start(inst, tail)


@pytest.mark.parametrize("gen", GENS)
@pytest.mark.parametrize("k", [56, 57, 60, 110, 300, 1025, 2000, 3000])
def test_head_shift_start_equals_the_scan_over_every_bar(gen, k):
    # up to k=107 no bar is absorbed and both scan every bar; from k=108 on the
    # check stops at the first absorbed bar, 0-based bar 107 of these instances
    for r, m in itertools.product((0.7, 1.0, 3.0, 2.0 ** -60, 2.0 ** 40), (1.0, 4.0, 1e6)):
        _same_head_shift(gen(k, m, r))


def test_head_shift_start_on_hand_built_instances():
    for variant in core.ELL:
        # the tail is every bar: no head columns, and the first bar is absorbed
        geo = _geometric_instance(120, variant)
        assert core._tail_start(geo) == 0
        assert core._head_shift_start(geo, 0) == ref.head_shift_start(geo, 0) == 1
        # bar 1 off the pattern, at x = 0 and y = +/-2**40 or at x = 2**40: the
        # tail bars absorb its x at once but its y about 95 bars later, or the
        # other way round
        w = ExtScalar(1.0, -core.ELL[variant])
        for x, h in ((ExtScalar(0.0), ExtScalar(1.0, 40)), (ExtScalar(1.0, 40), ExtScalar(0.0))):
            inst = _bar_one_replaced(geo, x, h, w)
            assert core._tail_start(inst) == 1
            assert core._head_shift_start(inst, 1) == ref.head_shift_start(inst, 1) > 90


@pytest.mark.parametrize("gen", GENS)
@pytest.mark.parametrize("k", [1025, 2000, 3000])
def test_dominance_check_equals_the_full_scan(gen, k):
    # every generated kernel on this grid is dominant
    for m, r in _M_R:
        inst = gen(k, m, r)
        assert inst._row_cache().dominant is ref.bars_dominant(inst) is True, (m, r)


def test_dominance_check_on_small_and_hand_built_kernels(monkeypatch):
    monkeypatch.setattr(core, "_MATRIX_MAX_ENTRIES", 0)
    insts = [gen(k, m, r) for gen in GENS for k in (56, 60, 300) for m, r in _M_R]
    for variant in core.ELL:
        # the tail is every bar; one tall head bar; a tail from bar 2 on,
        # with bar 1 moved far up, far right, or to x = 0 at half-height 4
        # or 2: only the first and the last are dominant
        geo = _geometric_instance(120, variant)
        w = ExtScalar(1.0, -core.ELL[variant])
        insts += [_geometric_instance(40, variant), _tall_head_bar(80, variant)]
        insts += [_bar_one_replaced(geo, x, h, w) for x, h in (
            (ExtScalar(0.0), ExtScalar(1.0, 40)), (ExtScalar(1.0, 40), ExtScalar(0.0)),
            (ExtScalar(0.0), ExtScalar(1.0, 2)), (ExtScalar(0.0), ExtScalar(1.0, 1)))]
    flags = []
    for inst in insts:
        assert isinstance(inst._row_cache(), core._BarGapKernel)
        flags.append(inst._rows.dominant)
        assert flags[-1] == ref.bars_dominant(inst), (inst.variant, inst.k)
    assert flags.count(False) == 8


def test_dominance_check_equals_the_full_scan_on_perturbed_kernels(monkeypatch):
    # one served value of a dominant k=120 kernel scaled, whichever part of
    # the check reads it: the tail rows, the head pairs' near rows, the
    # junction pair's rows or the head columns of the tail bars (near block
    # bars 1..54 over bars 1..108)
    monkeypatch.setattr(core, "_MATRIX_MAX_ENTRIES", 0)
    rnd = np.random.default_rng(8)
    for gen in GENS:
        inst = gen(120, 4.0, 1.0)
        kern = inst._row_cache()
        assert kern.dominant and kern.near.shape == (108, 216)
        # near row 107 is bar 54's bottom end, the junction's left bar;
        # column 108 is bar 55's top end, the first tail bar, and column 214
        # bar 108's, the last near-block bar, whose head columns every later
        # bar repeats by scale
        cases = [("near", (107, 108), 2.0), ("near", (107, 108), 0.5),
                 ("near", (0, 108), 2.0 ** 8), ("near", (0, 214), 2.0 ** 8)]
        for _ in range(60):
            field = ("tail_plain", "near")[rnd.integers(2)]
            shape = getattr(kern, field).shape
            cases.append((field, tuple(int(rnd.integers(n)) for n in shape),
                          (0.5, 0.99, 1.01, 2.0, 2.0 ** 20)[rnd.integers(5)]))
        flags = []
        for field, at, factor in cases:
            values = getattr(kern, field).copy()
            values[at] *= factor
            inst._rows = kern._replace(**{field: values})
            flags.append(core._dominant(inst._rows))
            assert flags[-1] == ref.bars_dominant(inst), (field, at, factor)
        assert flags[:4] == [False] * 4 and True in flags


@pytest.mark.parametrize("chunk_elems", [1, 7 * 600])
def test_head_shift_start_ignores_the_chunk_grid(monkeypatch, chunk_elems):
    # one bar per chunk, or seven bars of a k=300 instance: the first absorbed
    # bar lies in a later chunk than the tail's first bar
    insts = [gen(k, 4.0, 1.0) for gen in GENS for k in (110, 300)]
    want = [ref.head_shift_start(inst, core._tail_start(inst)) for inst in insts]
    monkeypatch.setattr(rng, "CHUNK_ELEMS", chunk_elems)
    assert [core._head_shift_start(inst, core._tail_start(inst)) for inst in insts] == want
