import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_oracles as ref
from seedbounds import rng, seeding
from seedbounds.errors import ConfigError
from seedbounds.harness import ExperimentConfig
from seedbounds.instances import gen_kmeans_bad
from seedbounds.urn import biased_distinct_colors_mc, distinct_colors_mc


def test_scalar_and_matrix_streams_agree():
    # README formula on Python ints: uniform j (1-based) of trial t is the
    # top 53 bits of mix64(stream_base(seed, t) + j * GAMMA), over 2**53.
    trials = np.array([0, 1, 7, 12345, 2**40, 2**64 - 1], dtype=np.uint64)
    mat = rng.uniform_matrix(9, trials, 16)
    for row, t in zip(mat, trials):
        base = rng.stream_base(9, int(t))
        ref = [(rng.mix64(base + j * rng.GAMMA) >> 11) / 2.0**53 for j in range(1, 17)]
        assert row.tolist() == ref


def test_trial_chunks_partition():
    assert list(rng.trial_chunks(5, 10, rng.CHUNK_ELEMS // 4)) == [(5, 9), (9, 13), (13, 15)]
    assert list(rng.trial_chunks(0, 3, rng.CHUNK_ELEMS * 2)) == [(0, 1), (1, 2), (2, 3)]
    assert list(rng.trial_chunks(7, 0, 1)) == []


def test_urn_monte_carlo_does_not_depend_on_chunking(monkeypatch):
    ref = [distinct_colors_mc(6, 300, 3).probs,
           biased_distinct_colors_mc(6, 2.0, 300, 4).probs]
    monkeypatch.setattr(rng, "CHUNK_ELEMS", 64)  # a few trials per chunk
    chopped = [distinct_colors_mc(6, 300, 3).probs,
               biased_distinct_colors_mc(6, 2.0, 300, 4).probs]
    assert all(np.array_equal(a, b) for a, b in zip(ref, chopped))


def test_seeds_outside_64_bits_are_refused():
    # a stream reads its seed modulo 2**64: -5 and 2**64 - 5 would alias
    assert np.array_equal(rng.uniform_matrix(-5, [0], 4), rng.uniform_matrix(2**64 - 5, [0], 4))
    inst = gen_kmeans_bad(3, 4.0, 1.0)
    for bad in (-1, -5, 2**64, 2**65 + 3):
        with pytest.raises(ConfigError, match="seed"):
            rng.check_seed(bad)
        for call in (lambda: distinct_colors_mc(3, 10, bad),
                     lambda: biased_distinct_colors_mc(3, 2.0, 10, bad),
                     lambda: seeding.seed(inst, rng_seed=bad),
                     lambda: seeding.run_trials(inst, 2, bad),
                     ExperimentConfig(k=3, trials=2, master_seed=bad).validate):
            with pytest.raises(ConfigError, match="seed"):
                call()
    for good in (0, 2**64 - 1):
        rng.check_seed(good)
        ExperimentConfig(k=3, trials=2, master_seed=good).validate()
        assert distinct_colors_mc(3, 10, good).probs.sum() == 1.0
        assert seeding.run_trials(inst, 2, good).coverage.size == 2


def test_streams_are_deterministic_and_distinct():
    a = rng.uniform_matrix(3, [5], 32)[0]
    b = rng.uniform_matrix(3, [5], 32)[0]
    c = rng.uniform_matrix(3, [6], 32)[0]
    d = rng.uniform_matrix(4, [5], 32)[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_uniform_range_and_mean():
    u = rng.uniform_matrix(0, np.arange(2000, dtype=np.uint64), 50).ravel()
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(np.cov(u[:-1], u[1:])[0, 1]) < 0.01


def test_mix64_matches_vector_path():
    vals = np.array([0, 1, 2**63, 0xDEADBEEF], dtype=np.uint64)
    mixed = rng._mix64_np(vals.copy())
    for v, out in zip(vals, mixed):
        assert rng.mix64(int(v)) == int(out)


# ---------------------------------------------------------------------------
# the pick rule: block trees, block prefix, descent
# ---------------------------------------------------------------------------

def _lanes(row, other):
    """The lane views of ``row`` in a complex128 tree beside ``other``:
    strided 1-D views of every level and of the block prefix."""
    pair = np.zeros((1, max(len(row), len(other))), dtype=np.complex128)
    pair.real[0, :len(row)], pair.imag[0, :len(other)] = row, other
    levels, prefix = rng.block_tree(pair)
    return ([lv.view(np.float64)[0::2] for lv in levels], prefix.view(np.float64)[:, 0],
            [lv.view(np.float64)[1::2] for lv in levels], prefix.view(np.float64)[:, 1])


def _assert_the_literal_rule(rows, us):
    """Every row of ``rows`` (one length) with every u in ``us``: the batch
    form, one row per u and one row for every u, and both lane forms pick
    as the literal rule, on a positive weight, with its total."""
    rows = np.asarray(rows, dtype=float)
    want = [[ref.block_rule(row, u) for u in us] for row in rows]
    for row, w in zip(rows, want):
        assert all(row[j] > 0.0 for j, _ in w), (row.tolist(), w)
        levels, prefix = rng.block_tree(row[None, :])
        assert prefix[-1, 0] == w[0][1]
        assert rng.block_pick(levels, prefix, np.array(us)).tolist() == [j for j, _ in w]
        # each lane beside other weights
        for lv, c in (_lanes(row, row[::-1] * 3.0)[:2], _lanes(row[::-1] * 5.0, row)[2:]):
            assert c.strides == (16,) and c.item(-1) == w[0][1]
            assert [rng.lane_pick(lv, c, u) for u in us] == [j for j, _ in w]
    for i, u in enumerate(us):
        levels, prefix = rng.block_tree(rows)
        got = rng.block_pick(levels, prefix, np.full(len(rows), u))
        assert got.tolist() == [w[i][0] for w in want]
        assert prefix[-1].tolist() == [w[i][1] for w in want]


@st.composite
def _rows_and_us(draw):
    # leading and interior zeros, equal neighbours, lengths below and past
    # one block and on both sides of the block prefix's two forms, scales
    # down to the least double (2**-1074 puts every target on the floor);
    # u = 0, uniforms, and u = (a leading run's sum) / total, which lands
    # targets on or next to sums
    wide = rng.BLOCK * rng._COLUMN_BLOCKS
    n = draw(st.integers(1, 40) | st.integers(wide - 2 * rng.BLOCK, wide + 2 * rng.BLOCK))
    values = draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, 1.0, 3.0, 0.1, 2.0**-30, 2.0**30]),
                           min_size=n, max_size=n).filter(lambda v: any(v)))
    scale = draw(st.sampled_from([1.0, 2.0**-1074, 2.0**-1060, 2.0**-1000, 2.0**960]))
    rows = [np.array(values) * scale, np.array(values[::-1]) * scale]
    rows = [r for r in rows if r.sum() > 0.0] or [np.full(n, 2.0**-1074)]
    cut = draw(st.integers(0, n))
    total = ref.block_rule(rows[0], 0.0)[1]
    us = [0.0, draw(st.floats(0.0, 1.0, exclude_max=True)),
          min(float(rows[0][:cut].sum()) / total, 1.0 - 2**-53) if total else 0.0]
    return rows, us


@settings(max_examples=300, deadline=None)
@given(_rows_and_us())
def test_block_pick_is_the_literal_rule(case):
    rows, us = case
    _assert_the_literal_rule(rows, us)


def test_block_pick_edge_cases():
    # u = 0 skips leading zeros; equal neighbours and a target on a tree sum
    # take the lower index; one location; rows of 15, 16, 17 and 33
    _assert_the_literal_rule([[0.0, 2.0, 0.0, 3.0]], [0.0, 0.4, 0.41, 0.5, 1.0 - 2**-53])
    _assert_the_literal_rule([[1.0] * 4], [0.0, 0.25, 0.5, 0.5 + 2**-53, 0.75])
    _assert_the_literal_rule([[5.0]], [0.0, 0.5])
    for n in (15, 16, 17, 33):
        _assert_the_literal_rule([[1.0] * n, [0.0] * (n - 1) + [1.0]],
                                 [0.0, 1.0 / n, 0.5, 0.9375, 1.0 - 2**-53])
    # totals of 2**-1074: every target sits on the least pick target
    _assert_the_literal_rule([[0.0, 0.0, 2.0**-1074], [2.0**-1074, 0.0, 0.0]],
                             [0.0, 0.5, 1.0 - 2**-53])
    _assert_the_literal_rule([[0.0] * 20 + [2.0**-1074] * 2], [0.0, 0.25, 0.5, 0.75])
    # a target equal to u * total on a sum: [1, 1, 1, 1] at u = 0.25 is the
    # target 1, reached by location 0, so the descent stays left
    levels, prefix = rng.block_tree(np.array([[1.0, 1.0, 1.0, 1.0]]))
    assert rng.block_pick(levels, prefix, np.array([0.25, 0.25 + 2**-54])).tolist() == [0, 1]


def test_the_descent_never_goes_right_onto_a_zero():
    # block 0 holds 1; block 1 holds 2**-53 at locations 18 and 20; block 2
    # makes the total 2.  u = 0.5 + 2**-53 puts the target on 1 + 2**-52,
    # block 1's prefix, so the descent starts from 1.  1 + 2**-53 rounds to
    # 1, below the target, so it goes right to locations 20..23 with the
    # base still 1; there 1 + 2**-53 is again below the target, but the
    # right sum, location 21, is 0: the pick is 20, not 21
    w = np.zeros(48)
    w[0], w[18], w[20], w[32] = 1.0, 2.0**-53, 2.0**-53, 1.0 - 2.0**-52
    u = 0.5 + 2.0**-53
    assert ref.block_rule(w, u) == (20, 2.0)
    _assert_the_literal_rule([w], [u, 0.0, 0.5, 0.75])


def test_a_strided_lane_picks_as_its_contiguous_copy():
    # both lanes of a complex128 tree, the other lane holding other weights:
    # u = 0 skips leading zero weights; u * total landing on a sum takes the
    # lower index; a total of 2**-1074 puts every target on the least pick
    # target
    cases = [([0.0, 2.0, 0.0, 3.0], [0.0, 0.4, 0.41, 0.5, 1.0 - 2**-53]),
             ([1.0, 1.0, 1.0, 1.0], [0.0, 0.25, 0.5, 0.5 + 2**-53, 0.75]),
             ([0.0, 0.0, 2.0**-1074], [0.0, 0.5, 1.0 - 2**-53]),
             ([0.0, 2.0**-1074, 2.0**-1074], [0.0, 0.25, 0.5, 0.75]),
             ([0.0, 2.0**-1000, 3.0 * 2.0**-1000], [0.0, 2.0**-53, 0.25, 0.5]),
             ([0.5] * 17 + [0.0] * 14 + [0.25], [0.0, 0.5, 0.97, 1.0 - 2**-53])]
    for weights, u in cases:
        levels, prefix = rng.block_tree(np.array([weights]))
        want = rng.block_pick(levels, prefix, np.array(u)).tolist()
        assert want == [ref.block_rule(weights, x)[0] for x in u], weights
        other = np.full(len(weights), 7.0)
        for i, pair in enumerate(((weights, other), (other, weights))):
            lv, c = _lanes(*pair)[2 * i:2 * i + 2]
            assert all(v.strides == (16,) for v in (*lv, c))
            assert [rng.lane_pick(lv, c, x) for x in u] == want, (weights, i)


def test_block_sums_from_a_changed_range_equal_a_whole_pass():
    # lower a range of one lane of a one-row complex128 tree, or of a
    # one-row float64 tree, re-sum only its blocks and then the whole
    # prefix: the same bits as a fresh tree.  Rows of 300 and 4,000
    # locations have at least _COLUMN_BLOCKS blocks, shorter ones fewer
    gen = np.random.default_rng(3)
    assert 300 // rng.BLOCK >= rng._COLUMN_BLOCKS
    for dtype, L, lo, hi in ((complex, 100, 0, 5), (complex, 100, 17, 40), (complex, 100, 33, 100),
                             (complex, 37, 36, 37), (complex, 64, 16, 32), (complex, 300, 0, 7),
                             (complex, 300, 150, 213), (complex, 4000, 0, 40),
                             (complex, 4000, 1999, 2600), (complex, 4000, 3990, 4000),
                             (float, 300, 140, 170)):
        row = gen.random(L) if dtype is float else gen.random(L) + 1j * gen.random(L)
        row = row[None, :]
        levels, prefix = rng.block_tree(row)
        levels[0].real[lo:hi] *= 0.5
        row.real[0, lo:hi] *= 0.5
        rng.block_sums(levels, prefix, lo, hi)
        want_levels, want_prefix = rng.block_tree(row)
        label = (dtype, L, lo, hi)
        assert prefix.dtype == dtype and prefix.shape == (rng._padded(L) // rng.BLOCK, 1), label
        assert all(np.array_equal(a, b) for a, b in zip(levels, want_levels)), label
        assert np.array_equal(prefix, want_prefix), label
        # the block sums added in order, one Python add each
        sums = levels[-1].tolist()
        for j in range(1, len(sums)):
            sums[j] += sums[j - 1]
        assert prefix[:, 0].tolist() == sums, label


def _batch(gen, R, L):
    """(R, L) rows of zeros, equal neighbours and mixed magnitudes, each at
    its own scale down to 2**-1074, each with a positive total."""
    values = np.array([0.0, 0.0, 1.0, 1.0, 3.0, 0.1, 2.0**-30, 2.0**30])
    scales = np.array([1.0, 2.0**-1074, 2.0**-1060, 2.0**-1000, 2.0**960])
    rows = values[gen.integers(0, len(values), (R, L))] * scales[gen.integers(0, len(scales), R)][:, None]
    rows[np.arange(R), gen.integers(0, L, R)] += scales[gen.integers(0, len(scales), R)]
    return rows


@pytest.mark.parametrize("nb", [2, 8, rng._COLUMN_BLOCKS - 1, rng._COLUMN_BLOCKS,
                                rng._COLUMN_BLOCKS + 1, 25, 128])
def test_batch_trees_follow_the_literal_rule_on_both_sides_of_the_crossover(nb):
    # chunks of whole-chunk shape, (2048, 2) to (32, 128): rows of fewer
    # than _COLUMN_BLOCKS blocks add the block prefix column by column,
    # longer rows accumulate it.  Every pick and total is the literal
    # rule's, row by row, and re-summing lowered leaves gives a fresh tree's
    # bits
    R = rng.CHUNK_ELEMS // (rng.BLOCK * nb)
    gen = np.random.default_rng(nb)
    L = rng.BLOCK * nb - int(gen.integers(0, rng.BLOCK))
    rows = _batch(gen, R, L)
    for step in range(2):
        levels, prefix = rng.block_tree(rows)
        assert prefix.shape == (nb, R)
        totals = [ref.block_rule(row, 0.0)[1] for row in rows]
        # u = 0, 1 - 2**-53, uniforms, and targets on the sum of a leading run
        cut = gen.integers(0, L + 1, R)
        on_sum = [min(float(row[:c].sum()) / t, 1.0 - 2**-53) for row, c, t in zip(rows, cut, totals)]
        u = np.where(gen.random(R) < 0.5, gen.random(R), on_sum)
        u[:3] = 0.0, 1.0 - 2**-53, 0.5
        assert prefix[-1].tolist() == totals
        assert rng.block_pick(levels, prefix, u).tolist() == [
            ref.block_rule(row, x)[0] for row, x in zip(rows, u)]
        # one row with every uniform: its prefix is one accumulate
        one = rng.block_tree(rows[:1])
        assert one[1].shape == (nb, 1) and one[1].item(-1) == totals[0]
        assert rng.block_pick(*one, u).tolist() == [ref.block_rule(rows[0], x)[0] for x in u]
        # lower random leaves, some to zero; a whole pass re-sums them
        lower = gen.random((R, L)) < 0.3
        rows = np.where(lower, rows * gen.choice([0.0, 0.5, 2.0**-40], (R, L)), rows)
        rows[np.arange(R), gen.integers(0, L, R)] += 2.0**-1074
        levels[0].reshape(R, -1)[:, :L] = rows
        rng.block_sums(levels, prefix)
        want_levels, want_prefix = rng.block_tree(rows)
        assert all(np.array_equal(a, b) for a, b in zip(levels, want_levels))
        assert np.array_equal(prefix, want_prefix)

