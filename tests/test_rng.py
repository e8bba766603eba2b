import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _two_pass_pick(weights, prefix, u):
    # reference: count prefix values below the target, then skip leading
    # zero-weight buckets with a separate argmax pass
    raw = (prefix < (u * prefix[..., -1])[..., None]).sum(axis=-1)
    return np.maximum(raw, (weights > 0).argmax(axis=-1))


def test_weighted_pick_boundaries():
    w = np.array([[0.0, 2.0, 0.0, 3.0]])
    prefix = np.cumsum(w, axis=1)
    # u = 0 lands in the first positive-weight bucket
    assert rng.weighted_pick(prefix, np.array([0.0]))[0] == 1
    # exact boundary hit resolves to the lower bucket
    assert rng.weighted_pick(prefix, np.array([0.4]))[0] == 1  # target = 2.0
    assert rng.weighted_pick(prefix, np.array([0.41]))[0] == 3
    assert rng.weighted_pick(prefix, np.array([1.0 - 2**-53]))[0] == 3
    # a 1-D prefix picks the same by binary search, one u or a vector of them
    u = [0.0, 0.4, 0.41, 1.0 - 2**-53]
    assert [rng.weighted_pick(prefix[0], x) for x in u] == [1, 1, 3, 3]
    assert rng.weighted_pick(prefix[0], np.array(u)).tolist() == [1, 1, 3, 3]
    # equal neighbours: a target on a prefix value takes that bucket
    equal = np.cumsum([1.0, 1.0, 1.0, 1.0])
    u = np.array([0.0, 0.25, 0.5, 0.5 + 2**-53])
    assert rng.weighted_pick(equal, u).tolist() == [0, 0, 1, 2]

    # random rows with zero-weight runs, u = 0, and extreme scales
    gen = np.random.default_rng(5)
    w = gen.random((4000, 12)) * (gen.random((4000, 12)) < 0.6)
    w[:, -1] += 0.5  # every row has a positive total
    w[::7, :5] = 0.0
    u = gen.random(4000)
    u[::5] = 0.0
    for scale in (1.0, 2.0**-1000, 2.0**1000):
        ws = w * scale
        prefix = np.cumsum(ws, axis=1)
        assert np.array_equal(rng.weighted_pick(prefix, u), _two_pass_pick(ws, prefix, u))
        assert np.array_equal(rng.weighted_pick(prefix.T.copy(), u, axis=0),
                              _two_pass_pick(ws, prefix, u))


def _counting_pick(prefix, u):
    # the definition: how many prefix values lie below the target
    target = np.maximum(u * prefix[..., -1], np.nextafter(0.0, 1.0))
    return (prefix < target[..., None]).sum(axis=-1)


@st.composite
def _prefix_and_u(draw):
    # small integer weights with zero runs keep the prefix values exact, and
    # u = (a prefix value) / total lands u * total on one of them
    n = draw(st.integers(1, 10))
    weights = draw(st.lists(
        st.lists(st.sampled_from([0, 0, 0, 1, 2, 3]), min_size=n, max_size=n)
        .filter(any), min_size=1, max_size=5))
    prefix = np.cumsum(weights, axis=1, dtype=float)
    u = [draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True),
                        st.sampled_from(row[:-1].tolist() or [0.0]).map(
                            lambda p, total=row[-1]: p / total)))
         for row in prefix]
    scale = draw(st.sampled_from([1.0, 2.0**-1070, 2.0**-1000, 2.0**1000]))
    return prefix * scale, np.array(u)


@settings(max_examples=300, deadline=None)
@given(_prefix_and_u())
def test_weighted_pick_is_the_count_below_the_target(case):
    # a 2-D prefix with one u per row; each row as a 1-D prefix with every
    # row's u, as a vector and one scalar at a time (Python and numpy floats)
    prefix, u = case
    assert np.array_equal(rng.weighted_pick(prefix, u), _counting_pick(prefix, u))
    # the column form on the transposed copy: one u per column
    assert np.array_equal(rng.weighted_pick(prefix.T.copy(), u, axis=0),
                          _counting_pick(prefix, u))
    for row in prefix:
        want = _counting_pick(np.broadcast_to(row, (len(u), len(row))), u)
        assert np.array_equal(rng.weighted_pick(row, u), want)
        assert [rng.weighted_pick(row, x) for x in u.tolist()] == want.tolist()
        assert [rng.weighted_pick(row, x) for x in u] == want.tolist()
        lane = _lane(row, 1)
        assert [rng.weighted_pick(lane, x) for x in u.tolist()] == want.tolist()


def _lane(row, i):
    """``row`` as lane i of an interleaved (len(row), 2) buffer: a strided
    1-D view, the other lane filled with garbage it must not read."""
    pair = np.full((len(row), 2), np.nan)
    pair[:, i] = row
    return pair[:, i]


def test_a_strided_lane_picks_as_its_contiguous_copy():
    # u = 0 skips leading zero weights; u * total landing on a prefix value
    # takes the lower bucket; a total of 2**-1074 puts every target on the
    # least pick target, and u = 0 on a tiny prefix floors it there
    cases = [([0.0, 2.0, 0.0, 3.0], [0.0, 0.4, 0.41, 0.5, 1.0 - 2**-53]),
             ([1.0, 1.0, 1.0, 1.0], [0.0, 0.25, 0.5, 0.5 + 2**-53, 0.75]),
             ([0.0, 0.0, 2.0**-1074], [0.0, 0.5, 1.0 - 2**-53]),
             ([0.0, 2.0**-1074, 2.0**-1074], [0.0, 0.25, 0.5, 0.75]),
             ([0.0, 2.0**-1000, 3.0 * 2.0**-1000], [0.0, 2.0**-53, 0.25, 0.5])]
    for weights, u in cases:
        row = np.cumsum(weights)
        want = _counting_pick(np.broadcast_to(row, (len(u), len(row))), np.array(u)).tolist()
        assert [rng.weighted_pick(row, x) for x in u] == want, weights
        for i in (0, 1):
            lane = _lane(row, i)
            assert not lane.flags.c_contiguous and lane.strides == (16,)
            assert [rng.weighted_pick(lane, x) for x in u] == want, (weights, i)
            assert rng.weighted_pick(lane, np.array(u)).tolist() == want, (weights, i)


def test_the_column_pick_is_the_row_pick_of_the_transposed_copy():
    # one row (column) per u, every row the same prefix: u = 0 skips leading
    # zero weights, u * total on a prefix value takes the lower bucket, and
    # totals of 2**-1074 and 2**-1000 put targets on the least pick target
    cases = [([0.0, 2.0, 0.0, 3.0], [0.0, 0.4, 0.41, 0.5, 1.0 - 2**-53]),
             ([1.0, 1.0, 1.0, 1.0], [0.0, 0.25, 0.5, 0.5 + 2**-53, 0.75]),
             ([0.0, 0.0, 2.0**-1074], [0.0, 0.5, 1.0 - 2**-53]),
             ([0.0, 2.0**-1074, 2.0**-1074], [0.0, 0.25, 0.5, 0.75]),
             ([0.0, 2.0**-1000, 3.0 * 2.0**-1000], [0.0, 2.0**-53, 0.25, 0.5]),
             ([5.0], [0.0, 0.5])]
    for weights, u in cases:
        u = np.array(u)
        rows = np.tile(np.cumsum(weights), (len(u), 1))
        want = rng.weighted_pick(rows, u)
        assert want.tolist() == _counting_pick(rows, u).tolist(), weights
        cols = rows.T.copy()
        assert rng.weighted_pick(cols, u, axis=0).tolist() == want.tolist(), weights
        # with the caller's work arrays, left holding garbage
        target, hit = np.full(len(u), np.nan), np.ones(cols.shape, dtype=bool)
        assert rng.weighted_pick(cols, u, target, hit, axis=0).tolist() == want.tolist()
