import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest

import reference_oracles as ref
from seedbounds import core, seeding
from seedbounds.core import (BOTTOM, TOP, Instance, WeightedLocation, _scaled_exp, cost,
                             dist_pow)
from seedbounds.errors import CapacityError, ConfigError, DegenerateInstanceError
from seedbounds.extfloat import ExtScalar
from seedbounds.instances import (brute_force_opt, gen_kmeans_bad, gen_kmedian_bad,
                                  reference_costs)
from seedbounds.seeding import (SeedingTrace, early_miss_event,
                                exact_distribution, run_trials, seed)

from conftest import assert_rel_close, ext_to_fraction

# Hand-derived exact outcomes for the k=2, m=4, r=1 squared-cost instance.
# Conditional on the first pick, the second-pick potentials are
#   first in bar 1: [0 or 4, 4 or 0, 4.25, 6.25]  -> P(cover bar 2) = 10.5/14.5
#   first in bar 2: [17, 25, 0 or 4, 4 or 0]      -> P(cover bar 1) = 42/46
# so with first-pick split 8/10 vs 2/10:
P2_K2 = Fraction(4, 5) * Fraction(21, 29) + Fraction(1, 5) * Fraction(21, 23)
# cost outcomes: mixed -> 8 (ratio 1), both-bar-1 -> 8.5 (17/16),
# both-bar-2 -> 34 (17/4); P(both bar 1) = 32/145, P(both bar 2) = 2/115
RATIO_K2 = P2_K2 + Fraction(17, 16) * Fraction(32, 145) + Fraction(17, 4) * Fraction(2, 115)


@pytest.fixture(scope="module")
def inst2():
    return gen_kmeans_bad(2, 4.0, 1.0)


# ---------------------------------------------------------------------------
# seed(): determinism, structure, invariants
# ---------------------------------------------------------------------------

def test_seed_is_deterministic(inst2):
    a = seed(inst2, rng_seed=42, trial_index=3)
    b = seed(inst2, rng_seed=42, trial_index=3)
    assert a == b
    c = seed(inst2, rng_seed=42, trial_index=4)
    d = seed(inst2, rng_seed=43, trial_index=3)
    assert a.centers != c.centers or a.centers != d.centers


def test_instance_and_trace_pickle():
    for gen in (gen_kmeans_bad, gen_kmedian_bad):
        inst = gen(5, 4.0, 1.0)
        tr = seed(inst, rng_seed=42, trial_index=3)
        copy = pickle.loads(pickle.dumps(inst))
        assert seed(copy, rng_seed=42, trial_index=3) == tr
        assert copy.locations == inst.locations
        assert pickle.loads(pickle.dumps(tr)) == tr


def test_built_instance_pickles_with_its_caches():
    # above the matrix cap seed() builds the bar-gap kernel with its near block
    inst = gen_kmeans_bad(1100, 4.0, 1.0)
    fresh = len(pickle.dumps(inst))
    tr = seed(inst, rng_seed=42, trial_index=3)
    assert isinstance(inst._rows, core._BarGapKernel)
    built = pickle.dumps(inst)
    # the cache adds its own arrays and little else
    cache = sum(a.nbytes for a in inst._rows if isinstance(a, np.ndarray))
    assert len(built) - fresh <= cache + 4096
    assert seed(pickle.loads(built), rng_seed=42, trial_index=3) == tr


def test_plain_rows_beyond_the_double_range_warn_nothing():
    # k=600 spans 1200 binary orders, so its plain rows reach 2**231; at
    # k=1100 the kernel's rows reach past the double range and become +inf
    for k in (600, 1100):
        inst = gen_kmeans_bad(k, 4.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seed(inst, rng_seed=1, trial_index=0)
    assert np.isinf(inst._rows.tail_plain).any()


def test_seed_trace_structure(inst2, debug_checks):
    tr = seed(inst2, rng_seed=7, trial_index=0)
    assert len(tr.centers) == 2 and len(set(tr.centers)) == 2
    assert tr.coverage_counts[0] == 1
    assert all(b >= a for a, b in zip(tr.coverage_counts, tr.coverage_counts[1:]))
    assert all(not p.is_zero for p in tr.potentials)
    assert tr.potentials[0].to_float() == 10.0  # total weight before pick 1


def test_seed_exhaustion_covers_everything(inst2):
    tr = seed(inst2, n_centers=4, rng_seed=1, trial_index=0)
    assert tr.coverage_counts[-1] == 2
    assert tr.final_cost.is_zero
    assert sorted(tr.centers) == [0, 1, 2, 3]


def test_potential_matches_cost_recomputation():
    # seeding and cost sum by the one pick rule: the same bits; rows of 12
    # and 88 locations end in a partial block
    for gen in (gen_kmeans_bad, gen_kmedian_bad):
        for k in (6, 44):
            inst = gen(k, 4.0, 1.0)
            tr = seed(inst, rng_seed=5, trial_index=9)
            for j in range(1, tr.n_centers):
                assert tr.potentials[j] == cost(inst, tr.centers[:j]), (inst.variant, k, j)
            assert tr.final_cost == cost(inst, tr.centers)


def test_first_pick_proportional_to_weight(inst2):
    hits = sum(seed(inst2, n_centers=1, rng_seed=3, trial_index=t).cluster_ids[0] == 1
               for t in range(3000))
    se = (0.8 * 0.2 / 3000) ** 0.5
    assert abs(hits / 3000 - 0.8) <= 4 * se


def test_seed_parameter_validation(inst2):
    with pytest.raises(ConfigError):
        seed(inst2, n_centers=5)
    with pytest.raises(ConfigError):
        seed(inst2, ell=3)
    # ell may only repeat the variant's power: kmeans samples and scores by D**2
    assert seed(inst2, ell=2) == seed(inst2)
    with pytest.raises(ConfigError, match="samples by ell=2"):
        seed(inst2, ell=1)
    with pytest.raises(ConfigError, match="samples by ell=1"):
        seed(gen_kmedian_bad(2, 4.0, 1.0), ell=2)
    with pytest.raises(ConfigError):
        run_trials(inst2, 0, 1)
    for kw in (dict(alpha=0.0, beta=0.0), dict(alpha=0.0), dict(beta=1.5)):
        with pytest.raises(ConfigError, match="alpha and beta"):
            run_trials(inst2, 5, 1, **kw)
    # trial indices are int64: every one must lie in 0 .. 2**63 - 1
    for t in (-1, 2**63):
        with pytest.raises(ConfigError, match="indices in 0..2"):
            seed(inst2, trial_index=t)
    for trials, first in ((5, -2), (3, 2**63 - 2)):
        with pytest.raises(ConfigError, match="indices in 0..2"):
            run_trials(inst2, trials, 1, first_trial=first)
    last = run_trials(inst2, 2, 1, first_trial=2**63 - 2)
    assert last.trial_indices.tolist() == [2**63 - 2, 2**63 - 1]
    tr = seed(inst2, rng_seed=1, trial_index=2**63 - 1)
    assert last.coverage[-1] == tr.coverage_counts[-1]


def test_degenerate_instance_raises(debug_checks):
    w = ExtScalar(1.0)
    zero = ExtScalar(0.0)
    locs = [WeightedLocation(1, TOP, zero, zero, w),
            WeightedLocation(1, BOTTOM, zero, zero, w)]
    inst = Instance(locs, 1, 1.0, 1.0, "kmeans")
    # the zero-height bottom end keeps its end through the sign of -0.0
    assert inst.locations == tuple(locs)
    seed(inst, n_centers=1, rng_seed=0, trial_index=0)  # fine
    # no nonzero weighted distance: the spread is 0, so the potentials pass
    # the check after pick 0 and the zero total is what raises
    with pytest.raises(DegenerateInstanceError):
        seed(inst, n_centers=2, rng_seed=0, trial_index=0)
    with pytest.raises(DegenerateInstanceError):
        ref.run_chunk_packed(inst, 2, 0, 0, 1)


# ---------------------------------------------------------------------------
# batched trials vs single-trial runs
# ---------------------------------------------------------------------------

def test_batch_equals_single_trials(debug_checks):
    for gen in (gen_kmeans_bad, gen_kmedian_bad):
        inst = gen(5, 4.0, 1.0)
        arr = run_trials(inst, 40, rng_seed=17, alpha=0.5, beta=0.5)
        for t in range(40):
            tr = seed(inst, rng_seed=17, trial_index=t)
            assert arr.coverage[t] == tr.coverage_counts[-1]
            assert arr.final_m[t] == tr.final_cost.m or (
                tr.final_cost.is_zero and arr.final_m[t] == 0.0)
            if not tr.final_cost.is_zero:
                assert arr.final_e[t] == tr.final_cost.e
            assert arr.early_miss[t] == early_miss_event(tr, 0.5, 0.5)


def test_batch_equals_single_trials_on_the_kernel_path():
    # above the matrix cap every row comes from the bar-gap kernel; a k=1025
    # row of 2050 locations ends in a partial block of the pick rule
    for gen, k in ((g, k) for k in (1025, 2000) for g in (gen_kmeans_bad, gen_kmedian_bad)):
        inst = gen(k, 4.0, 1.0)
        arr = run_trials(inst, 3, rng_seed=17, alpha=0.5, beta=0.5)
        assert isinstance(inst._rows, core._BarGapKernel)
        for t in range(3):
            tr = seed(inst, rng_seed=17, trial_index=t)
            assert arr.coverage[t] == tr.coverage_counts[-1]
            assert (arr.final_m[t], arr.final_e[t]) == (tr.final_cost.m, tr.final_cost.e)
            assert arr.early_miss[t] == early_miss_event(tr, 0.5, 0.5)
            # a batch records the normalizers of its first trial
            picks, _, (totals, exps) = seeding._run_chunk(inst, inst.k, 17, t, t + 3)
            assert tuple(picks[:, 0].tolist()) == tr.centers
            assert tuple(map(ExtScalar, totals.tolist(), exps.tolist())) == tr.potentials
        # the normalizer before pick j is the cost of the first j centers
        for j in (1, 2, 1000, k - 1):
            assert tr.potentials[j] == cost(inst, tr.centers[:j]), j


def test_per_pick_rows_match_matrix_rows(monkeypatch):
    # above a zero cap k=6, without a bar-gap tail, still caches the full
    # matrix; k=300 reads the bar-gap kernel's tail rows and near block
    for gen, k, trials, n_traces in ((gen_kmeans_bad, 6, 50, 4), (gen_kmedian_bad, 6, 50, 4),
                                     (gen_kmeans_bad, 300, 12, 2),
                                     (gen_kmedian_bad, 300, 12, 2)):
        inst = gen(k, 4.0, 1.0)
        want = run_trials(inst, trials, rng_seed=3, alpha=0.5, beta=0.5)
        ref_traces = [seed(inst, rng_seed=3, trial_index=t) for t in range(n_traces)]
        ref_costs = [cost(inst, tr.centers) for tr in ref_traces]
        with monkeypatch.context() as mp:
            mp.setattr(core, "_MATRIX_MAX_ENTRIES", 0)
            inst = gen(k, 4.0, 1.0)
            got = run_trials(inst, trials, rng_seed=3, alpha=0.5, beta=0.5)
            traces = [seed(inst, rng_seed=3, trial_index=t) for t in range(n_traces)]
            costs = [cost(inst, tr.centers) for tr in traces]
            assert isinstance(inst._rows, core._Matrix) == (k == 6)
        _assert_same_arrays(want, got)
        assert traces == ref_traces
        assert costs == ref_costs == [tr.final_cost for tr in traces]


def _assert_same_arrays(a, b):
    for field in ("trial_indices", "coverage", "final_m", "final_e", "early_miss"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_batch_chunking_is_invisible(monkeypatch):
    from seedbounds import rng
    # a k=200 row holds 400 locations: 163 trials per default chunk, and 400
    # trials end in a partial chunk of 74; above the cap k=1100 runs 29 per
    # chunk, and 5 trials split 2 + 2 + 1 at the small size
    assert rng.CHUNK_ELEMS // 400 == 163
    cases = [(gen_kmeans_bad(4, 4.0, 1.0), 64, 64), (gen_kmeans_bad(200, 4.0, 1.0), 400, 7 * 400),
             (gen_kmedian_bad(1100, 4.0, 1.0), 5, 2 * 2200)]
    for inst, trials, tiny in cases:
        want = run_trials(inst, trials, rng_seed=2)
        with monkeypatch.context() as mp:
            for chunk_elems in (tiny, 1 << 30):  # many small chunks, one chunk
                mp.setattr(rng, "CHUNK_ELEMS", chunk_elems)
                _assert_same_arrays(want, run_trials(inst, trials, rng_seed=2))


def _two_bar_instance(x):
    """k=2 bars at x-distance x, ends 1/2 above and below the axis, unit weights.

    Weighted squared distances are 1 within a bar and about x**2 across, so
    the nonzero matrix entries span the binary orders of x**2.
    """
    w, h, zero = ExtScalar(1.0), ExtScalar(0.5), ExtScalar(0.0)
    locs = [WeightedLocation(1, TOP, zero, h, w), WeightedLocation(1, BOTTOM, zero, h, w),
            WeightedLocation(2, TOP, x, h, w), WeightedLocation(2, BOTTOM, x, h, w)]
    return Instance(locs, 2, 1.0, 1.0, "kmeans")


def _spread(inst):
    m, e = inst._weighted_rows(np.arange(inst.n_locations))
    nz = e[m != 0.0]
    return int(nz.max() - nz.min())


def _bar_one_below_the_floor(monkeypatch):
    """Six bars, above a zero matrix cap, whose first bar is 2**-599 tall: the
    near rows of its centers hold 2**-6 * 2**-1198, 1213 binary orders below
    the kernel's largest value."""
    monkeypatch.setattr(core, "_MATRIX_MAX_ENTRIES", 0)
    locs = []
    for i in range(1, 7):
        x, h, w = ExtScalar(1.5, i), ExtScalar(1.25, i - 2), ExtScalar(1.0, -2 * i)
        if i == 1:  # off the doubling pattern: the kernel's tail starts at bar 2
            x, h, w = ExtScalar(0.0), ExtScalar(1.0, -600), ExtScalar(1.0, -6)
        locs += [WeightedLocation(i, TOP, x, h, w), WeightedLocation(i, BOTTOM, x, h, w)]
    inst = Instance(locs, 6, 1.0, 1.0, "kmeans")
    inst.plain_row_source()
    assert len(inst._rows.near) == 2  # the kernel's tail starts at bar 2
    return inst


def _assert_matches_packed(inst, n_centers, trials, label):
    """The engine's picks, final costs and normalizers are the packed
    reference's, the normalizers compared as ExtScalars: the packed
    exponents are per-row maxima, the engine's one F."""
    got, want = (run(inst, n_centers, 11, 0, trials)
                 for run in (seeding._run_chunk, ref.run_chunk_packed))
    assert np.array_equal(got[0], want[0]), label
    assert all(map(np.array_equal, got[1], want[1])), label
    assert ([*map(ExtScalar, *(a.tolist() for a in got[2]))]
            == [*map(ExtScalar, *(a.tolist() for a in want[2]))]), label


def test_plain_path_matches_packed_engine(debug_checks):
    from seedbounds.core import PLAIN_SEEDING_SPREAD
    assert PLAIN_SEEDING_SPREAD == 1022 - 53
    # the old whole-matrix guard sent kmeans k > 484 and kmedian k > 969 to the
    # packed engine; now every generated chunk passes the per-chunk check
    cases = [gen_kmeans_bad(k, 4.0, 1.0) for k in (16, 200, 484, 485, 1024, 1100, 2000)]
    cases += [gen_kmedian_bad(k, 4.0, 1.0) for k in (16, 300, 970, 1100)]
    # x**2 = 2.25 * 2**968 and 2**970: spreads of exactly 969 and 970 orders;
    # at 970 the potentials after pick 0 reach 2, at x = 2**1000 they are +inf
    edge = [_two_bar_instance(ExtScalar(1.5, 484)), _two_bar_instance(ExtScalar(1.0, 485)),
            _two_bar_instance(ExtScalar(1.0, 1000))]
    assert [_spread(inst) for inst in edge[:2]] == [PLAIN_SEEDING_SPREAD, PLAIN_SEEDING_SPREAD + 1]
    for inst in cases + edge[:1]:
        label = f"{inst.variant} k={inst.k}"
        trials = 40 if inst.k <= 16 else 4 if inst.k <= 1100 else 2
        # the k=2 instance also runs all four picks
        for n in (inst.k, inst.n_locations) if inst.k == 2 else (inst.k,):
            _assert_matches_packed(inst, n, trials, label)
    # beyond the check the engine refuses; the packed reference still samples
    for inst in edge[1:]:
        with pytest.raises(CapacityError, match="binary orders"):
            run_trials(inst, 40, rng_seed=11)
        with pytest.raises(CapacityError, match="binary orders"):
            seed(inst, rng_seed=11, trial_index=0)
        ref.run_chunk_packed(inst, inst.n_locations, 11, 0, 40)


def test_rows_spanning_past_the_plain_spread_raise_capacity_error(monkeypatch):
    inst = _bar_one_below_the_floor(monkeypatch)
    idxs = np.arange(inst.n_locations)
    (m, e), (plain, F) = inst._weighted_rows(idxs), inst.plain_row_source()
    values = plain(idxs)
    assert m.shape == values.shape == (12, 12)
    # F spans the near rows too: nothing the cache serves is below 2**-969
    nz = values[(values != 0.0) & np.isfinite(values)]
    assert nz.size and nz.min() >= 2.0 ** -969
    assert F == int(e[m != 0.0].min()) + core.PLAIN_SEEDING_SPREAD
    # the far rows reach 2**244 at that scale: every chunk fails the check
    # after pick 0, where the packed reference samples on and covers bar 1
    with pytest.raises(CapacityError, match="binary orders"):
        run_trials(inst, 200, rng_seed=11, alpha=0.5, beta=0.5)
    for t in range(20):
        with pytest.raises(CapacityError, match="binary orders"):
            seed(inst, rng_seed=11, trial_index=t)
    picks, _, _ = ref.run_chunk_packed(inst, inst.k, 11, 0, 20)
    assert (inst._cluster[picks[1:]] == 1).any()


def test_generated_configs_pass_the_plain_check():
    # the narrowing to potentials within PLAIN_SEEDING_SPREAD binary orders
    # refuses no generated instance on this grid
    for gen in (gen_kmeans_bad, gen_kmedian_bad):
        for k in (1, 2, 3, 55, 56, 485, 970, 1025):
            for r in (2.0 ** -60, 0.7, 2.0 ** 40):
                for m in (1.0, 1e6):
                    arr = run_trials(gen(k, m, r), 3, rng_seed=k)
                    assert np.all((arr.coverage >= 1) & (arr.coverage <= k))


@pytest.mark.parametrize("gen", [gen_kmeans_bad, gen_kmedian_bad])
@pytest.mark.parametrize("k, trials", [(16, 200), (300, 20), (1100, 3)])
def test_power_of_two_scaling_changes_only_the_cost_exponent(gen, k, trials):
    # times 2**a on m and 2**b on r every packed value keeps its mantissa and
    # every weighted row gains a + ell*b in its exponent: the same picks and
    # coverage, and costs exactly 2**(a + ell*b) times the originals
    m, r = 3.0, 0.7
    base = gen(k, m, r)
    want = run_trials(base, trials, rng_seed=4, alpha=0.5, beta=0.5)
    want_trace = seed(base, rng_seed=4, trial_index=1)
    for a, b in ((10, -20), (-1, 33)):
        inst = gen(k, m * 2.0 ** a, r * 2.0 ** b)
        shift = a + inst.ell * b
        got = run_trials(inst, trials, rng_seed=4, alpha=0.5, beta=0.5)
        for field in ("trial_indices", "coverage", "final_m", "early_miss"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert np.array_equal(got.final_e, _scaled_exp(want.final_m, want.final_e, shift))
        trace = seed(inst, rng_seed=4, trial_index=1)
        assert (trace.centers, trace.coverage_counts) == (want_trace.centers,
                                                          want_trace.coverage_counts)
        assert trace.final_cost == want_trace.final_cost.shifted(shift)
        # the first normalizer is the total weight, times 2**a only
        assert trace.potentials == (want_trace.potentials[0].shifted(a), *(
            p.shifted(shift) for p in want_trace.potentials[1:]))


def test_seeding_computes_no_row_once_the_cache_is_built(monkeypatch):
    # picks in bars 1..54 above the cap come from the near block
    distpow_rows, calls = Instance.distpow_rows, []

    def spy(self, *args):
        calls.append(args)
        return distpow_rows(self, *args)

    for inst in (gen_kmeans_bad(1100, 4.0, 1.0), gen_kmedian_bad(2000, 4.0, 1.0)):
        inst.plain_row_source()
        with monkeypatch.context() as mp:
            mp.setattr(Instance, "distpow_rows", spy)
            run_trials(inst, 2, rng_seed=5)
        assert len(calls) == 0, inst.variant


# (m, r): the unit scale, mantissas off a power of two, and scales far from 1
_M_R = ((4.0, 1.0), (3.0, 0.7), (1e6, 2.0 ** -60), (1.0, 2.0 ** 40))


def _interval_and_batch(inst, lo, hi):
    """``_run_chunk`` on the interval loop, and on the batch loop forced by
    the same kernel with its dominance flag cleared."""
    kern = inst._row_cache()
    assert isinstance(kern, core._BarGapKernel) and kern.dominant
    got = seeding._run_chunk(inst, inst.k, 11, lo, hi)
    inst._rows = kern._replace(dominant=False)
    try:
        assert inst.interval_lowering() is None
        want = seeding._run_chunk(inst, inst.k, 11, lo, hi)
    finally:
        inst._rows = kern
    return got, want


def _assert_same_chunk(got, want, label):
    """Picks, packed final costs and trial lo's normalizers, bit for bit."""
    (gp, gf, gn), (wp, wf, wn) = got, want
    assert np.array_equal(gp, wp), label
    for a, b in zip(gf + gn, wf + wn):
        assert a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64)), label


def _assert_packed_trial(inst, got, lo, label):
    """Trial lo of an engine chunk from lo against the packed reference; the
    normalizers compare as ExtScalars, the packed exponents being per-row
    maxima."""
    want = ref.run_chunk_packed(inst, inst.k, 11, lo, lo + 1)
    assert np.array_equal(got[0][:, :1], want[0]), label
    assert all(np.array_equal(a[:1], b) for a, b in zip(got[1], want[1])), label
    assert ([*map(ExtScalar, *(a.tolist() for a in got[2]))]
            == [*map(ExtScalar, *(a.tolist() for a in want[2]))]), label


@pytest.mark.parametrize("gen", [gen_kmeans_bad, gen_kmedian_bad])
@pytest.mark.parametrize("k", [1025, 2000, 3000])
def test_interval_loop_matches_the_batch_loop_and_packed_engine(gen, k):
    # chunks of 1, 2, 16 and 17 trials from trials 0 and 5, spread over the
    # (m, r) grid, fewer of them at k=2000 and k=3000; the chunks from trial
    # 5 also meet the packed reference on their first trial
    sizes = {1025: ((1, 17), (2, 16), (16, 2), (17, 1)),
             2000: ((1, 17), (2, 16), (1, 2), (2, 1)),
             3000: ((1, 2), (2, 1), (1, 2), (2, 1))}[k]
    for (m, r), trials in zip(_M_R, sizes):
        inst = gen(k, m, r)
        for lo, T in zip((0, 5), trials):
            label = f"{inst.variant} k={k} m={m} r={r} trials {lo}..{lo + T - 1}"
            got, want = _interval_and_batch(inst, lo, lo + T)
            _assert_same_chunk(got, want, label)
        _assert_packed_trial(inst, got, 5, label)


def test_interval_loop_under_a_zero_cap(monkeypatch):
    # below the matrix cap a zero cap caches the kernel: k=56 and 60 have no
    # center whose head columns repeat by scale, k=300 does
    monkeypatch.setattr(core, "_MATRIX_MAX_ENTRIES", 0)
    for gen in (gen_kmeans_bad, gen_kmedian_bad):
        for k in (56, 60, 300):
            for m, r in _M_R:
                inst = gen(k, m, r)
                for lo in (0, 5):
                    for T in (1, 2, 16, 17):
                        label = f"{inst.variant} k={k} m={m} r={r} trials {lo}..{lo + T - 1}"
                        got, want = _interval_and_batch(inst, lo, lo + T)
                        _assert_same_chunk(got, want, label)
                _assert_packed_trial(inst, got, 5, label)


@pytest.mark.parametrize("gen", [gen_kmeans_bad, gen_kmedian_bad])
@pytest.mark.parametrize("k", [56, 300, 1025, 2000])
def test_pairing_trials_in_the_interval_loop_is_invisible(gen, k, monkeypatch, debug_checks):
    # the interval loop runs a chunk's trials two at a time: trial 6 alone
    # (beside an idle lane), paired with its left neighbour (lane 1), with
    # its right one (lane 0) and as the lone last trial of the odd chunk
    # 4..6; below the matrix cap a zero cap caches the kernel
    if k < 1025:
        monkeypatch.setattr(core, "_MATRIX_MAX_ENTRIES", 0)
    inst = gen(k, 4.0, 1.0)
    assert inst.interval_lowering() is not None
    tr = seed(inst, rng_seed=11, trial_index=6)
    for lo, hi in ((5, 7), (6, 8), (4, 7)):
        picks, (final_m, final_e), (totals, exps) = seeding._run_chunk(inst, k, 11, lo, hi)
        assert tuple(picks[:, 6 - lo].tolist()) == tr.centers, (lo, hi)
        assert (final_m[6 - lo], final_e[6 - lo]) == (tr.final_cost.m, tr.final_cost.e), (lo, hi)
        if lo == 6:
            assert tuple(map(ExtScalar, totals.tolist(), exps.tolist())) == tr.potentials
    for first in (5, 6):
        arr = run_trials(inst, 2, 11, first_trial=first)
        assert arr.coverage[6 - first] == tr.coverage_counts[-1]
        assert (arr.final_m[6 - first], arr.final_e[6 - first]) == (tr.final_cost.m,
                                                                     tr.final_cost.e)


def _tall_head_bar(k, variant):
    """The generated instance with bar 10's half-height times 8: bar 11's
    ends then sit closer to bar 9's than bar 10's do, so bars 10 and 11 are
    not dominant."""
    gen = gen_kmeans_bad if variant == "kmeans" else gen_kmedian_bad
    locs = list(gen(k, 4.0, 1.0).locations)
    locs[18:20] = [WeightedLocation(loc.cluster_id, loc.end_id, loc.x, loc.y_mag.shifted(3),
                                    loc.weight) for loc in locs[18:20]]
    return Instance(locs, k, 4.0, 1.0, variant)


def test_a_kernel_that_fails_the_dominance_check_runs_the_batch_loop(monkeypatch):
    for variant, k in (("kmeans", 80), ("kmedian", 120)):
        want_inst = _tall_head_bar(k, variant)   # under the cap: the full matrix
        want = run_trials(want_inst, 20, rng_seed=6, alpha=0.5, beta=0.5)
        traces = [seed(want_inst, rng_seed=6, trial_index=t) for t in (0, 19)]
        assert isinstance(want_inst._rows, core._Matrix)
        with monkeypatch.context() as mp:
            mp.setattr(core, "_MATRIX_MAX_ENTRIES", 0)
            inst = _tall_head_bar(k, variant)
            got = run_trials(inst, 20, rng_seed=6, alpha=0.5, beta=0.5)
            assert isinstance(inst._rows, core._BarGapKernel)
            assert not inst._rows.dominant and not ref.bars_dominant(inst)
            assert inst.interval_lowering() is None
            assert [seed(inst, rng_seed=6, trial_index=t) for t in (0, 19)] == traces
        _assert_same_arrays(want, got)


def test_first_trial_offset_selects_same_streams():
    inst = gen_kmeans_bad(3, 4.0, 1.0)
    whole = run_trials(inst, 30, rng_seed=9)
    part = run_trials(inst, 10, rng_seed=9, first_trial=20)
    assert np.array_equal(whole.coverage[20:], part.coverage)
    assert np.array_equal(whole.final_m[20:], part.final_m)


# ---------------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------------

def test_exact_distribution_trivial_k1():
    dist, ratio = exact_distribution(gen_kmeans_bad(1, 4.0, 1.0))
    assert dist.probs[1] == 1.0 and dist.probs[0] == 0.0
    assert_rel_close(ratio, 1.0, 1e-12)


def test_exact_distribution_hand_values(inst2):
    dist, ratio = exact_distribution(inst2)
    assert dist.probs[0] == 0.0
    assert_rel_close(dist.probs.sum(), 1.0, 1e-12)
    assert_rel_close(dist.probs[2], float(P2_K2), 1e-12)
    assert_rel_close(ratio, float(RATIO_K2), 1e-12)


def test_exact_distribution_probability_sums():
    for gen in (gen_kmeans_bad, gen_kmedian_bad):
        for k in (2, 3, 4, 8):
            dist, ratio = exact_distribution(gen(k, 4.0, 1.0))
            assert dist.probs[0] == 0.0
            assert_rel_close(dist.probs.sum(), 1.0, 1e-12)
            assert ratio >= 1.0 - 1e-9


def test_exact_distribution_capacity_error():
    # the reachable sets: 616,666 at k = 10, 2,449,868 at k = 11
    with pytest.raises(CapacityError):
        exact_distribution(gen_kmeans_bad(11, 1.0, 1.0))
    dist, _ = exact_distribution(gen_kmeans_bad(7, 1.0, 1.0))
    assert_rel_close(dist.probs.sum(), 1.0, 1e-12)


def _fraction_distribution(inst):
    """The exact coverage distribution and expected ratio in ``Fraction``
    arithmetic, one chosen set at a time, from the locations' weights and
    ``dist_pow`` values."""
    locs, L = inst.locations, inst.n_locations
    w = [ext_to_fraction(loc.weight) for loc in locs]
    W = [[w[i] * ext_to_fraction(dist_pow(locs[j], locs[i], inst.ell)) for i in range(L)]
         for j in range(L)]
    level = {frozenset(): Fraction(1)}
    for _ in range(inst.k):
        nxt = {}
        for chosen, P in level.items():
            pot = [min(W[j][i] for j in chosen) if chosen else w[i] for i in range(L)]
            tot = sum(pot)
            for i in range(L):
                if pot[i]:
                    key = chosen | {i}
                    nxt[key] = nxt.get(key, 0) + P * pot[i] / tot
        level = nxt
    opt = ext_to_fraction(reference_costs(inst).discrete)
    probs = [Fraction(0)] * (inst.k + 1)
    ratio = Fraction(0)
    for chosen, P in level.items():
        probs[len({locs[j].cluster_id for j in chosen})] += P
        ratio += P * sum(min(W[j][i] for j in chosen) for i in range(L)) / opt
    return probs, ratio


def test_exact_distribution_matches_fractions():
    for gen in (gen_kmeans_bad, gen_kmedian_bad):
        for k in (1, 2, 3):
            for m, r in ((4.0, 1.0), (1.0, 3.0)):
                inst = gen(k, m, r)
                dist, ratio = exact_distribution(inst)
                probs, want_ratio = _fraction_distribution(inst)
                for got, want in zip(dist.probs, probs):
                    assert_rel_close(got, float(want), 1e-12, f"{inst.variant} k={k}")
                assert_rel_close(ratio, float(want_ratio), 1e-12, f"{inst.variant} k={k}")


def test_oracles_reject_an_exponent_spread_beyond_a_double():
    # a weight 2**-1100 below the other cannot be scaled into one double range
    zero, h = ExtScalar(0.0), ExtScalar(1.0)
    locs = [WeightedLocation(1, TOP, zero, h, ExtScalar(1.0)),
            WeightedLocation(1, BOTTOM, zero, h, ExtScalar(1.0, -1100))]
    inst = Instance(locs, 1, 1.0, 1.0, "kmeans")
    with pytest.raises(CapacityError):
        exact_distribution(inst)
    with pytest.raises(CapacityError):
        brute_force_opt(inst)


def test_oracles_take_the_seeding_spread_guard():
    # the oracles enumerate on seeding's plain view: spread 969 fits, 970 does not
    fits = _two_bar_instance(ExtScalar(1.5, 484))
    wide = _two_bar_instance(ExtScalar(1.0, 485))
    dist, _ = exact_distribution(fits)
    assert_rel_close(dist.probs.sum(), 1.0, 1e-12)
    assert brute_force_opt(fits)[1] == (0, 2)
    with pytest.raises(CapacityError):
        exact_distribution(wide)
    with pytest.raises(CapacityError):
        brute_force_opt(wide)
    # coincident ends: an all-zero matrix, but weights 1000 binary orders apart
    zero = ExtScalar(0.0)
    locs = [WeightedLocation(1, TOP, zero, zero, ExtScalar(1.0)),
            WeightedLocation(1, BOTTOM, zero, zero, ExtScalar(1.0, -1000))]
    with pytest.raises(CapacityError):
        exact_distribution(Instance(locs, 1, 1.0, 1.0, "kmeans"))


def test_exact_matches_monte_carlo_small():
    for gen in (gen_kmeans_bad, gen_kmedian_bad):
        inst = gen(3, 4.0, 1.0)
        dist, _ = exact_distribution(inst)
        trials = 10**5
        arr = run_trials(inst, trials, rng_seed=123)
        freq = np.bincount(arr.coverage, minlength=4) / trials
        for i in range(4):
            se = (dist.probs[i] * (1 - dist.probs[i]) / trials) ** 0.5
            assert abs(freq[i] - dist.probs[i]) <= max(5 * se, 1e-12)


def test_exact_matches_monte_carlo_k7():
    for gen in (gen_kmeans_bad, gen_kmedian_bad):
        inst = gen(7, 4.0, 1.0)
        dist, _ = exact_distribution(inst)
        trials = 10**5
        arr = run_trials(inst, trials, rng_seed=321)
        freq = np.bincount(arr.coverage, minlength=8) / trials
        for i in range(8):
            se = (dist.probs[i] * (1 - dist.probs[i]) / trials) ** 0.5
            assert abs(freq[i] - dist.probs[i]) <= max(5 * se, 1e-12)


def test_symmetric_instance_conditional_coverage():
    # equal weights and mirrored bars: covering the other bar on pick 2 is
    # equally likely whichever bar the first center hit
    w, h = ExtScalar(1.0), ExtScalar(0.5)
    locs = [WeightedLocation(1, TOP, ExtScalar(0.0), h, w),
            WeightedLocation(1, BOTTOM, ExtScalar(0.0), h, w),
            WeightedLocation(2, TOP, ExtScalar(2.0), h, w),
            WeightedLocation(2, BOTTOM, ExtScalar(2.0), h, w)]
    inst = Instance(locs, 2, 1.0, 1.0, "kmeans")

    def cross_prob(first):
        pots = [(locs[i].weight * dist_pow(locs[i], locs[first], 2)).to_float()
                for i in range(4)]
        other = [i for i in range(4)
                 if locs[i].cluster_id != locs[first].cluster_id]
        return sum(pots[i] for i in other) / sum(pots)

    assert cross_prob(0) == cross_prob(2)
    dist, _ = exact_distribution(inst)
    assert_rel_close(dist.probs[2], cross_prob(0), 1e-12)


# ---------------------------------------------------------------------------
# early-miss event
# ---------------------------------------------------------------------------

def _trace_with_clusters(k, cluster_ids):
    n = len(cluster_ids)
    one = ExtScalar(1.0)
    return SeedingTrace(k=k, n_centers=n,
                        centers=tuple(range(n)),
                        cluster_ids=tuple(cluster_ids),
                        coverage_counts=tuple(range(1, n + 1)),
                        potentials=(one,) * n,
                        final_cost=one, rng_seed=0, trial_index=0)


def test_early_miss_event_rules():
    tr = _trace_with_clusters(10, [1, 5, 7])
    assert not early_miss_event(tr, 0.3, 0.1)  # first pick lands in bar 1
    tr = _trace_with_clusters(10, [5, 7, 2])
    assert early_miss_event(tr, 0.2, 0.1)      # first 2 picks avoid bar 1
    assert not early_miss_event(tr, 0.3, 0.2)  # third pick hits bars 1..2
    # floor(alpha * k) = 0 makes the event vacuous
    assert early_miss_event(_trace_with_clusters(10, [1]), 0.05, 0.5)
    with pytest.raises(ConfigError):
        early_miss_event(tr, 0.0, 0.5)
    with pytest.raises(ConfigError):
        early_miss_event(tr, 0.5, 1.5)


def test_early_miss_frequency_small_k():
    # k=4, alpha=beta=0.5: the first 2 picks must avoid bars 1 and 2
    inst = gen_kmeans_bad(4, 4.0, 1.0)
    trials = 4 * 10**4
    arr = run_trials(inst, trials, rng_seed=31, alpha=0.5, beta=0.5)
    freq = arr.early_miss.mean()
    checks = sum(
        early_miss_event(seed(inst, rng_seed=31, trial_index=t), 0.5, 0.5)
        for t in range(500))
    se = (freq * (1 - freq) / 500) ** 0.5
    assert abs(checks / 500 - freq) <= max(5 * se, 0.01)
