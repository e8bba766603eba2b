"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a live ``ACCEPTANCE <n> <name>: PASS/FAIL`` line (bypassing pytest
capture) together with its runtime and budget.

Run as part of the full suite, or alone with ``pytest tests/test_acceptance.py``.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from seedbounds import bounds
from seedbounds.cli import main as cli_main
from seedbounds.core import cost, coverage
from seedbounds.harness import (ExperimentConfig, run_experiment,
                                wilson_interval, write_trials_csv)
from seedbounds.instances import (brute_force_opt, gen_kmeans_bad,
                                  gen_kmedian_bad, reference_costs)
from seedbounds.seeding import exact_distribution, run_trials, seed
from seedbounds.urn import (biased_distinct_colors_dp, distinct_colors_exact,
                            distinct_colors_mc, tail_probability)


@pytest.fixture
def criterion(capfd):
    @contextmanager
    def _criterion(num, name, limit_s):
        t0 = time.perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            elapsed = time.perf_counter() - t0
            status = "PASS" if ok and elapsed < limit_s else "FAIL"
            with capfd.disabled():
                print(f"ACCEPTANCE {num} {name}: {status}"
                      f" ({elapsed:.1f}s / budget {limit_s}s)")
        assert elapsed < limit_s, f"runtime {elapsed:.1f}s over budget {limit_s}s"
    return _criterion


@pytest.fixture
def announce(capfd):
    def _announce(text):
        with capfd.disabled():
            print(text)
    return _announce


def _ratios(arr, opt):
    assert np.all(arr.final_m > 0.0)
    return np.ldexp(arr.final_m / opt.m, (arr.final_e - opt.e).astype(np.int32))


def test_acceptance_1_optimal_cost_reproduction(criterion):
    with criterion(1, "optimal-cost reproduction", 10):
        for k in range(2, 8):
            for gen in (gen_kmeans_bad, gen_kmedian_bad):
                for m in (1.0, 4.0 ** k):
                    for r in (1.0, 3.0):
                        inst = gen(k, m, r)
                        opt = reference_costs(inst).discrete
                        got, best = brute_force_opt(inst)
                        assert abs(got.ratio(opt) - 1.0) <= 1e-9
                        assert coverage(inst, best)[0] == k
                        # every argmin covers all k clusters
                        rows, _ = inst.plain_row_source()
                        W = rows(np.arange(2 * k))
                        opt_scaled = W[best, :].min(axis=0).sum()
                        for subset in itertools.combinations(range(2 * k), k):
                            c = W[subset, :].min(axis=0).sum()
                            if c <= opt_scaled * (1 + 1e-9):
                                assert coverage(inst, subset)[0] == k


def test_acceptance_2_cost_floor_suite(criterion):
    with criterion(2, "coverage/cost floor", 30):
        rng = np.random.default_rng(1234)
        for k in range(4, 11):
            inst = gen_kmeans_bad(k, 1.0, 1.0)
            opt = reference_costs(inst).discrete
            rows, E = inst.plain_row_source()
            W = rows(np.arange(2 * k))
            opt_scaled = opt.m * 2.0 ** (opt.e - E)
            clusters = inst._cluster
            for _ in range(10**4):
                picks = rng.choice(2 * k, size=k, replace=False)
                a = len(set(clusters[picks].tolist())) / k
                ratio = W[picks, :].min(axis=0).sum() / opt_scaled
                assert ratio >= (9.0 - a) / 8.0 - 1e-12
        # equality: both ends of the heaviest bar at k=2 give exactly 17/16
        inst = gen_kmeans_bad(2, 4.0, 1.0)
        ratio = cost(inst, [0, 1]).ratio(reference_costs(inst).discrete)
        assert abs(ratio - 17.0 / 16.0) <= 1e-12
        # and doubly covering every other bar meets the floor exactly
        for k in (4, 6, 8, 10):
            inst = gen_kmeans_bad(k, 1.0, 1.0)
            picks = [j for i in range(0, k, 2) for j in (2 * i, 2 * i + 1)]
            a = coverage(inst, picks)[0] / k
            ratio = cost(inst, picks).ratio(reference_costs(inst).discrete)
            assert abs(ratio - (9.0 - a) / 8.0) <= 1e-12


def test_acceptance_3_tiny_k_seeding_oracle(criterion):
    trials = 10**6
    with criterion(3, "tiny-k exact oracle vs Monte Carlo", 120):
        for gen in (gen_kmeans_bad, gen_kmedian_bad):
            for k in (2, 3, 4, 5):
                inst = gen(k, 4.0, 1.0)
                dist, expected_ratio = exact_distribution(inst)
                arr = run_trials(inst, trials, rng_seed=20240817)
                freq = np.bincount(arr.coverage, minlength=k + 1) / trials
                for i in range(k + 1):
                    p = dist.probs[i]
                    se = math.sqrt(p * (1 - p) / trials)
                    assert abs(freq[i] - p) <= 4 * se, (gen.__name__, k, i)
                ratios = _ratios(arr, reference_costs(inst).discrete)
                se = ratios.std() / math.sqrt(trials)
                assert abs(ratios.mean() - expected_ratio) <= 4 * se


def test_acceptance_4_early_miss_bound(criterion, announce):
    trials = 10**4
    with criterion(4, "early-miss empirical bound", 120):
        for k, target in ((150, math.exp(-0.5)), (300, math.exp(-1.0))):
            inst = gen_kmeans_bad(k, 4.0, 1.0)
            arr = run_trials(inst, trials, rng_seed=99, alpha=0.1, beta=0.1)
            count = int(arr.early_miss.sum())
            p, lo, hi = wilson_interval(count, trials)
            half = (hi - lo) / 2.0
            bound = bounds.early_miss_bound(k, 0.1, 0.1)
            assert abs(bound - target) <= 1e-12
            assert p <= bound + 3 * half
            announce(f"  criterion 4: k={k} empirical={p:.6f} bound={bound:.4f}")


def test_acceptance_5_uniform_urn(criterion, announce):
    with criterion(5, "uniform urn exactness and tail", 60):
        # closed form equals brute-force enumeration, exactly
        for k in range(1, 7):
            total = math.comb(2 * k, k)
            counts = [0] * (k + 1)
            for subset in itertools.combinations(range(2 * k), k):
                counts[len({b // 2 for b in subset})] += 1
            exact = distinct_colors_exact(k)
            for i in range(k + 1):
                assert exact.probs[i] == counts[i] / total
        # tail against the closed-form bound (vacuous cases still assert <=)
        for k in (16, 32, 64, 128, 256):
            t = tail_probability(distinct_colors_exact(k), 7 / 8)
            b = bounds.uniform_tail_bound(k)
            assert t <= b
            if bounds.is_vacuous(b):
                announce(f"  criterion 5: k={k} bound {b:.3g} is vacuous (>1);"
                         f" tail={t:.3g} still below it")
        # Monte Carlo agreement
        for k in (8, 64):
            exact = distinct_colors_exact(k)
            mc = distinct_colors_mc(k, 10**5, rng_seed=31)
            for i in range(k + 1):
                se = math.sqrt(exact.probs[i] * (1 - exact.probs[i]) / 10**5)
                assert abs(mc.probs[i] - exact.probs[i]) <= max(4 * se, 1e-12)


def test_acceptance_6_biased_urn(criterion, announce):
    with criterion(6, "biased urn dp, inequality, tails", 120):
        for k in range(1, 65):
            dp = biased_distinct_colors_dp(k, 1.0)
            assert np.abs(dp.probs - distinct_colors_exact(k).probs).max() <= 1e-12
        assert biased_distinct_colors_dp(2, 5.0).probs[2] == 10 / 11

        # product inequality, log domain, every k in 20..512 and i >= 0.99k
        for k in range(20, 513):
            for i in range(math.ceil(0.99 * k), k + 1):
                lhs = sum(math.log(2 * k - j * 1.8) for j in range(i))
                rhs = (i * math.log(2) + math.lgamma(k + 1)
                       - math.lgamma(k - 0.9 * i + 1)
                       + (i / 10) * math.log(k - 0.9 * i))
                assert lhs >= rhs - 1e-9 * abs(rhs), (k, i)

        tails = {}
        for k in (64, 128, 256, 512, 1024, 2048):
            tails[k] = tail_probability(biased_distinct_colors_dp(k, 5.0), 0.99)
        seq = [tails[k] for k in (64, 128, 256, 512, 1024)]
        assert all(a >= b for a, b in zip(seq, seq[1:]))
        smallest = next(k for k in sorted(tails)
                        if tails[k] < bounds.biased_tail_bound(k))
        announce(f"  criterion 6: smallest k with tail(0.99) below"
                 f" sqrt(k)*2^(-k/64): {smallest}"
                 f" (tail={tails[smallest]:.3g},"
                 f" bound={bounds.biased_tail_bound(smallest):.3g},"
                 f" vacuous={bounds.is_vacuous(bounds.biased_tail_bound(smallest))})")
        informative = next((k for k in sorted(tails)
                            if not bounds.is_vacuous(bounds.biased_tail_bound(k))
                            and tails[k] < bounds.biased_tail_bound(k)), None)
        announce(f"  criterion 6: smallest k where the bound is also"
                 f" non-vacuous: {informative}")


def test_acceptance_7_main_behavior(criterion, announce, tmp_path):
    with criterion(7, "bounded coverage at k=200", 300):
        cfg = ExperimentConfig(variant="kmeans", k=200, m=4.0, r=1.0,
                               trials=10**4, master_seed=424242, workers=1)
        records = run_experiment(cfg)
        cov = np.array([r.coverage_fraction for r in records])
        ratio = np.array([r.ratio_discrete for r in records])
        # (a) no trial covers more than eta = 0.999 of the clusters
        assert not np.any(cov > 0.999)
        # (b) per-trial coverage/cost floor
        assert np.all(ratio >= (9.0 - cov) / 8.0 - 1e-9)
        # (c) p99 coverage recorded, byte-identical CSVs across worker counts
        p99 = float(np.quantile(cov, 0.99))
        announce(f"  criterion 7: p99 coverage_fraction = {p99:.6g}")
        p1 = tmp_path / "w1.csv"
        p2 = tmp_path / "w2.csv"
        write_trials_csv(records, cfg, p1)
        records2 = run_experiment(ExperimentConfig(variant="kmeans", k=200,
                                                   m=4.0, r=1.0, trials=10**4,
                                                   master_seed=424242, workers=2))
        write_trials_csv(records2, cfg, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_acceptance_8_scale_robustness(criterion, announce):
    with criterion(8, "k=2000 trial stays finite", 60):
        inst = gen_kmeans_bad(2000, 1.0, 1.0)
        tr = seed(inst, rng_seed=7, trial_index=0)
        assert len(tr.centers) == 2000
        for p in tr.potentials:
            assert not p.is_zero and math.isfinite(p.m) and p.m >= 1.0
        assert 1 <= tr.coverage_counts[-1] <= 2000
        assert math.isfinite(tr.final_cost.m) and not tr.final_cost.is_zero
        announce(f"  criterion 8: coverage {tr.coverage_counts[-1]}/2000,"
                 f" final cost exp2 ~ {tr.final_cost.e}")


def test_acceptance_9_cli_determinism(criterion, tmp_path):
    with criterion(9, "seed CLI byte determinism", 120):
        files = [tmp_path / f"t{i}.csv" for i in range(4)]
        base = ["seed", "--variant", "kmeans", "--k", "64", "--m", "4",
                "--trials", "40000", "--seed", "31337"]
        assert cli_main(base + ["--workers", "1", "--out", str(files[0])]) == 0
        assert cli_main(base + ["--workers", "1", "--out", str(files[1])]) == 0
        assert cli_main(base + ["--workers", "8", "--out", str(files[2])]) == 0
        assert cli_main(base + ["--workers", "8", "--out", str(files[3])]) == 0
        blobs = [f.read_bytes() for f in files]
        assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
