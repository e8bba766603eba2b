"""Paired-color urn processes: draw k balls out of k color pairs.

An urn holds 2k balls, two per color.  ``distinct_colors_*`` draws k of
them uniformly without replacement; the ``biased_*`` variants upweight
balls of still-unseen colors by a factor gamma (unseen-color balls carry
weight gamma, remaining balls of already-seen colors weight 1).  The
number of distinct colors drawn models how many optimal clusters a seeding
run covers, so the tails of these distributions are what the experiment
harness compares against closed-form bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigError

__all__ = [
    "DistinctColorDistribution",
    "distinct_colors_exact",
    "distinct_colors_mc",
    "biased_distinct_colors_dp",
    "biased_distinct_colors_mc",
    "tail_probability",
]

GAMMA_MIN, GAMMA_MAX = 1.0, 5.0


@dataclass(frozen=True)
class DistinctColorDistribution:
    """probs[i] = P(the k drawn balls show exactly i distinct colors)."""

    k: int
    probs: np.ndarray


def _check_k(k: int) -> None:
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")


def _check_gamma(gamma: float) -> None:
    if not (GAMMA_MIN <= gamma <= GAMMA_MAX):
        raise ConfigError(f"gamma must lie in [{GAMMA_MIN}, {GAMMA_MAX}], got {gamma}")


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")


def distinct_colors_exact(k: int) -> DistinctColorDistribution:
    """Closed form for the uniform draw, computed in exact integers.

    Exactly i distinct colors means: choose the i colors, choose which
    k - i of them contribute both balls, and pick one of two balls for each
    of the 2i - k singleton colors:
    ``p[i] = C(k,i) * C(i,k-i) * 2**(2i-k) / C(2k,k)`` for ``2i >= k``.
    Both binomials step from i to i + 1 by exact integer recurrences, so
    each ``p[i]`` is the same correctly rounded quotient of the same
    integers as two ``math.comb`` calls per i would give.
    """
    _check_k(k)
    den = math.comb(2 * k, k)
    probs = np.zeros(k + 1)
    first = (k + 1) // 2
    a, b = math.comb(k, first), math.comb(first, k - first)   # C(k, i), C(i, k - i)
    for i in range(first, k + 1):
        probs[i] = ((a * b) << (2 * i - k)) / den
        a = a * (k - i) // (i + 1)
        b = b * (i + 1) * (k - i) // ((2 * i - k + 1) * (2 * i - k + 2))
    return DistinctColorDistribution(k, probs)


def distinct_colors_mc(k: int, trials: int, rng_seed: int) -> DistinctColorDistribution:
    """Monte Carlo of the uniform draw; deterministic given the seed.

    Each trial ranks 2k per-trial uniforms and keeps the k smallest, which
    selects a uniformly random k-subset of balls.  A row's k smallest are
    the values at most its k-th smallest, found by partitioning values,
    not indices.  Where that selects more than k (a tie at the k-th value),
    the row falls back to the first k indices of ``np.argpartition``, so
    every row keeps the subset an index partition gives.
    """
    _check_k(k)
    _check_trials(trials)
    rng.check_seed(rng_seed)
    counts = np.zeros(k + 1, dtype=np.int64)
    for lo, hi in rng.trial_chunks(0, trials, 2 * k):
        U = rng.uniform_matrix(rng_seed, np.arange(lo, hi, dtype=np.uint64), 2 * k)
        sel = U <= np.partition(U, k - 1, axis=1)[:, k - 1:k]
        tie = np.flatnonzero(np.count_nonzero(sel, axis=1) > k)
        if tie.size:
            sel[tie] = False
            sel[tie[:, None], np.argpartition(U[tie], k - 1, axis=1)[:, :k]] = True
        both = np.count_nonzero(sel[:, 0::2] & sel[:, 1::2], axis=1)
        counts += np.bincount(k - both, minlength=k + 1)
    return DistinctColorDistribution(k, counts / trials)


def biased_distinct_colors_dp(k: int, gamma: float) -> DistinctColorDistribution:
    """Exact distribution of the biased draw by dynamic programming.

    State (t drawn, c distinct): the next ball has a new color with
    probability ``2*gamma*(k-c) / (2*gamma*(k-c) + (2c - t))`` -- gamma
    times the weight on each of the 2(k-c) unseen-color balls against the
    2c - t remaining balls of seen colors.  The complementary probability
    is formed as ``1 - p_new`` so each state's transitions sum to exactly 1.

    After t draws only the band c = ceil(t/2) .. t is reachable, and every
    state outside it has probability exactly 0, so each step updates the
    band alone, in two buffers that swap.  In the band the denominator is
    positive; each state gets the products and sums that stepping all
    k + 1 states gives, in the same order, so the same bits.
    """
    _check_k(k)
    _check_gamma(gamma)
    c = np.arange(k + 1, dtype=np.float64)
    new_w, two_c = 2.0 * gamma * (k - c), 2.0 * c
    P, nxt = np.zeros(k + 1), np.zeros(k + 1)
    P[0] = 1.0
    denom, p_new, p_old = np.empty(k + 1), np.empty(k + 1), np.empty(k + 1)
    for t in range(k):
        lo = (t + 1) // 2
        band, n = slice(lo, t + 1), t + 1 - lo
        d = np.add(new_w[band], np.subtract(two_c[band], t, out=denom[:n]), out=denom[:n])
        pn = np.divide(new_w[band], d, out=p_new[:n])
        np.multiply(P[band], np.subtract(1.0, pn, out=p_old[:n]), out=nxt[band])
        nxt[t + 1] = 0.0
        nxt[lo + 1:t + 2] += np.multiply(P[band], pn, out=pn)
        P, nxt = nxt, P
    lo = (k + 1) // 2
    probs = np.zeros(k + 1)
    probs[lo:] = P[lo:]
    return DistinctColorDistribution(k, probs)


def biased_distinct_colors_mc(k: int, gamma: float, trials: int,
                              rng_seed: int) -> DistinctColorDistribution:
    """Sequential simulation of the biased draw; deterministic given the seed.

    Works on blocks of trials on the :func:`rng.trial_chunks` grid, one
    weight row per trial in the leaves of the block's
    :func:`rng.block_tree`, carried from step to step: each step draws by
    :func:`rng.block_pick`, zeroes the drawn ball and, if its color was
    unseen, sets its mate's weight to 1, then re-sums the trees
    (:func:`rng.block_sums`).  Each step's weights, sums and picks are
    those of rows rebuilt from the drawn and seen flags, the same bits.
    """
    _check_k(k)
    _check_gamma(gamma)
    _check_trials(trials)
    rng.check_seed(rng_seed)
    counts = np.zeros(k + 1, dtype=np.int64)
    for lo, hi in rng.trial_chunks(0, trials, 2 * k):
        T = hi - lo
        levels, prefix = rng.block_tree(np.full((T, 2 * k), gamma))
        w = levels[0]
        # row t: every trial's uniform for draw t
        U = rng.uniform_matrix(rng_seed, np.arange(lo, hi, dtype=np.uint64), k).T.copy()
        # each trial's first leaf: rows are padded to whole blocks, so it is
        # even and ball ^ 1 is the drawn ball's mate
        first = np.arange(0, w.size, w.size // T)
        for t in range(k):
            if t:
                rng.block_sums(levels, prefix)
            ball = first + rng.block_pick(levels, prefix, U[t])
            # the mate's weight, not the drawn ball's, tells a new color: the
            # mate is drawn (0) iff its color is seen, and weighs gamma if not
            mate = ball ^ 1
            w[mate] = np.minimum(w[mate], 1.0)
            w[ball] = 0.0
        # a color is seen iff one of its balls is drawn, that is weighs 0
        rows = w.reshape(T, -1)[:, :2 * k]
        unseen = np.count_nonzero((rows[:, 0::2] > 0.0) & (rows[:, 1::2] > 0.0), axis=1)
        counts += np.bincount(k - unseen, minlength=k + 1)
    return DistinctColorDistribution(k, counts / trials)


def tail_probability(dist: DistinctColorDistribution, threshold: float) -> float:
    """P(distinct colors > threshold * k), the strict upper tail."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must lie in [0, 1], got {threshold}")
    i = np.arange(dist.k + 1)
    return float(dist.probs[i > threshold * dist.k].sum())
