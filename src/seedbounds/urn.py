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
    selects a uniformly random k-subset of balls.
    """
    _check_k(k)
    _check_trials(trials)
    counts = np.zeros(k + 1, dtype=np.int64)
    for lo, hi in rng.trial_chunks(0, trials, 2 * k):
        U = rng.uniform_matrix(rng_seed, np.arange(lo, hi, dtype=np.uint64), 2 * k)
        T = hi - lo
        sel = np.zeros((T, 2 * k), dtype=bool)
        order = np.argpartition(U, k - 1, axis=1)[:, :k]
        sel[np.arange(T)[:, None], order] = True
        both = (sel[:, 0::2] & sel[:, 1::2]).sum(axis=1)
        distinct = k - both
        counts += np.bincount(distinct, minlength=k + 1)
    return DistinctColorDistribution(k, counts / trials)


def biased_distinct_colors_dp(k: int, gamma: float) -> DistinctColorDistribution:
    """Exact distribution of the biased draw by dynamic programming.

    State (t drawn, c distinct): the next ball has a new color with
    probability ``2*gamma*(k-c) / (2*gamma*(k-c) + (2c - t))`` -- gamma
    times the weight on each of the 2(k-c) unseen-color balls against the
    2c - t remaining balls of seen colors.  The complementary probability
    is formed as ``1 - p_new`` so each state's transitions sum to exactly 1.
    """
    _check_k(k)
    _check_gamma(gamma)
    P = np.zeros(k + 1)
    P[0] = 1.0
    c = np.arange(k + 1, dtype=np.float64)
    for t in range(k):
        new_w = 2.0 * gamma * (k - c)
        old_w = 2.0 * c - t
        denom = new_w + old_w
        live = P > 0.0
        p_new = np.where(live, new_w / np.where(denom == 0.0, 1.0, denom), 0.0)
        p_old = np.where(live, 1.0 - p_new, 0.0)
        nxt = P * p_old
        nxt[1:] += (P * p_new)[:-1]
        P = nxt
    return DistinctColorDistribution(k, P)


def biased_distinct_colors_mc(k: int, gamma: float, trials: int,
                              rng_seed: int) -> DistinctColorDistribution:
    """Sequential simulation of the biased draw; deterministic given the seed.

    Works on blocks of trials on the :func:`rng.trial_chunks` grid.  A
    block's weight rows are carried from step to step: a draw zeroes the
    drawn ball and, if its color was unseen, sets its mate's weight to 1.
    Each step's weights, prefix sums and picks are those of rows rebuilt
    from the drawn and seen flags, the same bits.
    """
    _check_k(k)
    _check_gamma(gamma)
    _check_trials(trials)
    counts = np.zeros(k + 1, dtype=np.int64)
    for lo, hi in rng.trial_chunks(0, trials, 2 * k):
        T = hi - lo
        U = rng.uniform_matrix(rng_seed, np.arange(lo, hi, dtype=np.uint64), k)
        w = np.full((T, 2 * k), gamma)
        prefix = np.empty_like(w)
        seen = np.zeros((T, k), dtype=bool)
        row_ix, target, hit = np.arange(T), np.empty(T), np.empty((T, 2 * k), dtype=bool)
        for t in range(k):
            np.cumsum(w, axis=1, out=prefix)
            pick = rng.weighted_pick(prefix, U[:, t], target, hit)
            # the seen flags, not the weights, tell a new color: at gamma = 1
            # an unseen ball weighs what a seen one does
            color = pick // 2
            new = ~seen[row_ix, color]
            w[row_ix, pick] = 0.0
            w[row_ix[new], pick[new] ^ 1] = 1.0
            seen[row_ix, color] = True
        counts += np.bincount(seen.sum(axis=1), minlength=k + 1)
    return DistinctColorDistribution(k, counts / trials)


def tail_probability(dist: DistinctColorDistribution, threshold: float) -> float:
    """P(distinct colors > threshold * k), the strict upper tail."""
    if not 0.0 <= threshold <= 1.0:
        raise ConfigError(f"threshold must lie in [0, 1], got {threshold}")
    i = np.arange(dist.k + 1)
    return float(dist.probs[i > threshold * dist.k].sum())
