"""Closed-form probability bounds the experiments are checked against.

Each function evaluates one analytic bound; ``is_vacuous`` flags values
that exceed 1 and therefore constrain nothing at the given k.  Empirical
comparisons live in the harness; nothing here is asserted directly.
"""

from __future__ import annotations

import math

from .errors import ConfigError

__all__ = [
    "early_miss_bound",
    "uniform_tail_bound",
    "biased_tail_bound",
    "high_coverage_bound",
    "is_vacuous",
    "check_fractions",
    "evaluate",
    "BOUND_NAMES",
]


def _check_k(k: int) -> None:
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")


def check_fractions(alpha: float, beta: float, eta: float | None = None) -> None:
    """Raise ConfigError unless alpha and beta lie in (0, 1] and eta, when
    given, in (0, 1): the early-miss and high-coverage events need them there."""
    if not (0.0 < alpha <= 1.0 and 0.0 < beta <= 1.0):
        raise ConfigError("alpha and beta must lie in (0, 1]")
    if eta is not None and not (0.0 < eta < 1.0):
        raise ConfigError(f"eta must lie in (0, 1), got {eta}")


def early_miss_bound(k: int, alpha: float, beta: float) -> float:
    """exp(-(alpha*beta/3) * k): probability that the first floor(alpha*k)
    centers all miss the floor(beta*k) heaviest clusters."""
    _check_k(k)
    check_fractions(alpha, beta)
    return math.exp(-(alpha * beta / 3.0) * k)


def uniform_tail_bound(k: int) -> float:
    """5 * sqrt(k) * 2**(-k/16): tail of the uniform paired-color draw
    showing more than 7k/8 distinct colors."""
    _check_k(k)
    return 5.0 * math.sqrt(k) * 2.0 ** (-k / 16.0)


def biased_tail_bound(k: int) -> float:
    """sqrt(k) * 2**(-k/64): tail of the biased draw (any gamma in [1, 5])
    showing more than 0.99k distinct colors.

    At k = 1 it is the trivial bound 1.0: one ball always shows one color,
    more than 0.99, so the tail is 1, and the formula's 0.989 would be false.
    """
    _check_k(k)
    if k == 1:
        return 1.0
    return math.sqrt(k) * 2.0 ** (-k / 64.0)


def high_coverage_bound(k: int) -> float:
    """2 * sqrt(k) * 2**(-k/300): probability that seeding covers more than
    0.999k clusters (meaningful once it drops below 1, from k = 1939 on)."""
    _check_k(k)
    return 2.0 * math.sqrt(k) * 2.0 ** (-k / 300.0)


def is_vacuous(bound: float) -> bool:
    return bound >= 1.0


BOUND_NAMES = ("early_miss", "uniform_tail", "biased_tail", "high_coverage")


def evaluate(name: str, k: int, alpha: float = 0.1, beta: float = 0.1) -> float:
    """Dispatch by bound name (CLI/report surface)."""
    if name == "early_miss":
        return early_miss_bound(k, alpha, beta)
    if name == "uniform_tail":
        return uniform_tail_bound(k)
    if name == "biased_tail":
        return biased_tail_bound(k)
    if name == "high_coverage":
        return high_coverage_bound(k)
    raise ConfigError(f"unknown bound {name!r}; expected one of {BOUND_NAMES}")
