"""Generators for the adversarial instances plus reference/brute-force optima.

Cluster i (1-based) is a vertical bar: two locations at (x_i, +/-h_i) with
x_i = (2**i - 2) * r and half-height h_i = 2**(i-2) * r.  The squared-cost
variant puts weight m / 4**(i-1) at each end, the linear-cost variant
m / 2**(i-1).  With that geometry the best discrete k-center solution picks
one end per bar and costs k*m*r**2 (squared) or k*m*r (linear).  The
generators write the instance's packed columns with numpy, with the bits
of building each coordinate and weight as an ExtScalar.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .core import ELL, Instance, _enumerable, _ext_mul, _norm, cost
from .errors import CapacityError, ConfigError
from .extfloat import ExtScalar

__all__ = [
    "OptimalCosts",
    "gen_kmeans_bad",
    "gen_kmedian_bad",
    "reference_costs",
    "brute_force_opt",
    "BRUTE_FORCE_LIMIT",
]

BRUTE_FORCE_LIMIT = 10**6


@dataclass(frozen=True)
class OptimalCosts:
    """Reference optimal costs: centers restricted to data points vs free."""

    discrete: ExtScalar
    continuous: ExtScalar


def _check_params(k: int, m: float, r: float) -> None:
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not (m >= 1.0 and math.isfinite(m)):
        raise ConfigError(f"m must be finite and >= 1, got {m}")
    if not (r > 0.0 and math.isfinite(r)):
        raise ConfigError(f"r must be finite and > 0, got {r}")


def _bar_instance(k: int, m: float, r: float, variant: str) -> Instance:
    _check_params(k, m, r)
    # bar i is 2**(i-1) * r long, so its length**ell grows by 2**ell per bar;
    # weights shrink by the same factor and every bar costs m * r**ell
    ell = ELL[variant]
    ext_r, ext_m = ExtScalar(r), ExtScalar(m)
    i = np.arange(1, k + 1)
    # x = (2**i - 2) * r with 2**i - 2 rounded half-up at 54 bits, as
    # ExtScalar.from_int rounds it: exact up to i = 54, 2**i from i = 55 on,
    # which is how the double 1 - 2**(1-i) rounds too
    x = _ext_mul(*_norm(1.0 - np.ldexp(1.0, 1 - i), i), ext_r.m, ext_r.e)
    ends = lambda a: np.repeat(a, 2)  # top end, then bottom end, per bar
    y = np.tile([ext_r.m, -ext_r.m], k), ends(ext_r.e + i - 2)
    w = np.full(2 * k, ext_m.m), ends(ext_m.e - ell * (i - 1))
    return Instance.__new__(Instance)._init_columns(
        k, m, r, variant, ends(i), tuple(map(ends, x)), y, w)


def gen_kmeans_bad(k: int, m: float = 1.0, r: float = 1.0) -> Instance:
    """Squared-distance instance: per-end weights m / 4**(i-1)."""
    return _bar_instance(k, m, r, "kmeans")


def gen_kmedian_bad(k: int, m: float = 1.0, r: float = 1.0) -> Instance:
    """Linear-distance instance: same geometry, per-end weights m / 2**(i-1)."""
    return _bar_instance(k, m, r, "kmedian")


def reference_costs(inst: Instance) -> OptimalCosts:
    """Closed-form optima for a generated instance.

    Squared variant: discrete k*m*r**2 (one end per bar), continuous half of
    that (bar midpoints).  Linear variant: k*m*r for both -- any point of a
    bar's segment, its ends included, is a 1-median of the two ends.
    """
    ext_k = ExtScalar.from_int(inst.k)
    ext_m = ExtScalar(inst.m)
    ext_r = ExtScalar(inst.r)
    if inst.variant == "kmeans":
        discrete = ext_k * ext_m * ext_r * ext_r
        continuous = discrete.shifted(-1)
    else:
        discrete = ext_k * ext_m * ext_r
        continuous = discrete
    return OptimalCosts(discrete=discrete, continuous=continuous)


def brute_force_opt(inst: Instance):
    """Exhaustive minimum of cost() over all k-subsets of locations.

    Returns ``(cost, best)`` where ``best`` is the lexicographically
    smallest argmin index tuple.  Works on blocks of subsets in
    lexicographic order, on the :func:`rng.trial_chunks` grid: per block a
    running ``np.minimum`` over each subset's rows and one row sum, the
    same floating-point operations as one subset at a time, so the result
    is the same bits; the first argmin of a block replaces the best only
    when strictly smaller.  Refuses work beyond BRUTE_FORCE_LIMIT subsets
    (about a million), and instances whose
    :meth:`Instance.plain_row_source` rows span more than
    ``core.PLAIN_SEEDING_SPREAD`` binary orders.
    """
    L, k = inst.n_locations, inst.k
    total = math.comb(L, k)
    if total > BRUTE_FORCE_LIMIT:
        raise CapacityError(
            f"C({L},{k}) = {total} subsets exceeds the enumeration limit {BRUTE_FORCE_LIMIT}")
    rows, F = inst.plain_row_source()
    W, _ = _enumerable((rows(np.arange(L)), F))
    subsets = itertools.combinations(range(L), k)
    best_cost = math.inf
    best = None
    for lo, hi in rng.trial_chunks(0, total, L):
        S = np.fromiter(itertools.chain.from_iterable(itertools.islice(subsets, hi - lo)),
                        dtype=np.int64, count=(hi - lo) * k).reshape(hi - lo, k)
        M = W[S[:, 0]]
        for j in range(1, k):
            np.minimum(M, W[S[:, j]], out=M)
        c = M.sum(axis=1)
        i = int(np.argmin(c))
        if c[i] < best_cost:
            best_cost = c[i]
            best = tuple(S[i].tolist())
    return cost(inst, best), best
