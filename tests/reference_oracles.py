"""Loop-at-a-time reference versions of the block oracles (test oracle).

Each function is the straightforward loop the package's block version
reorders: one subset, one colour count, one draw step or one chosen set at
a time, or, for the head-shift check, every bar where the package stops at
the first absorbed one.  The package versions must return these results
bit for bit.
"""

import itertools
import math

import numpy as np

from seedbounds import rng
from seedbounds.core import _enumerable, _plain, _scaled_exp, cost
from seedbounds.extfloat import ExtScalar
from seedbounds.instances import reference_costs
from seedbounds.seeding import CoverageDistribution
from seedbounds.urn import DistinctColorDistribution


def brute_force_opt(inst):
    """One k-subset at a time, in lexicographic order; strict ``<`` keeps
    the smallest argmin."""
    L = inst.n_locations
    rows, F = inst.plain_row_source()
    W, _ = _enumerable((rows(np.arange(L)), F))
    best_cost = math.inf
    best = None
    for subset in itertools.combinations(range(L), inst.k):
        c = W[subset, :].min(axis=0).sum()
        if c < best_cost:
            best_cost = c
            best = subset
    return cost(inst, best), best


def head_shift_start(inst, tail):
    """Streams the head columns (bars < tail) of every center in bars
    tail .. k-1, each chunk's bars overlapping the next chunk's by one, and
    returns the bar after the last one that is not the previous bar's with
    exponent +ell."""
    h, shift = 2 * tail, tail + 1
    for lo, hi in rng.trial_chunks(tail, inst.k - 1 - tail, inst.n_locations):
        m, e = (a.reshape(hi + 1 - lo, 2, h) for a in
                inst._weighted_rows(np.arange(2 * lo, 2 * hi + 2), slice(0, h)))
        same = (m[1:] == m[:-1]) & (e[1:] == _scaled_exp(m[:-1], e[:-1], inst.ell))
        bad = np.flatnonzero(~same.all(axis=(1, 2)))
        if bad.size:
            shift = lo + int(bad[-1]) + 2
    return shift


def distinct_colors_exact(k):
    """Two ``math.comb`` calls per colour count."""
    den = math.comb(2 * k, k)
    probs = np.zeros(k + 1)
    for i in range((k + 1) // 2, k + 1):
        num = (math.comb(k, i) * math.comb(i, k - i)) << (2 * i - k)
        probs[i] = num / den
    return DistinctColorDistribution(k, probs)


def biased_distinct_colors_mc(k, gamma, trials, rng_seed):
    """Rebuilds every weight row from the drawn and seen flags at each step."""
    counts = np.zeros(k + 1, dtype=np.int64)
    color_of_ball = np.arange(2 * k) // 2
    for lo, hi in rng.trial_chunks(0, trials, 2 * k):
        T = hi - lo
        U = rng.uniform_matrix(rng_seed, np.arange(lo, hi, dtype=np.uint64), k)
        drawn = np.zeros((T, 2 * k), dtype=bool)
        seen = np.zeros((T, k), dtype=bool)
        row_ix = np.arange(T)
        for t in range(k):
            seen_ball = seen[:, color_of_ball]
            w = np.where(drawn, 0.0, np.where(seen_ball, 1.0, gamma))
            prefix = np.cumsum(w, axis=1)
            pick = rng.weighted_pick(prefix, U[:, t])
            drawn[row_ix, pick] = True
            seen[row_ix, color_of_ball[pick]] = True
        counts += np.bincount(seen.sum(axis=1), minlength=k + 1)
    return DistinctColorDistribution(k, counts / trials)


def exact_distribution(inst):
    """A dict of chosen-location bitmasks per level; every potential rebuilt
    from its set's rows."""
    L = inst.n_locations
    rows, F = inst.plain_row_source()
    W, E = _enumerable((rows(np.arange(L)), F))
    w, _ = _enumerable(_plain(inst._w_m, inst._w_e))

    level = {0: 1.0}
    for step in range(inst.k):
        nxt = {}
        for mask, P in level.items():
            if step == 0:
                pot = w
            else:
                bits = [i for i in range(L) if mask >> i & 1]
                pot = W[bits, :].min(axis=0)
            tot = pot.sum()
            for i in range(L):
                if pot[i] > 0.0:
                    key = mask | (1 << i)
                    nxt[key] = nxt.get(key, 0.0) + P * pot[i] / tot
        level = nxt

    opt = reference_costs(inst).discrete
    probs = np.zeros(inst.k + 1)
    expected_ratio = 0.0
    for mask, P in level.items():
        bits = [i for i in range(L) if mask >> i & 1]
        probs[len(set(inst._cluster[bits].tolist()))] += P
        c_scaled = float(W[bits, :].min(axis=0).sum())
        expected_ratio += P * ExtScalar(c_scaled, E).ratio(opt)
    return CoverageDistribution(inst.k, probs), expected_ratio
