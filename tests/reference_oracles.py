"""Loop-at-a-time reference versions of the block oracles (test oracle).

Each function is the straightforward loop the package's block version
reorders: one subset, one colour count, one draw step or one chosen set at
a time, or, for the head-shift check, every bar where the package stops at
the first absorbed one.  The bar dominance scan reads every plain row value
where the package reads the kernel's few distinct ones.  The instance
generator builds one ``WeightedLocation`` per end where the package writes
the packed columns, and the packed seeding engine rescales every potential
row by its largest exponent where the package keeps plain doubles under
one 2**-F.  The uniform urn's Monte Carlo ranks indices where the package
partitions values, the biased urn's DP steps every state where the package
steps the reachable band, and the biased urn's Monte Carlo rebuilds every
weight row and its tree from the drawn and seen flags where the package
carries its rows in the trees' leaves from draw to draw.  The pick rule
is written out for one row and one uniform in Python floats, block by
block, where the package sums whole chunks with numpy.  The package
versions must return these results bit for bit.
"""

import itertools
import math

import numpy as np

from seedbounds import rng
from seedbounds.core import (BOTTOM, ELL, TOP, Instance, WeightedLocation, _enumerable,
                             _ext_min_into, _norm, _plain, _scaled_exp, _scaled_totals, cost)
from seedbounds.errors import DegenerateInstanceError
from seedbounds.extfloat import ExtScalar
from seedbounds.instances import reference_costs
from seedbounds.seeding import CoverageDistribution
from seedbounds.urn import DistinctColorDistribution


def bar_instance(k, m, r, variant):
    """The generator's instance, one ``WeightedLocation`` of ``ExtScalar``
    coordinates per end, packed by ``Instance``."""
    ext_r, ext_m = ExtScalar(r), ExtScalar(m)
    locs = []
    for i in range(1, k + 1):
        x = ExtScalar.from_int((1 << i) - 2) * ext_r
        h = ext_r.shifted(i - 2)
        w = ext_m.shifted(-ELL[variant] * (i - 1))
        locs.append(WeightedLocation(i, TOP, x, h, w))
        locs.append(WeightedLocation(i, BOTTOM, x, h, w))
    return Instance(locs, k, m, r, variant)


BLOCK = 16


def block_rule(weights, u):
    """The pick rule on one row of nonnegative floats with a positive total,
    and one uniform u in [0, 1): ``(pick, total)``.

    The row is zero-padded to a multiple of 16.  Each block of 16 is summed
    by a pairwise tree, the block sums are added in order, and the target
    is ``max(u * total, least positive double)``.  The block is the first
    whose prefix reaches the target; the pick descends its tree from the
    prefix before it, going right iff that base plus the left sum lies
    below the target and the right sum is positive.
    """
    w = [float(x) for x in weights] + [0.0] * (-len(weights) % BLOCK)
    trees = []
    for lo in range(0, len(w), BLOCK):
        tree = [w[lo:lo + BLOCK]]
        while len(tree[-1]) > 1:
            below = tree[-1]
            tree.append([below[i] + below[i + 1] for i in range(0, len(below), 2)])
        trees.append(tree)
    prefixes = []
    for tree in trees:
        prefixes.append(tree[-1][0] if not prefixes else prefixes[-1] + tree[-1][0])
    total = prefixes[-1]
    target = max(u * total, rng._TINY)
    b = sum(1 for c in prefixes if c < target)
    acc, node = (prefixes[b - 1] if b else 0.0), 0
    for level in reversed(trees[b][:-1]):
        left, right = level[2 * node], level[2 * node + 1]
        node *= 2
        if acc + left < target and right > 0.0:
            acc += left
            node += 1
    return BLOCK * b + node, total


def run_chunk_packed(inst, n_centers, rng_seed, lo, hi):
    """The seeding engine on packed potentials: every step takes the
    elementwise extended minimum and rescales each row by its own largest
    exponent before summing it by the pick rule (``rng.block_tree``, picks
    by ``rng.block_pick``).  Returns what ``seeding._run_chunk`` returns;
    its normalizer exponents are per-row maxima, not one F."""
    U = rng.uniform_matrix(rng_seed, np.arange(lo, hi, dtype=np.uint64), n_centers).T.copy()
    picks = np.empty((n_centers, hi - lo), dtype=np.int64)
    totals, exps = np.empty(n_centers), np.empty(n_centers, dtype=np.int64)
    rows = inst.weighted_row_source()
    levels, prefix, E = _scaled_totals(inst._w_m, inst._w_e)
    for step in range(n_centers):
        total = prefix[-1]
        if not (total > 0.0).all():
            raise DegenerateInstanceError(
                "total potential reached zero before all centers were chosen")
        totals[step], exps[step] = total[0], E[0]
        pick = picks[step] = rng.block_pick(levels, prefix, U[step])
        if step == 0:
            pot = rows(pick)
        else:
            _ext_min_into(*pot, *rows(pick))
        levels, prefix, E = _scaled_totals(*pot)
    return picks, _norm(prefix[-1], E), (totals, exps)


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


def bars_dominant(inst):
    """Every value of every plain row, two adjacent bars (j // 2) at a time:
    True iff on every column in bars <= a the smaller of bar a+1's two
    values is at least the larger of bar a's, and on every column in bars
    >= a+1 the smaller of bar a's is at least the larger of bar a+1's."""
    L = inst.n_locations
    rows, _ = inst.plain_row_source()
    col_bar = np.arange(L) // 2
    for a in range(inst.k - 1):
        v = rows(np.arange(2 * a, 2 * a + 4))
        lo, hi = np.minimum(v[0::2], v[1::2]), np.maximum(v[0::2], v[1::2])
        left = col_bar <= a
        if not (np.all(lo[1, left] >= hi[0, left]) and np.all(lo[0, ~left] >= hi[1, ~left])):
            return False
    return True


def distinct_colors_exact(k):
    """Two ``math.comb`` calls per colour count."""
    den = math.comb(2 * k, k)
    probs = np.zeros(k + 1)
    for i in range((k + 1) // 2, k + 1):
        num = (math.comb(k, i) * math.comb(i, k - i)) << (2 * i - k)
        probs[i] = num / den
    return DistinctColorDistribution(k, probs)


def distinct_colors_mc(k, trials, rng_seed):
    """Ranks every trial's 2k uniforms by index (``argpartition``) and keeps
    the first k."""
    counts = np.zeros(k + 1, dtype=np.int64)
    for lo, hi in rng.trial_chunks(0, trials, 2 * k):
        U = rng.uniform_matrix(rng_seed, np.arange(lo, hi, dtype=np.uint64), 2 * k)
        T = hi - lo
        sel = np.zeros((T, 2 * k), dtype=bool)
        order = np.argpartition(U, k - 1, axis=1)[:, :k]
        sel[np.arange(T)[:, None], order] = True
        both = (sel[:, 0::2] & sel[:, 1::2]).sum(axis=1)
        counts += np.bincount(k - both, minlength=k + 1)
    return DistinctColorDistribution(k, counts / trials)


def biased_distinct_colors_dp(k, gamma):
    """Steps all k + 1 states at every draw, masking the zero ones."""
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


def biased_distinct_colors_mc(k, gamma, trials, rng_seed):
    """Rebuilds every weight row from the drawn and seen flags at each step,
    and draws on a fresh tree of it."""
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
            pick = rng.block_pick(*rng.block_tree(w), U[:, t])
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
