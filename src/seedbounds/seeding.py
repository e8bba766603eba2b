"""Distance-power seeding and an exact outcome-distribution oracle.

The first center is drawn proportionally to location weight (uniform over
underlying points); center i > 1 proportionally to
``weight * (min distance to the chosen centers) ** ell`` with ell = 2 for
the squared-cost variant and ell = 1 for the linear one.  Every pick
follows the one pick rule of :mod:`rng`: the weights, scaled into one
double range by exponent arithmetic, are summed in aligned blocks of
``rng.BLOCK`` by pairwise trees, the block sums in order; the uniform
variate, drawn at native precision, times the total is the target, found
by the block prefix and then by a descent of the block's tree.  Boundary
ties resolve to the lower index, and no pick lands on a zero weight.

Trials are pure functions of ``(rng_seed, trial_index)``.  The batched
engine computes every trial row-independently, so results never depend on
chunking, execution order, or worker count, and a single-trial run
reproduces any batch row bit for bit.  The engine only samples: per chunk
it returns each trial's picks and packed final cost.  Every other outcome
comes from the picks, computed in one place each: :func:`run_trials`
derives a chunk's coverage and early miss (one rule, shared with
:func:`early_miss_event`), and :func:`seed` its coverage counts.

The first pick samples one packed weight row per chunk, summed once and
shared by the chunk's trials: generated weights span up to 2k binary
orders.  The potentials then start as the first centers' weighted rows.
A chunk allocates its work arrays once: the uniforms, transposed to one
row per pick; the picks, one row of trials per pick; the first trial's
normalizers, two arrays; and the buffers of its step loop.

Picks 1.. run in one of two step loops with the same bits.  The batch
loop (:func:`_row_steps`) steps the chunk's trials together: each pick
takes the minimum of every trial's whole potential row and its fetched
row, in the leaves of the chunk's trees, then re-sums the trees and
block prefixes whole (:func:`rng.block_sums`, one elementwise add per
tree level; the prefix is blocks-major, so its sums and the pick's block
search run along the chunk's trials, and ``prefix[-1]`` holds every
trial's total); besides those buffers, the only (T, 2k) arrays a step
allocates are the rows it fetches.  The interval loop
(:func:`_bar_steps`) runs where the row cache is a bar-gap
kernel whose adjacent bars are all dominant, a check made once at the
kernel's build (``core._dominant``): left of two adjacent bars the right
one's row values are at least the left one's, right of them the reverse.
A pick in bar b then lowers potentials only on the bars strictly between
b's chosen neighbours.  The loop takes the chunk's trials in pairs, each
in one lane of interleaved complex128 trees: each trial keeps its chosen
bars in a sorted list and takes the minimum over those bars only, and the
pair re-sums the trees of the blocks either trial changed and the block
prefixes from the first of them on, each lane with the bits of a
whole-row pass.  The full matrix, and a kernel that fails the check,
take the batch loop.

There is one engine, on plain doubles.  Its rows come from
:meth:`Instance.plain_row_source`: weighted rows as plain doubles scaled by
one 2**-F, chosen so that every nonzero value is at least
2**-(1022 - 53) (``core.PLAIN_SEEDING_SPREAD``), with values beyond the
double range +inf.  After pick 0 the chunk checks its first potentials
once: if all are below 2, ``np.minimum`` updates them and the pick
rule's sums run on them as they are, with no per-row rescaling.  Later
potentials are elementwise at most the first ones, and each nonzero one
is a row value, so every scaled potential stays in [2**-969, 2), and
``u * total`` for every uniform u >= 2**-53 is a normal double.  The
power-of-two scale then commutes with each rounding of the sums, the
minimum and the pick comparisons: picks and costs are bit-identical to a
packed engine that rescales every row by its own largest exponent at
every step (the test reference).  A chunk whose first potentials fail the check raises
CapacityError: its potentials span more than ``core.PLAIN_SEEDING_SPREAD``
binary orders.  Generated instances pass the check in practice: their
first pick lands in the heavy first bars.  :func:`exact_distribution`
enumerates on the same plain rows and raises CapacityError where their
values span more than ``core.PLAIN_SEEDING_SPREAD`` binary orders.

The engine reads every row from the instance's row cache (``core``
module docstring): a bar-gap kernel above the cap (k > 1024), whose rows
are the same bits because every packed operation commutes with the
power-of-two scale between consecutive bars, and otherwise the full
matrix of plain doubles, gathered from the kernel's plain rows where the
instance has one.  Once the cache is built no pick computes a distance.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import rng
from .bounds import check_fractions
from .core import (PLAIN_SEEDING_SPREAD, Instance, _enumerable, _norm, _plain,
                   _scaled_totals)
from .errors import CapacityError, ConfigError, DegenerateInstanceError
from .extfloat import ExtScalar

__all__ = [
    "SeedingTrace",
    "CoverageDistribution",
    "TrialArrays",
    "seed",
    "run_trials",
    "exact_distribution",
    "early_miss_event",
    "DEBUG_CHECKS",
]

# Extra per-iteration distribution assertions (slow); enable in tests.
DEBUG_CHECKS = False

# Reachable center sets the exact oracle enumerates at most: 616,666 at
# k = 10, 2,449,868 at k = 11.
_EXACT_SET_LIMIT = 10**6


@dataclass(frozen=True)
class SeedingTrace:
    """Full record of one seeding run.

    ``potentials[j]`` is the sampling normalizer before pick j: the total
    weight for j = 0 and the current cost of the chosen prefix afterwards.
    """

    k: int
    n_centers: int
    centers: tuple[int, ...]
    cluster_ids: tuple[int, ...]
    coverage_counts: tuple[int, ...]
    potentials: tuple[ExtScalar, ...]
    final_cost: ExtScalar
    rng_seed: int
    trial_index: int
    rng_algorithm: str = rng.ALGORITHM


@dataclass(frozen=True)
class CoverageDistribution:
    """probs[i] = P(exactly i of the k optimal clusters get covered)."""

    k: int
    probs: np.ndarray


@dataclass(frozen=True)
class TrialArrays:
    """Per-trial outcomes of a batched run, aligned by trial index."""

    trial_indices: np.ndarray
    coverage: np.ndarray
    final_m: np.ndarray
    final_e: np.ndarray
    early_miss: np.ndarray


def _check_trials(first, count):
    """ConfigError unless trials ``first .. first + count - 1`` are at least
    one and lie in 0 .. 2**63 - 1, the range of the int64 trial indices."""
    if not 0 <= first <= first + count - 1 <= np.iinfo(np.int64).max:
        raise ConfigError(f"trials must be at least one, with indices in 0..2**63 - 1;"
                          f" got {first}..{first + count - 1}")


def _total(s, total):
    """The totals of the potential rows ``s``; DegenerateInstanceError unless
    all are positive."""
    if not (total > 0.0).all():
        raise DegenerateInstanceError("total potential reached zero before all centers were chosen")
    if DEBUG_CHECKS:
        p = s / np.expand_dims(total, -1)
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert np.all(np.abs(s.sum(axis=-1) / total - 1.0) <= 1e-12)
    return total


def _run_chunk(inst, n_centers, rng_seed, lo, hi):
    """Sample trials lo..hi-1: their picks as (n_centers, T) rows, their packed
    final costs ``(m, e)``, and trial lo's normalizers before each pick as
    two arrays ``(totals, exponents)``.  Raises CapacityError where the
    potentials after the first pick are not all below 2 on the plain-double
    scale (module docstring).  Picks 1.. run in :func:`_bar_steps` where the
    instance has an interval lowering (a dominant bar-gap kernel), else in
    :func:`_row_steps`; both give the same bits."""
    # row j: every trial's uniform for pick j
    U = rng.uniform_matrix(rng_seed, np.arange(lo, hi, dtype=np.uint64), n_centers).T.copy()
    picks = np.empty((n_centers, hi - lo), dtype=np.int64)
    totals, exps = np.empty(n_centers), np.empty(n_centers, dtype=np.int64)
    # pick 0 samples the packed location weights: one tree, shared by the
    # trials; later picks sample weight * (min distance to chosen centers) ** ell
    levels, prefix, E = _scaled_totals(inst._w_m, inst._w_e)
    totals[0], exps[0] = _total(levels[0], prefix[-1])[0], E[0]
    picks[0] = rng.block_pick(levels, prefix, U[0])
    # the potentials, as every row, are plain doubles scaled by 2**-F
    rows, F = inst.plain_row_source()
    exps[1:] = F
    s = rows(picks[0])
    if not np.all(s < 2.0):
        raise CapacityError(
            f"the potentials after the first pick span more than"
            f" {PLAIN_SEEDING_SPREAD} binary orders, beyond the plain-double engine")
    lower = inst.interval_lowering()
    final = _row_steps(rows, s, picks, U, totals) if lower is None else _bar_steps(
        lower, s, picks, U, totals)
    return picks, _norm(final, F), (totals, exps)


def _row_steps(rows, s, picks, U, totals):
    """Picks 1.. of a chunk, its trials at once: each pick takes the minimum
    of every potential row ``s`` and the fetched rows, then re-sums the
    rows' trees and block prefixes whole.  Fills ``picks`` and ``totals``
    (trial lo's) and returns the final totals."""
    T, L = s.shape
    levels, prefix = rng.block_tree(s)
    # the potentials live in the trees' zero-padded leaves
    s = levels[0].reshape(T, -1)[:, :L]
    for step in range(1, len(U)):
        totals[step] = _total(s, prefix[-1])[0]
        pick = picks[step] = rng.block_pick(levels, prefix, U[step])
        np.minimum(s, rows(pick), out=s)
        rng.block_sums(levels, prefix)
    return prefix[-1]


def _bar_steps(lower, s, picks, U, totals):
    """Picks 1.. of a chunk, its trials in pairs, with the bits of
    :func:`_row_steps`.

    Every two adjacent bars are dominant (``core._dominant``), so a pick in
    bar b lowers no potential outside the bars strictly between b's chosen
    neighbours: there its row is at least the row of a neighbour's chosen
    end, which already bounds the potential, and the whole-row minimum
    keeps the potential's bits.  A pair's potentials and sums lie
    interleaved in the complex128 trees of :func:`rng.block_tree`, one
    trial per lane: complex addition adds the lanes apart.  Each trial
    picks on its lane's views (:func:`rng.lane_pick`), keeps its chosen
    bars in a sorted list that gives those neighbours, and ``lower`` takes
    the minimum over their locations only.  Then :func:`rng.block_sums`
    re-sums both lanes' trees over the blocks either trial changed, and
    their block prefixes from the first of them on.  An odd chunk's last
    trial runs beside a lane of zeros, which it never reads.  A chunk
    raises DegenerateInstanceError at the first step where either trial's
    total is zero.
    """
    T, L = s.shape
    levels, prefix = rng.block_tree(np.zeros((1, L), dtype=np.complex128))
    # (locations, 2) float views of the leaves and the block prefix
    pot, sums = levels[0].view(np.float64).reshape(-1, 2), prefix.view(np.float64).reshape(-1, 2)
    final = np.empty(T)
    for lo in range(0, T, 2):
        pair = range(lo, min(lo + 2, T))
        pot[:L, :len(pair)] = s[lo:pair.stop].T
        pot[:, len(pair):] = 0.0
        rng.block_sums(levels, prefix)
        # per trial: its index, lane views, chosen bars, uniforms and picks
        lanes = [(t, [lv.view(np.float64)[i::2] for lv in levels], sums[:, i],
                  [int(picks[0, t]) >> 1], U[1:, t].tolist(), [])
                 for i, t in enumerate(pair)]
        for step in range(1, len(U)):
            start, stop = L, 0
            for t, lv, c, chosen, u, out in lanes:
                total = c.item(-1)
                if not total > 0.0 or DEBUG_CHECKS:
                    _total(lv[0], c[-1:])
                if t == 0:
                    totals[step] = total
                j = rng.lane_pick(lv, c, u[step - 1])
                out.append(j)
                bar = j >> 1
                i = bisect_left(chosen, bar)
                if i == len(chosen) or chosen[i] != bar:
                    chosen.insert(i, bar)
                first = 2 * chosen[i - 1] + 2 if i else 0
                end = 2 * chosen[i + 1] if i + 1 < len(chosen) else L
                lower(lv[0], j, first, end)
                start, stop = min(start, first), max(stop, end)
            rng.block_sums(levels, prefix, start, stop)
        for t, *_, out in lanes:
            picks[1:, t] = out
        final[lo:pair.stop] = sums[-1, :len(pair)]
    return final


def _early_miss(cluster_ids, k, alpha, beta):
    """Per row of ``cluster_ids``: True iff none of its first floor(alpha*k)
    ids lies in clusters 1..floor(beta*k).  The floors allow for the binary
    representation of decimals like 0.1."""
    a, b = (math.floor(x * k + 1e-12) for x in (alpha, beta))
    return np.all(np.asarray(cluster_ids)[..., :a] > b, axis=-1)


def seed(inst: Instance, n_centers: int | None = None, ell: int | None = None,
         rng_seed: int = 0, trial_index: int = 0) -> SeedingTrace:
    """Run one seeding trial; fully deterministic given (rng_seed, trial_index).

    Samples by ``inst.ell``; an ``ell`` other than that, a trial index
    outside 0 .. 2**63 - 1 or a seed outside 0 .. 2**64 - 1 raises
    ConfigError.  Entry j of ``coverage_counts`` counts the distinct
    clusters of picks 0..j.
    """
    n = inst.k if n_centers is None else int(n_centers)
    if not 1 <= n <= inst.n_locations:
        raise ConfigError(f"n_centers must be in 1..{inst.n_locations}, got {n}")
    if ell is not None and ell != inst.ell:
        raise ConfigError(f"{inst.variant} seeding samples by ell={inst.ell}, got {ell}")
    _check_trials(trial_index, 1)
    rng.check_seed(rng_seed)
    picks, (final_m, final_e), (totals, exps) = _run_chunk(inst, n, rng_seed, trial_index,
                                                           trial_index + 1)
    centers = picks[:, 0]
    cluster_ids = inst._cluster[centers]
    # pick j adds coverage iff it is the first pick in its cluster
    new = np.isin(np.arange(n), np.unique(cluster_ids, return_index=True)[1])
    return SeedingTrace(
        k=inst.k,
        n_centers=n,
        centers=tuple(centers.tolist()),
        cluster_ids=tuple(cluster_ids.tolist()),
        coverage_counts=tuple(np.cumsum(new).tolist()),
        potentials=tuple(map(ExtScalar, totals.tolist(), exps.tolist())),
        final_cost=ExtScalar(float(final_m[0]), int(final_e[0])),
        rng_seed=rng_seed,
        trial_index=trial_index,
    )


def run_trials(inst: Instance, trials: int, rng_seed: int,
               alpha: float = 0.1, beta: float = 0.1,
               first_trial: int = 0) -> TrialArrays:
    """Batched trials ``first_trial .. first_trial + trials - 1``.

    Every trial places k centers by ``inst.ell`` sampling; output is
    identical to running each trial through :func:`seed` individually.
    Trials run in chunks of the :func:`rng.trial_chunks` grid, sized by
    ``rng.CHUNK_ELEMS`` = 2**16 elements per work array (163 trials at
    k=200), so a chunk's arrays stay cache-sized; chunking bounds memory
    only.  Every chunk runs on plain doubles, and raises CapacityError
    where its potentials after pick 0 fail the per-chunk check (see the
    module docstring).  Coverage (a trial's distinct clusters) and early
    miss are derived from each chunk's picks.  Raises ConfigError before
    any sampling.
    """
    _check_trials(first_trial, trials)
    rng.check_seed(rng_seed)
    check_fractions(alpha, beta)
    parts = []  # per chunk: the TrialArrays fields in order
    for lo, hi in rng.trial_chunks(first_trial, trials, inst.n_locations):
        picks, (final_m, final_e), _ = _run_chunk(inst, inst.k, rng_seed, lo, hi)
        cluster_ids = inst._cluster[picks.T]
        covered = np.zeros((hi - lo, inst.k), dtype=bool)
        covered[np.arange(hi - lo)[:, None], cluster_ids - 1] = True
        parts.append((np.arange(lo, hi, dtype=np.int64), np.count_nonzero(covered, axis=1),
                      final_m, final_e, _early_miss(cluster_ids, inst.k, alpha, beta)))
    return TrialArrays(*(np.concatenate(column) for column in zip(*parts)))


def _next_level(W, masks, P, pot, step):
    """Pick ``step`` of the subset DP: the next level's ``(masks, P, pot)``.

    The transitions run in the order of a dict loop over the states, each
    over its locations in ascending order, in blocks of states on the
    :func:`rng.trial_chunks` grid.  A next set is numbered at its first
    transition, ``np.add.at`` adds each transition's ``P * pot / tot`` to
    its set in that order, as the dict loop's ``+=`` does, and the set's
    potential is one ``np.minimum`` of its first parent's and the new
    location's row; after pick 0, whose potential is the weights, it is
    that row.
    """
    L = W.shape[1]
    size = math.comb(L, step + 1)
    nxt_masks, nxt_P, nxt_pot = np.empty(size, dtype=np.int64), np.zeros(size), np.empty((size, L))
    slot = np.full(1 << L, -1, dtype=np.int64)   # a next set's number, by bitmask
    tot = pot.sum(axis=1)
    n = 0
    for lo, hi in rng.trial_chunks(0, len(masks), L):
        s, i = np.nonzero(pot[lo:hi] > 0.0)
        s += lo
        keys = masks[s] | (1 << i)
        fresh = np.flatnonzero(slot[keys] < 0)
        at = fresh[np.sort(np.unique(keys[fresh], return_index=True)[1])]
        new = slice(n, n + len(at))
        n = new.stop
        slot[keys[at]] = np.arange(new.start, n)
        nxt_masks[new] = keys[at]
        nxt_pot[new] = W[i[at]] if step == 0 else np.minimum(pot[s[at]], W[i[at]])
        np.add.at(nxt_P, slot[keys], P[s] * pot[s, i] / tot[s])
    return nxt_masks[:n], nxt_P[:n], nxt_pot[:n]


def exact_distribution(inst: Instance):
    """Exact coverage distribution and expected cost ratio for tiny instances.

    Seeding places k centers by ``inst.ell`` sampling.  Sums over all
    reachable center sets with their exact pick probabilities
    (order integrated out, since future picks depend only on the chosen
    set).  Returns ``(CoverageDistribution, expected ratio of seeding cost
    to the discrete reference optimum)``.  Enumerates on every row of
    :meth:`Instance.plain_row_source`.

    A subset DP over arrays, one level per pick: each level holds its
    chosen sets as bitmasks, their probabilities and their potentials.  It
    works on blocks of sets and gives the same bits as a dict loop over
    the sets, each potential rebuilt from its set's rows (see
    :func:`_next_level`).  Raises CapacityError where the reachable sets,
    sum over j <= k of C(2k, j), exceed ``_EXACT_SET_LIMIT`` (k >= 11), and
    where the weights or the weighted rows span more than
    ``core.PLAIN_SEEDING_SPREAD`` binary orders.
    """
    from .instances import reference_costs

    L, k = inst.n_locations, inst.k
    sets = sum(math.comb(L, j) for j in range(k + 1))
    if sets > _EXACT_SET_LIMIT:
        raise CapacityError(
            f"{sets} reachable center sets exceed the exact-oracle limit {_EXACT_SET_LIMIT}")
    rows, F = inst.plain_row_source()
    W, E = _enumerable((rows(np.arange(L)), F))
    w, _ = _enumerable(_plain(inst._w_m, inst._w_e))

    masks, P, pot = np.zeros(1, dtype=np.int64), np.ones(1), w[None, :]
    for step in range(k):
        masks, P, pot = _next_level(W, masks, P, pot, step)

    covered = np.zeros((len(masks), k), dtype=bool)
    for j, c in enumerate(inst._cluster):
        covered[:, c - 1] |= (masks >> j & 1).astype(bool)
    probs = np.bincount(covered.sum(axis=1), weights=P, minlength=k + 1)
    # one ratio per distinct cost, summed over the sets in level order
    opt = reference_costs(inst).discrete
    c_scaled, where = np.unique(pot.sum(axis=1), return_inverse=True)
    terms = P * np.array([ExtScalar(float(c), E).ratio(opt) for c in c_scaled])[where]
    return CoverageDistribution(k, probs), terms.cumsum()[-1]


def early_miss_event(trace: SeedingTrace, alpha: float, beta: float) -> bool:
    """True iff none of the first floor(alpha*k) centers lies in clusters
    1..floor(beta*k)."""
    check_fractions(alpha, beta)
    return bool(_early_miss(trace.cluster_ids, trace.k, alpha, beta))
