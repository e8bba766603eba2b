"""Counter-based uniform variates with per-trial substreams.

The generator is SplitMix64 (Steele, Lea & Flood): the j-th raw draw of a
stream with state ``base`` is ``mix64(base + j * GAMMA)`` where ``mix64``
is the standard 64-bit finalizer and GAMMA the golden-ratio increment.
Stream state is derived only from ``(seed, trial_index)``, so every trial
reproduces the same variates whether it runs alone, inside a vectorized
batch, or on any worker - the contract all experiment determinism rests on.

Uniforms take the top 53 bits of a raw draw, giving values in [0, 1).

Every weighted pick, seeding's and the biased urn's, and every potential
sum seeding and ``core.cost`` report, follow one pick rule with one
summation order: a row is summed in aligned blocks of BLOCK locations,
each by a pairwise tree, and the block sums in order; the pick finds its
block by the block prefix and its location by a descent of the block's
tree (:func:`block_tree`, :func:`block_pick`, :func:`lane_pick`).  The
tree levels are elementwise adds over whole chunks, so no step waits on
one serial add chain per row.  The block prefix of R rows is stored
blocks-major, (n_blocks, R), with every row's total in ``prefix[-1]``:
its sums, the pick's target and its block search run along contiguous
vectors of R trials.  Rows of fewer than ``_COLUMN_BLOCKS`` blocks add
the prefix one column of block sums at a time; longer rows, and a tree of
one row, accumulate it down the blocks axis, with the same bits.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

ALGORITHM = "splitmix64-counter/v1"

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U_GAMMA = np.uint64(GAMMA)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)
_TO_UNIT = 2.0 ** -53
_TINY = float(np.nextafter(0.0, 1.0))   # the least pick target

# The one chunking constant: a chunk of any batched trial loop (and of the
# centers core.cost streams, and of the rows trials.csv is written in) holds
# at most this many elements of its (trials, row_elems) work array; a
# trials.csv reader's memo holds at most this many row remainders, the text
# after the trial index.  2**16 doubles (512 KiB) keep a seeding step's
# arrays near cache size.
CHUNK_ELEMS = 1 << 16


def mix64(z: int) -> int:
    """Scalar SplitMix64 finalizer on Python ints (reference path)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _SH30)) * _U_MIX1
    z = (z ^ (z >> _SH27)) * _U_MIX2
    return z ^ (z >> _SH31)


def check_seed(seed: int) -> None:
    """ConfigError unless ``seed`` lies in 0 .. 2**64 - 1.

    The streams read a seed modulo 2**64, so two seeds outside that range
    that differ by a multiple of it would give the same variates.
    """
    if not 0 <= seed <= _MASK:
        raise ConfigError(f"seed must lie in 0..2**64 - 1, got {seed}")


def stream_base(seed: int, trial_index: int) -> int:
    return mix64((mix64(seed ^ GAMMA) + trial_index) & _MASK)


def trial_chunks(first: int, count: int, row_elems: int):
    """Yield ``(lo, hi)`` ranges covering trials ``first .. first + count - 1``.

    Each range holds ``max(1, CHUNK_ELEMS // row_elems)`` trials, the last
    one possibly fewer.  Every trial has its own substream, so the grid
    bounds memory only and never changes a result.
    """
    step = max(1, CHUNK_ELEMS // row_elems)
    end = first + count
    for lo in range(first, end, step):
        yield lo, min(lo + step, end)


def uniform_matrix(seed: int, trial_indices: np.ndarray, n: int) -> np.ndarray:
    """Row t = first ``n`` uniforms of the (seed, trial_indices[t]) stream."""
    trials = np.asarray(trial_indices, dtype=np.uint64)
    base = _mix64_np(np.uint64(mix64(seed ^ GAMMA)) + trials)
    steps = (np.arange(1, n + 1, dtype=np.uint64) * _U_GAMMA)[None, :]
    raw = _mix64_np(base[:, None] + steps)
    return (raw >> _SH11).astype(np.float64) * _TO_UNIT


# The pick rule's block size: every potential sum is a sequential sum of
# pairwise-tree sums over aligned blocks of this many locations.
BLOCK = 16
_LEVELS = BLOCK.bit_length() - 1


def _padded(n: int) -> int:
    """``n`` rounded up to a multiple of BLOCK."""
    return -(-n // BLOCK) * BLOCK


def block_tree(rows: np.ndarray):
    """``(levels, prefix)``: the sums of the pick rule over the rows of ``rows``.

    ``rows`` is (R, L), nonnegative, float64 or complex128 (two rows side
    by side, one per lane).  ``levels[0]`` holds the rows back to back,
    each zero-padded to ``_padded(L)`` locations; ``levels[l]`` entry i is
    ``levels[l-1][2i] + levels[l-1][2i+1]``, so ``levels[-1]`` holds every
    block's pairwise-tree sum.  ``prefix`` is blocks-major,
    (_padded(L) // BLOCK, R): column r holds row r's block sums, added in
    order, so ``prefix[-1]`` holds every row's total, contiguous.
    :func:`block_sums` refills both after the leaves change.
    """
    R, L = rows.shape
    leaves = np.zeros((R, _padded(L)), dtype=rows.dtype)
    leaves[:, :L] = rows
    levels = [leaves.ravel()] + [np.empty(leaves.size >> l, dtype=rows.dtype)
                                 for l in range(1, _LEVELS + 1)]
    prefix = np.empty((leaves.shape[1] // BLOCK, R), dtype=rows.dtype)
    block_sums(levels, prefix)
    return levels, prefix


# Rows of fewer blocks than this get the block prefix one column of R
# block sums at a time; longer rows, and a tree of one row, one accumulate
# down the blocks axis.  Both add the same terms in the same order.
# Prefix alone, chunks of CHUNK_ELEMS // (16 * blocks) rows, best of 9
# (2-core Xeon VM, numpy 2.4):
# 2 blocks 3.7 against 29 us, 12 blocks 10.9 against 15.0, 16 blocks 14.1
# against 14.5, 17 blocks 14.5 against 14.3, 25 blocks 19.5 against 13.5.
_COLUMN_BLOCKS = 17


def block_sums(levels, prefix, lo: int = 0, hi: int | None = None):
    """Refill ``levels`` over the blocks holding leaves ``lo .. hi-1``, then
    the whole ``prefix``.

    Each tree level is one elementwise add over strided views, and the
    prefix one pass in the form ``_COLUMN_BLOCKS`` chooses.  Every entry
    adds the same terms in the same order as a whole-row pass.
    """
    lo -= lo % BLOCK
    hi = len(levels[0]) if hi is None else _padded(hi)
    src = levels[0][lo:hi]
    for l in range(1, _LEVELS + 1):
        dst = levels[l][lo >> l:hi >> l]
        np.add(src[::2], src[1::2], out=dst)
        src = dst
    nb, R = prefix.shape
    s = levels[-1].reshape(R, nb)
    if 1 < R and nb < _COLUMN_BLOCKS:
        np.copyto(prefix[0], s[:, 0])
        for j in range(1, nb):
            np.add(prefix[j - 1], s[:, j], out=prefix[j])
    else:
        np.add.accumulate(s.T, axis=0, out=prefix)


def block_pick(levels, prefix, u):
    """The pick rule, one pick per entry of ``u``: on row t of a
    :func:`block_tree`, or on its one row for every u.

    The target is ``max(u * total, _TINY)``.  The block is the count of
    block prefixes below it; the pick then descends the block's tree from
    ``acc``, the prefix before the block (0 for the first), going right iff
    ``acc + left < target`` and the right sum is positive, and adding
    ``left`` to ``acc`` when it does.  The block's sum is positive, and so,
    by those two conditions, is every node the descent reaches: the pick
    lands on a positive weight, never on padding or a chosen center.  A
    target landing exactly on a sum takes the lower index.
    """
    nb, R = prefix.shape
    row = np.arange(len(u)) if R > 1 else 0
    target = np.maximum(u * prefix[-1], _TINY)
    # the block prefixes are nondecreasing, and the last one reaches the target
    b = np.less(prefix, target).sum(axis=0)
    acc = np.where(b > 0, prefix.ravel().take((b - 1) * R + row), 0.0)
    g = row * nb + b
    for level in levels[-2::-1]:
        # the children of each trial's node g
        pair = level.reshape(-1, 2).take(g, axis=0)
        s = acc + pair[:, 0]
        go = (s < target) & (pair[:, 1] > 0.0)
        acc = np.where(go, s, acc)
        g += g
        g += go
    return g - row * (len(levels[0]) // R)


def lane_pick(levels, prefix, u: float) -> int:
    """:func:`block_pick` for one row and one uniform: ``levels`` and
    ``prefix`` are 1-D views of one row, strided or not (a lane of the
    interleaved buffers of two trials), with the same bits."""
    target = max(u * prefix.item(-1), _TINY)
    b = int(prefix.searchsorted(target))
    acc, g = prefix.item(b - 1) if b else 0.0, b
    for level in levels[-2::-1]:
        g *= 2
        left, right = level[g:g + 2].tolist()
        if acc + left < target and right > 0.0:
            acc += left
            g += 1
    return g

