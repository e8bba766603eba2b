"""Counter-based uniform variates with per-trial substreams.

The generator is SplitMix64 (Steele, Lea & Flood): the j-th raw draw of a
stream with state ``base`` is ``mix64(base + j * GAMMA)`` where ``mix64``
is the standard 64-bit finalizer and GAMMA the golden-ratio increment.
Stream state is derived only from ``(seed, trial_index)``, so every trial
reproduces the same variates whether it runs alone, inside a vectorized
batch, or on any worker - the contract all experiment determinism rests on.

Uniforms take the top 53 bits of a raw draw, giving values in [0, 1).
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


def weighted_pick(prefix: np.ndarray, u, target=None, hit=None, axis=-1):
    """Cumulative-inversion pick along the last axis, or down the columns.

    ``prefix`` must be the cumulative sum of nonnegative weights along the
    last axis, with a positive total, and ``u`` lie in [0, 1).  The pick is
    the count of prefix values below the target ``max(u * total, _TINY)``:
    such a prefix is nondecreasing and its last entry is at least the
    target, so that is the first index whose prefix value reaches it.  A
    boundary hit (u * total landing exactly on a prefix value) resolves to
    the lower index; the target is at least the smallest positive double,
    so leading zero-weight buckets are skipped.

    A 1-D prefix takes a scalar ``u`` (one pick) or a vector (one pick per
    entry) and counts by binary search, ``np.searchsorted(prefix, target,
    side="left")``; a 2-D prefix takes one ``u`` per row and counts by a
    compare and an argmax along it.  With ``axis=0`` a 2-D prefix holds its
    sums down the columns instead (one ``u`` and one pick per column, the
    totals in the last row), and the pick counts the values below the
    target down each column: a trials-minor layout picks as the row form
    does on the transposed copy.  For the 2-D forms, ``target`` (one entry per row, or
    per column) and ``hit`` (a bool array shaped like ``prefix``) are
    optional work arrays a caller that picks many times can own; the pick
    is the same without them.
    """
    if prefix.ndim == 1:
        # side="left", searchsorted's default, counts the values below; a
        # float u forms the target in Python floats, with the same bits
        if isinstance(u, float):
            return prefix.searchsorted(max(u * prefix.item(-1), _TINY))
        return prefix.searchsorted(np.maximum(u * prefix[-1], _TINY))
    if axis == 0:
        target = np.maximum(np.multiply(u, prefix[-1], out=target), _TINY, out=target)
        # a bool is one byte: summing the bytes into int32 counts spares the
        # buffered bool-to-int64 cast of .sum(axis=0), which is slower
        below = np.less(prefix, target, out=hit).view(np.uint8)
        return np.add.reduce(below, axis=0, dtype=np.int32)
    target = np.maximum(np.multiply(u, prefix[:, -1], out=target), _TINY, out=target)
    return np.greater_equal(prefix, target[:, None], out=hit).argmax(axis=-1)
