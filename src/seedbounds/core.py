"""Weighted planar point sets, distance-power costs, and coverage accounting.

Locations are the 2k distinct points of an instance, stored only as
packed (mantissa, exponent) numpy columns with the same invariants as
ExtScalar, weights included, so clusters whose sizes shrink geometrically
stay exact.  All distance and cost arithmetic runs on them;
``WeightedLocation`` and ExtScalar appear at the API edge only.

Seeding, :func:`cost` and the enumeration oracles read weighted rows
``weight_i * dist(j, i)**ell``, each row source in one form.  Packed rows
(:meth:`Instance.weighted_row_source`) come from an instance's bar-gap
kernel, or from the distance formula, ``Instance._weighted_rows``, for an
instance without one.  Plain doubles (:meth:`Instance.plain_row_source`)
come from one row cache per instance, built on first use: the kernel above
``_MATRIX_MAX_ENTRIES`` entries, else the full (2k, 2k) matrix as plain
doubles only, gathered from the kernel's plain rows in one call, or
converted from the explicit rows, block by block, for an instance without
a kernel.  At kmeans k=1000 the row cache holds 30.9 MiB.

Every packed operation depends only on mantissas and exponent
differences, so where every bar from bar H on has the previous bar's
packed x and y times 2 and its weights times 2**-ell, W[j+2, i+2] equals
W[j, i] bit for bit for j and i in those bars.  One row per end over every
bar gap then serves every center's columns in bars >= H; on
generated instances the run starts at cluster 55, below which
x = (2**i - 2) * r is not a scaled power of two.  The rows of the centers
in bars < H come from one near block over the columns of bars < S, the
bar from which (about cluster 109 on) a center's columns in bars < H are
the previous bar's with exponent +ell; from bar S - 1 on those rows are
constant.  The same block, transposed, gives every other center's columns
in bars < H: weights that share a mantissa make W[j, i] equal W[i, j]
times 2**(exponent of weight_i - exponent of weight_j).  The kernel build
verifies the head shift and the transpose over bars H .. S-1 instead of
assuming them; an instance that fails the transpose keeps the full
matrix.  The head shift is computed up to the first absorbed bar, one
whose coordinates the head locations leave unchanged (packed
x_j - x_i = x_j and y_j - y_i = y_j exactly), about cluster 108 on
generated instances: from it on every bar is absorbed and its head
columns follow from its own coordinates, which the tail doubles, so
the check over every later bar is known to pass (:func:`_head_shift_start`).
The build also checks, on the kernel's few distinct values, whether every
two adjacent bars are dominant: on every column left of the pair the
right bar's two plain values are at least the left bar's, and on every
column right of it the reverse (:func:`_dominant`).  The kernel records
the answer, and where it holds, seeding updates only the bars between a
pick's chosen neighbours (:meth:`Instance.interval_lowering`).

The plain rows are every value scaled by one 2**-F with
F = min(largest exponent, smallest nonzero exponent + ``PLAIN_SEEDING_SPREAD``)
over every value the cache serves, so every nonzero value is at least
2**-PLAIN_SEEDING_SPREAD and values beyond the double range are +inf.  The
kernel holds its near block only as such doubles; the build checks that
they give back the packed values exactly.  The enumeration oracles take
the plain rows only where they have no value of 2 or more (a spread of at
most ``PLAIN_SEEDING_SPREAD`` binary orders, F the largest exponent); they
raise CapacityError elsewhere.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import rng
from .errors import CapacityError
from .extfloat import ExtScalar

__all__ = [
    "TOP",
    "BOTTOM",
    "ELL",
    "WeightedLocation",
    "Instance",
    "dist_pow",
    "cost",
    "coverage",
    "write_instance_csv",
]

TOP = "top"
BOTTOM = "bottom"

# Distance power of each variant: seeding samples by D**ell and the cost sums
# weight * D**ell with the same ell (squared cost for kmeans, linear for kmedian).
ELL = {"kmeans": 2, "kmedian": 1}

# Sentinel exponent for exact zeros inside packed arrays; far below any real
# exponent so lexicographic (exponent, mantissa) comparison stays correct.
_SENT = -(1 << 40)

# Exponent gaps are clipped here before ldexp; anything further apart than
# the double range contributes exactly nothing to a sum.
_MIN_SHIFT = -1100

# The plain row cache is the full (2k, 2k) matrix of plain doubles, gathered
# from the bar-gap kernel's plain rows, up to this many entries (k <= 1024) and
# the kernel above it; both hold the bits of Instance._weighted_rows (weight
# times distance power) at one scale, the kernel because every packed
# operation is exact under a power-of-two scale.
_MATRIX_MAX_ENTRIES = 1 << 22

# Plain-double rows keep every nonzero value at least 2**-PLAIN_SEEDING_SPREAD:
# a potential in [2**-PLAIN_SEEDING_SPREAD, 2), and u * total for any uniform
# u >= 2**-53, is then a normal double.
PLAIN_SEEDING_SPREAD = 1022 - 53


# ---------------------------------------------------------------------------
# packed-array arithmetic: mantissa in +/-[1,2) or 0.0, int64 exponent
# ---------------------------------------------------------------------------

def _norm(m, e):
    fm, fe = np.frexp(m)
    mm = 2.0 * fm
    ee = np.asarray(e + fe.astype(np.int64) - 1, dtype=np.int64)
    ee = np.where(mm == 0.0, _SENT, ee)
    return mm, ee


def _shift_to(m, e, E):
    return np.ldexp(m, np.maximum(e - E, _MIN_SHIFT).astype(np.int32))


def _ext_sub(am, ae, bm, be):
    E = np.maximum(ae, be)
    return _norm(_shift_to(am, ae, E) - _shift_to(bm, be, E), E)


def _ext_add(am, ae, bm, be):
    E = np.maximum(ae, be)
    return _norm(_shift_to(am, ae, E) + _shift_to(bm, be, E), E)


def _ext_mul(am, ae, bm, be):
    return _norm(am * bm, ae + be)


def _ext_sqrt(m, e):
    odd = (e & 1).astype(np.int64)
    mm = np.sqrt(m * np.where(odd == 1, 2.0, 1.0))
    ee = (e - odd) >> 1
    ee = np.where(mm == 0.0, _SENT, ee)
    return mm, ee


def _scaled_exp(m, e, s):
    """Exponents of packed values times 2**s; exact zeros keep the sentinel."""
    return np.where(m == 0.0, e, e + s)


def _ext_min_into(m1, e1, m2, e2):
    take = (e2 < e1) | ((e2 == e1) & (m2 < m1))
    np.copyto(m1, m2, where=take)
    np.copyto(e1, e2, where=take)


def _scaled_totals(m, e):
    """Scale each row by its max exponent and sum it by the pick rule.

    ``m`` and ``e`` are one row or (R, L) rows.  Returns the
    :func:`rng.block_tree` ``(levels, prefix)`` of the scaled rows and the
    max exponent per row: the total of row r is ``prefix[-1, r] * 2**E[r]``.
    Entries more than ~1100 binary orders below the max flush to zero,
    exactly as scalar extended addition would drop them.
    """
    m, e = np.atleast_2d(m), np.atleast_2d(e)
    E = e.max(axis=-1)
    return (*rng.block_tree(_shift_to(m, e, E[:, None])), E)


def _pack_locations(locs):
    """Packed (mantissa, exponent) pairs of the x, signed y and weight columns."""
    def pack(values, signs=1.0):
        m = np.array([v.m for v in values]) * signs
        e = np.array([v.e if v.m else _SENT for v in values], dtype=np.int64)
        return m, e
    return (pack([loc.x for loc in locs]),
            pack([loc.y_mag for loc in locs], np.array([loc.y_sign for loc in locs])),
            pack([loc.weight for loc in locs]))


def _distpow(ax, ay, bx, by, ell):
    """dist(a, b) ** ell elementwise from packed (mantissa, exponent) coordinates."""
    dxm, dxe = _ext_sub(*ax, *bx)
    dym, dye = _ext_sub(*ay, *by)
    dm, de = _ext_add(*_norm(dxm * dxm, dxe + dxe), *_norm(dym * dym, dye + dye))
    if ell == 1:
        dm, de = _ext_sqrt(dm, de)
    return dm, de


def _as_plain(m, e, F):
    """Packed values as doubles scaled by 2**-F; values too large for a double
    become +inf, which is exact wherever they only meet a finite minimum."""
    with np.errstate(over="ignore"):
        return _shift_to(m, e, F)


def _plain_scale(nz):
    """F for nonzero exponents ``nz``: the largest, or the smallest plus
    ``PLAIN_SEEDING_SPREAD`` if that is less; 0 if there are none."""
    return int(min(nz.max(), nz.min() + PLAIN_SEEDING_SPREAD)) if nz.size else 0


def _plain(m, e):
    """``(values, F)``: packed values as doubles scaled by 2**-F (:func:`_plain_scale`).

    Where the nonzero values span at most ``PLAIN_SEEDING_SPREAD`` binary
    orders, F is the largest exponent and every value is below 2.
    """
    F = _plain_scale(e[m != 0.0])
    return _as_plain(m, e, F), F


def _enumerable(plain):
    """``plain`` for the enumeration oracles; CapacityError where it holds a
    value of 2 or more (a spread beyond ``PLAIN_SEEDING_SPREAD``)."""
    if not plain[0].max() < 2.0:
        raise CapacityError(f"values span more than {PLAIN_SEEDING_SPREAD} binary orders,"
                            " beyond the plain-double view the oracles enumerate on")
    return plain


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightedLocation:
    """One end of a vertical cluster bar: a planar point with multiplicity.

    ``y_mag`` is the vertical offset magnitude; ``end_id`` carries its sign
    (top = +, bottom = -).  Coordinates are in units of the bar length
    parameter and may exceed the native float range, hence ExtScalar.
    """

    cluster_id: int
    end_id: str
    x: ExtScalar
    y_mag: ExtScalar
    weight: ExtScalar

    def __post_init__(self):
        if self.end_id not in (TOP, BOTTOM):
            raise ValueError(f"end_id must be {TOP!r} or {BOTTOM!r}")
        if self.weight.is_zero:
            raise ValueError("weight must be positive")

    @property
    def y_sign(self) -> float:
        return 1.0 if self.end_id == TOP else -1.0


class Instance:
    """A dataset of 2k weighted locations plus its parameters.

    Immutable after construction.  Holds the locations only as the packed
    columns every hot path reads: ``_x``, ``_y`` (a bottom end's mantissa
    carries the sign bit, -0.0 at zero height), ``_w_m``/``_w_e`` and
    ``_cluster``; the generators write them directly.  Builds on first use
    its bar-gap kernel, if it has one, which serves the packed rows at any
    size, and the plain row cache: the kernel above ``_MATRIX_MAX_ENTRIES``
    entries, and up to it or without a kernel the full matrix of plain
    doubles (module docstring).  All of it is plain arrays, so an instance
    pickles as them.
    """

    def __init__(self, locations: Iterable[WeightedLocation], k: int, m: float,
                 r: float, variant: str):
        if variant not in ELL:
            raise ValueError(f"unknown variant {variant!r}")
        locs = tuple(locations)
        if len(locs) != 2 * k:
            raise ValueError("an instance needs exactly 2k locations")
        seen = set()
        for loc in locs:
            key = (loc.cluster_id, loc.end_id)
            if not 1 <= loc.cluster_id <= k:
                raise ValueError(f"cluster_id {loc.cluster_id} outside 1..{k}")
            if key in seen:
                raise ValueError(f"duplicate location for cluster {key}")
            seen.add(key)
        self._init_columns(k, m, r, variant,
                           np.array([loc.cluster_id for loc in locs], dtype=np.int64),
                           *_pack_locations(locs))

    def _init_columns(self, k, m, r, variant, cluster, x, y, w):
        """Store the parameters and the packed columns, unchecked: the one
        initializer of hand-built and generated instances."""
        self.k, self.m, self.r, self.variant = k, float(m), float(r), variant
        self._cluster, self._x, self._y, (self._w_m, self._w_e) = cluster, x, y, w
        # the plain row cache (_Matrix or _BarGapKernel) and the kernel or
        # None, both built on first use
        self._rows = self._kern = None
        return self

    @property
    def locations(self) -> tuple[WeightedLocation, ...]:
        """The locations, rebuilt from the packed columns on each access (for
        :func:`dist_pow`, :func:`write_instance_csv` and callers that want
        objects; nothing else reads them)."""
        ext = lambda m, e: map(ExtScalar, np.abs(m).tolist(), e.tolist())
        ends = np.where(np.signbit(self._y[0]), BOTTOM, TOP).tolist()
        return tuple(map(WeightedLocation, self._cluster.tolist(), ends, ext(*self._x),
                         ext(*self._y), ext(self._w_m, self._w_e)))

    @property
    def ell(self) -> int:
        """Distance exponent of the variant's cost function."""
        return ELL[self.variant]

    @property
    def n_locations(self) -> int:
        return len(self._cluster)

    # -- packed-array machinery -------------------------------------------

    def distpow_rows(self, idxs: np.ndarray, cols=slice(None)):
        """dist(loc[idxs[t]], loc[i]) ** ell for i in ``cols``, packed.

        Output shape is ``idxs.shape + (number of columns,)``; the default
        takes all 2k locations.
        """
        idxs = np.asarray(idxs, dtype=np.int64)
        at = lambda m, e: (m[idxs][..., None], e[idxs][..., None])
        of = lambda m, e: (m[cols], e[cols])
        return _distpow(at(*self._x), at(*self._y), of(*self._x), of(*self._y), self.ell)

    def _weighted_rows(self, idxs: np.ndarray, cols=slice(None)):
        """weight_i * dist(loc[idxs[t]], loc[i]) ** ell, shaped like distpow_rows."""
        return _ext_mul(*self.distpow_rows(idxs, cols), self._w_m[cols], self._w_e[cols])

    def _row_cache(self):
        """The plain row cache (class docstring), built with the kernel on
        first use."""
        if self._rows is None:
            kern = self._kern = _bar_gap_kernel(self)
            small = self.n_locations ** 2 <= _MATRIX_MAX_ENTRIES
            self._rows = _matrix(self, kern) if small or not kern else kern
        return self._rows

    def weighted_row_source(self):
        """``rows(idxs)`` -> (mantissa, exponent) of weight_i * dist(idxs[t], i)**ell.

        ``idxs`` is a flat index array.  The rows come from the instance's
        bar-gap kernel, or from :meth:`_weighted_rows` for an instance
        without one; the row cache is built here, so callers allocate their
        own work arrays after it.  Every row holds the bits of
        :meth:`_weighted_rows`, weight_i times :meth:`distpow_rows`.
        """
        self._row_cache()
        return self._kern.packed_rows() if self._kern else self._weighted_rows

    def plain_row_source(self):
        """``(rows, F)``: the rows of :meth:`weighted_row_source` as doubles
        scaled by 2**-F, from the row cache: the kernel's plain rows or the
        full matrix, which holds plain doubles only.

        F is :func:`_plain_scale` of every nonzero exponent the rows hold, so
        every nonzero value is at least 2**-PLAIN_SEEDING_SPREAD; values
        beyond the double range are +inf.
        """
        cache = self._row_cache()
        return cache.plain_rows(), cache.scale

    def interval_lowering(self):
        """:meth:`_BarGapKernel.lowering` where the row cache is a bar-gap
        kernel whose adjacent bars are all dominant (:func:`_dominant`),
        else None.  A center's plain row then lowers no potential outside
        the bars strictly between its bar's chosen neighbours: there it is
        at least the row of the neighbour's chosen end."""
        cache = self._row_cache()
        return cache.lowering() if isinstance(cache, _BarGapKernel) and cache.dominant else None


class _Matrix(NamedTuple):
    """The full (2k, 2k) matrix W[j, i] = weight_i * dist(j, i)**ell as
    ``plain`` doubles scaled by 2**-scale."""

    plain: np.ndarray
    scale: int

    def plain_rows(self):
        """``rows(idxs)`` -> the plain rows of a flat index array."""
        return self.plain.__getitem__


def _matrix(inst: Instance, kern) -> _Matrix:
    """The full matrix: every plain row of the kernel, at its scale, or
    without a kernel the explicit rows as :func:`_plain` converts them, in
    two passes over row blocks on the :func:`rng.trial_chunks` grid, so no
    temporary spans the whole matrix.  The first takes the extremes of the
    nonzero exponents, the only ones :func:`_plain_scale` reads; the
    second converts each block into ``plain``."""
    L = inst.n_locations
    if kern:
        return _Matrix(kern.plain_rows()(np.arange(L)), kern.scale)
    blocks, ends = list(rng.trial_chunks(0, L, L)), []
    for lo, hi in blocks:
        m, e = inst._weighted_rows(np.arange(lo, hi))
        nz = e[m != 0.0]
        ends += [nz.min(), nz.max()] if nz.size else []
    F, plain = _plain_scale(np.array(ends, dtype=np.int64)), np.empty((L, L))
    for lo, hi in blocks:
        plain[lo:hi] = _as_plain(*inst._weighted_rows(np.arange(lo, hi)), F)
    return _Matrix(plain, F)


class _BarGapKernel(NamedTuple):
    """Weighted rows of an instance whose bars from ``tail`` on repeat by scale.

    ``tail_m/e[s]`` is the row of end s (0 top, 1 bottom) over bar gaps
    -(n-1) .. n-1, n = k - tail bars, after h = 2 * tail zeros: gap g, end
    s' at column h + 2 * (n-1+g) + s'; ``tail_plain`` is it as doubles
    scaled by 2**-scale.  ``near``, as such doubles, holds the rows of the
    centers in bars < tail over the columns of bars < shift, from whose
    last column pair on each of those rows is constant.  ``index[j]``
    places location j: its end, the start of its row in the tail rows (0
    for a center left of the tail) and its column in ``near``, the same end
    in bar min(its bar, shift-1).  A center right of the tail takes that
    column, transposed and times 2**(w_e[i] - w_e[j]), as its columns i of
    bars < tail; ``w_e`` holds the weight exponents as int32, the type of
    ldexp's exponent, so that shift is one subtraction.  ``dominant`` is
    True where every two adjacent bars (j // 2) are dominant
    (:func:`_dominant`); it is computed once, at the build, and pickles with
    the kernel.
    """

    index: np.ndarray
    w_e: np.ndarray
    tail_m: np.ndarray
    tail_e: np.ndarray
    tail_plain: np.ndarray
    near: np.ndarray
    scale: int
    dominant: bool = False

    def _gather(self, *tails):
        """``gather(idxs)`` for a flat index array: each row's values from
        each of ``tails`` (rows laid out as ``tail_m``), right in the columns
        of bars >= tail; its head columns as near values with its exponent
        shift; and which rows lie left of the tail."""
        h = len(self.near)
        wins = [sliding_window_view(t, len(self.index), axis=1) for t in tails]

        def gather(idxs):
            end, off, col = self.index[idxs].T
            shift = self.w_e[:h] - self.w_e[idxs, None]
            return *(w[end, off] for w in wins), self.near[:, col].T, shift, idxs < h

        return gather

    def packed_rows(self):
        """``rows(idxs)`` -> the packed (mantissa, exponent) rows of a flat
        index array."""
        h, cols, gather = len(self.near), self.index[:, 2], self._gather(self.tail_m, self.tail_e)

        def rows(idxs):
            idxs = np.asarray(idxs, dtype=np.int64)
            m, e, head, shift, near = gather(idxs)
            m[:, :h], e[:, :h] = _norm(head, self.scale + shift)
            if near.any():
                m[near], e[near] = _norm(self.near[idxs[near]][:, cols], self.scale)
            return m, e

        return rows

    def plain_rows(self):
        """``rows(idxs)`` -> the rows of a flat index array as doubles scaled
        by 2**-scale."""
        h, cols, gather = len(self.near), self.index[:, 2], self._gather(self.tail_plain)

        def rows(idxs):
            idxs = np.asarray(idxs, dtype=np.int64)
            out, head, shift, near = gather(idxs)
            with np.errstate(over="ignore"):
                np.ldexp(head, shift, out=out[:, :h])
            if near.any():
                out[near] = self.near[idxs[near]][:, cols]
            return out

        return rows

    def lowering(self):
        """``lower(s, j, lo, hi)``: ``s[lo:hi]`` becomes its elementwise
        minimum with the plain row of center j over columns lo .. hi-1, the
        values of :meth:`plain_rows`, read as a slice of j's tail row and,
        left of the tail, of its head columns or its near row."""
        h, near, tail, w_e = len(self.near), self.near, self.tail_plain, self.w_e
        cols = self.index[:, 2]
        end, off = self.index[:, 0].tolist(), self.index[:, 1].tolist()

        def lower(s, j, lo, hi):
            if j < h:
                np.minimum(s[lo:hi], near[j, cols[lo:hi]], out=s[lo:hi])
                return
            if hi > h:
                a, o = max(lo, h), off[j]
                v = s[a:hi]
                np.minimum(v, tail[end[j], o + a:o + hi], out=v)
            if lo < h:
                b = min(hi, h)
                with np.errstate(over="ignore"):
                    head = np.ldexp(near[lo:b, cols[j]], w_e[lo:b] - w_e[j])
                np.minimum(s[lo:b], head, out=s[lo:b])

        return lower


def _dominant(kern: _BarGapKernel) -> bool:
    """True iff every two adjacent bars a, a+1 (bar j // 2) of the kernel's
    plain rows are dominant: on every column in bars <= a the smaller of
    bar a+1's two values is at least the larger of bar a's, and on every
    column in bars >= a+1 the smaller of bar a's is at least the larger of
    bar a+1's.

    Reads O(2k + h * S) values, h head locations and S near-block bars:
    the tail rows against themselves one bar over, which is every pair of
    tail bars on the tail columns; every pair of head bars on the near
    block's 2S distinct columns; the two rows of the junction pair, bars
    tail-1 and tail, in full; and the head columns of bars tail .. S.  From
    bar S-1 on those columns are bar S-1's with the exponent shifted by
    ell per bar (the weights' exponent falls by ell per tail bar), and
    every value the kernel serves is 0, a normal double or +inf.  So a
    pair's comparison can only turn from false to true on the way right by
    both sides reaching +inf, which keeps them there, and the pair (S-1, S)
    stands for every later one.
    """
    h, L, S = len(kern.near), len(kern.index), kern.near.shape[1] // 2
    # a tail center one bar to the right reads its tail row two columns
    # left: its columns left of its own bar run up to L, the others from L
    tmin, tmax = kern.tail_plain.min(axis=0), kern.tail_plain.max(axis=0)
    ok = np.all(tmin[h:L - 2] >= tmax[h + 2:L]) and np.all(tmin[L:] >= tmax[L - 2:-2])
    if not ok or not h:
        return bool(ok)

    def pairs(values, bars):
        # per pair of adjacent rows of bar ends: left of the pair's gap the
        # right bar's values dominate, right of it the left bar's
        v = values.reshape(-1, 2, values.shape[-1])
        lo, hi = v.min(axis=1), v.max(axis=1)
        left = bars[None, :] <= np.arange(len(v) - 1)[:, None]
        return bool(np.where(left, lo[1:] >= hi[:-1], lo[:-1] >= hi[1:]).all())

    j = np.arange(h, min(2 * S + 2, L))
    with np.errstate(over="ignore"):
        head = np.ldexp(kern.near[:, kern.index[j, 2]].T, kern.w_e[:h] - kern.w_e[j, None])
    junction = kern.plain_rows()(np.arange(h - 2, h + 2))
    return (pairs(kern.near, np.arange(2 * S) // 2)
            and pairs(junction, np.where(np.arange(L) < h, 0, 1))
            and pairs(head, np.full(h, -1)))


def _tail_start(inst: Instance) -> int:
    """First bar (0-based) of the translation-invariant tail; k if none.

    From that bar on, every bar's packed x and signed y are the previous
    bar's with exponent +1 and its weights the previous bar's with exponent
    -ell, mantissas equal.  A one-bar run shares no gap and counts as none.
    """
    def doubled(m, e, s):
        # location i + 2 (same end, next bar) is location i times 2**s
        return (m[2:] == m[:-2]) & (e[2:] == _scaled_exp(m[:-2], e[:-2], s))

    ok = doubled(*inst._x, 1) & doubled(*inst._y, 1) & doubled(inst._w_m, inst._w_e, -inst.ell)
    bad = np.flatnonzero(~(ok[0::2] & ok[1::2]))
    start = int(bad[-1]) + 1 if bad.size else 0
    return start if start < inst.k - 1 else inst.k


def _head_shift_start(inst: Instance, tail: int) -> int:
    """First bar B > tail (0-based) from which every bar's head columns are
    the previous bar's with exponent +ell, mantissas equal.

    Call a bar absorbed when, for both its ends j and every head location i
    (bars < tail), packed x_j - x_i and y_j - y_i are x_j and y_j exactly.
    Its head columns are then weight_i * |(x_j, y_j)|**ell, computed from
    its own coordinates only.  From the tail on every bar's packed x and y
    are the previous bar's with exponent +1 (:func:`_tail_start` checks
    it), so the bar after an absorbed one is absorbed too: x_i, shifted one
    more binary place, takes no more from x_j, and rounding is monotone.
    Its head columns are the absorbed bar's with exponent +ell, since every
    packed operation commutes with a power-of-two scale.  So the check
    stops at the first absorbed bar b0, found chunk by chunk on the
    :func:`rng.trial_chunks` grid: it streams the head columns of the
    centers in bars tail .. b0 + 1 on the grid :func:`cost` streams its
    centers on, the bars lo .. hi of each chunk overlapping the next chunk
    by one bar, and gives the B of the same check over every bar.  Without
    a head (tail 0) the first bar is absorbed.
    """
    k, h = inst.k, 2 * tail
    stop = k - 1   # the last bar to stream
    for lo, hi in rng.trial_chunks(tail, k - tail, inst.n_locations):
        j = np.arange(2 * lo, 2 * hi)
        absorbed = np.ones((hi - lo, 2 * h), dtype=bool)
        for m, e in (inst._x, inst._y):
            dm, de = _ext_sub(m[j, None], e[j, None], m[:h], e[:h])
            absorbed &= ((dm == m[j, None]) & (de == e[j, None])).reshape(hi - lo, 2 * h)
        first = np.flatnonzero(absorbed.all(axis=1))
        if first.size:
            stop = min(lo + int(first[0]) + 1, k - 1)
            break
    shift = tail + 1
    for lo, hi in rng.trial_chunks(tail, stop - tail, inst.n_locations):
        m, e = (a.reshape(hi + 1 - lo, 2, h) for a in
                inst._weighted_rows(np.arange(2 * lo, 2 * hi + 2), slice(0, h)))
        same = (m[1:] == m[:-1]) & (e[1:] == _scaled_exp(m[:-1], e[:-1], inst.ell))
        bad = np.flatnonzero(~same.all(axis=(1, 2)))
        if bad.size:
            shift = lo + int(bad[-1]) + 2
    return shift


def _bar_gap_kernel(inst: Instance):
    """The instance's :class:`_BarGapKernel`, or None when it has no tail or
    the near block does not serve its rows exactly."""
    k, tail = inst.k, _tail_start(inst)
    if tail == k:
        return None
    L, h, w_e = inst.n_locations, 2 * tail, inst._w_e
    # the last bar over the tail gives gaps -(n-1) .. 0, the first tail bar
    # over the bars right of it gaps 1 .. n-1
    left = inst._weighted_rows(np.array([L - 2, L - 1]), slice(h, L))
    right = inst._weighted_rows(np.array([h, h + 1]), slice(h + 2, L))
    pad = (np.zeros((2, h)), np.full((2, h), _SENT))
    tail_m, tail_e = (np.concatenate(parts, axis=1) for parts in zip(pad, left, right))
    shift = _head_shift_start(inst, tail)
    # columns of bars < tail, then of bars tail .. shift-1: two calls, each
    # about the size of the head block below, keep the build's memory peak
    near_m, near_e = (np.concatenate(parts, axis=1) for parts in zip(*(
        inst._weighted_rows(np.arange(h), cols) for cols in (slice(0, h), slice(h, 2 * shift)))))
    # the head columns of the centers in bars tail .. shift-1 must be the
    # near block's, transposed, with the weight exponents' difference added
    head_m, head_e = inst._weighted_rows(np.arange(h, 2 * shift), slice(0, h))
    if not (np.array_equal(near_m[:, h:].T, head_m) and np.array_equal(
            _scaled_exp(head_m, near_e[:, h:].T, w_e[:h] - w_e[h:2 * shift, None]), head_e)):
        return None
    # the last bar's head columns: bar shift-1's, shifted the most
    top = _scaled_exp(head_m[-2:], head_e[-2:], inst.ell * (k - shift))
    scale = _plain_scale(np.concatenate([e[m != 0.0] for m, e in (
        (tail_m, tail_e), (near_m, near_e), (head_m, head_e), (head_m[-2:], top))]))
    near = _as_plain(near_m, near_e, scale)
    if not all(map(np.array_equal, _norm(near, scale), (near_m, near_e))):
        return None

    j = np.arange(L)
    bar, end = j // 2, j % 2
    # tail bar b sits at gap b - bar; a center's row starts at gap tail - bar,
    # tail column h + 2 * (k-1-bar), which a window from 2 * (k-1-bar) puts at h
    off = np.where(bar < tail, 0, 2 * (k - 1 - bar))
    index = np.stack([end, off, np.minimum(j, 2 * (shift - 1) + end)], axis=1)
    kern = _BarGapKernel(index, w_e.astype(np.int32), tail_m, tail_e,
                         _as_plain(tail_m, tail_e, scale), near, scale)
    return kern._replace(dominant=_dominant(kern))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def dist_pow(p: WeightedLocation, q: WeightedLocation, ell: int) -> ExtScalar:
    """Euclidean distance between two locations raised to ell (1 or 2)."""
    if ell not in (1, 2):
        raise ValueError("ell must be 1 or 2")
    (xm, xe), (ym, ye), _ = _pack_locations((p, q))
    dm, de = _distpow((xm[:1], xe[:1]), (ym[:1], ye[:1]),
                      (xm[1:], xe[1:]), (ym[1:], ye[1:]), ell)
    return ExtScalar(float(dm[0]), int(de[0]))


def _validated_centers(inst: Instance, centers: Sequence[int]) -> np.ndarray:
    idx = np.asarray(tuple(centers), dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("center set must be a flat index sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= inst.n_locations):
        raise ValueError("center index out of range")
    if len(set(idx.tolist())) != idx.size:
        raise ValueError("center set contains duplicate indices")
    return idx


def cost(inst: Instance, centers: Sequence[int]) -> ExtScalar:
    """Sum over locations of weight * (min distance to a center)**ell.

    A location that is itself a center contributes exactly zero.  The
    centers stream in chunks on the :func:`rng.trial_chunks` grid; each
    chunk's minima go into the same two work arrays.  The sum follows the
    pick rule's order (:func:`rng.block_tree`), so the cost of a seeding
    run's first j centers is its normalizer before pick j, bit for bit.
    """
    idx = _validated_centers(inst, centers)
    if idx.size == 0:
        raise ValueError("center set must be nonempty")
    rows, L = inst.weighted_row_source(), inst.n_locations
    # the minimum is exact, so streaming the centers in chunks changes no bit
    m_min, e_min = np.empty(L), np.empty(L, dtype=np.int64)
    for lo, hi in rng.trial_chunks(0, idx.size, L):
        m, e = rows(idx[lo:hi])
        # per column: the least mantissa among the rows of the least exponent
        e.min(axis=0, out=e_min)
        np.copyto(m, np.inf, where=e != e_min)
        m.min(axis=0, out=m_min)
        if lo == 0:
            mm, me = m_min.copy(), e_min.copy()
        else:
            _ext_min_into(mm, me, m_min, e_min)
    _, prefix, E = _scaled_totals(mm, me)
    return ExtScalar(float(prefix[-1, 0]), int(E[0]))


def coverage(inst: Instance, centers: Sequence[int]):
    """(number of covered clusters, per-cluster covered flags).

    Cluster j is covered iff some center location belongs to it.
    """
    idx = _validated_centers(inst, centers)
    flags = np.zeros(inst.k, dtype=bool)
    if idx.size:
        flags[inst._cluster[idx] - 1] = True
    return int(flags.sum()), flags.tolist()


# ---------------------------------------------------------------------------
# instance CSV
# ---------------------------------------------------------------------------

def write_instance_csv(inst: Instance, path) -> None:
    """Write ``cluster_id,end_id,x,y,weight`` rows (coordinates in units of r).

    Numeric cells use the extended-scalar scientific text format; the y
    column carries a leading minus for bottom ends.
    """
    lines = [
        f"# variant={inst.variant} k={inst.k} m={inst.m:.15g} r={inst.r:.15g}",
        "cluster_id,end_id,x,y,weight",
    ]
    for loc in inst.locations:
        sign = "-" if loc.end_id == BOTTOM and not loc.y_mag.is_zero else ""
        lines.append(f"{loc.cluster_id},{loc.end_id},{loc.x.format_sci()},"
                     f"{sign}{loc.y_mag.format_sci()},{loc.weight.format_sci()}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
