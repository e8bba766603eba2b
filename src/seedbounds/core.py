"""Weighted planar point sets, distance-power costs, and coverage accounting.

Locations are the 2k distinct points of a generated instance; every point
multiplicity is carried as an ExtScalar weight so clusters whose sizes
shrink geometrically stay exact.  All distance and cost arithmetic runs on
packed (mantissa, exponent) numpy arrays with the same invariants as
ExtScalar; the scalar type appears at API boundaries.

Seeding and :func:`cost` read weighted rows ``weight_i * dist(j, i)**ell``
from :meth:`Instance.weighted_row_source`: the cached (2k, 2k) matrix up
to ``_MATRIX_MAX_ENTRIES`` entries, a bar-gap kernel above it.  Every
packed operation depends only on mantissas and exponent differences, so
where every bar from bar H on has the previous bar's packed x and y times
2 and its weights times 2**-ell, W[j+2, i+2] equals W[j, i] bit for bit
for j and i in those bars.  One row per end over every bar gap then serves
every center's columns in bars >= H; on generated instances the run
starts at cluster 55, below which x = (2**i - 2) * r is not a scaled power
of two.  A center's columns in bars < H, once the center is far enough
right (from about cluster 109 on), are the previous bar's with exponent
+ell; the kernel build verifies that for every center instead of assuming
it.  Hand-built instances without such a run keep computing every row.

Seeding reads the same rows as plain doubles from
:meth:`Instance.plain_row_source`, every value scaled by one 2**-F with
F = min(largest exponent, smallest nonzero exponent + ``PLAIN_SEEDING_SPREAD``),
so every nonzero value is at least 2**-PLAIN_SEEDING_SPREAD and values
beyond the double range are +inf.  Up to the matrix cap that is the cached
matrix converted once; above it, a plain copy of the kernel's tail rows
plus its head columns, shifted and converted per row.  Rows the kernel
computes (centers left of its tail) come back None when a nonzero entry
falls below the 2**-PLAIN_SEEDING_SPREAD floor.  The enumeration oracles
read the matrix view, :meth:`Instance.plain_weighted_distpow`, only where
it has no value of 2 or more (a spread of at most ``PLAIN_SEEDING_SPREAD``
binary orders, F the largest exponent); they raise CapacityError elsewhere.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

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

# Weighted rows come from the cached (2k, 2k) matrix up to this many entries
# (k <= 1024) and from the bar-gap kernel above it; both hold the bits that
# distpow_rows computes, the kernel because every packed operation is exact
# under a common power-of-two scale (module docstring).
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


def _ext_min_over_rows(m, e):
    e_min = e.min(axis=0)
    masked = np.where(e == e_min[None, :], m, np.inf)
    return masked.min(axis=0), e_min


def _ext_min_into(m1, e1, m2, e2):
    take = (e2 < e1) | ((e2 == e1) & (m2 < m1))
    np.copyto(m1, m2, where=take)
    np.copyto(e1, e2, where=take)


def _scaled_totals(m, e):
    """Scale by the per-row max exponent and prefix-sum along the last axis.

    Returns (scaled weights, prefix sums, max exponent per row).  The total
    of a row is ``prefix[..., -1] * 2**E`` -- entries more than ~1100 binary
    orders below the max flush to zero, exactly as scalar extended addition
    would drop them.
    """
    E = e.max(axis=-1)
    s = _shift_to(m, e, E[..., None])
    prefix = np.cumsum(s, axis=-1)
    return s, prefix, E


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
    """``plain`` for the enumeration oracles; CapacityError where it is None
    or holds a value of 2 or more (a spread beyond ``PLAIN_SEEDING_SPREAD``)."""
    if plain is None or not plain[0].max() < 2.0:
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
    """A generated dataset: 2k weighted locations plus its parameters.

    Immutable after construction.  Packs coordinates and weights into
    (mantissa, exponent) arrays used by every cost/sampling hot path, and
    lazily caches the weighted rows seeding reads, packed and as plain
    doubles: the full matrix up to ``_MATRIX_MAX_ENTRIES`` entries, the
    bar-gap kernel above it.  The caches are plain arrays, so a built
    instance pickles with them.
    """

    def __init__(self, locations: Iterable[WeightedLocation], k: int, m: float,
                 r: float, variant: str):
        if variant not in ELL:
            raise ValueError(f"unknown variant {variant!r}")
        locs = tuple(locations)
        if len(locs) != 2 * k:
            raise ValueError("an instance needs exactly 2k locations")
        seen = {}
        for loc in locs:
            key = (loc.cluster_id, loc.end_id)
            if not 1 <= loc.cluster_id <= k:
                raise ValueError(f"cluster_id {loc.cluster_id} outside 1..{k}")
            if key in seen:
                raise ValueError(f"duplicate location for cluster {key}")
            seen[key] = loc
        self.locations = locs
        self.k = k
        self.m = float(m)
        self.r = float(r)
        self.variant = variant

        self._cluster = np.array([loc.cluster_id for loc in locs], dtype=np.int64)
        self._x, self._y, (self._w_m, self._w_e) = _pack_locations(locs)
        self._wd = None
        self._wd_plain = None  # (W, F) of the cached matrix
        self._kernel = None    # _BarGapKernel, or () where the instance has none

    @property
    def ell(self) -> int:
        """Distance exponent of the variant's cost function."""
        return ELL[self.variant]

    @property
    def n_locations(self) -> int:
        return len(self.locations)

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

    def weighted_distpow(self):
        """Cached (2k, 2k) matrix W[j, i] = weight_i * dist(j, i)**ell."""
        if self._wd is None:
            self._wd = self._weighted_rows(np.arange(self.n_locations))
        return self._wd

    def plain_weighted_distpow(self):
        """Cached ``(W, F)``: :meth:`weighted_distpow` as :func:`_plain` doubles
        scaled by 2**-F; None above ``_MATRIX_MAX_ENTRIES``.

        Where the nonzero entries span at most ``PLAIN_SEEDING_SPREAD``
        binary orders, F is the largest exponent and every value is below
        2; elsewhere the enumeration oracles refuse the view
        (:func:`_enumerable`).
        """
        if self.n_locations ** 2 > _MATRIX_MAX_ENTRIES:
            return None
        if self._wd_plain is None:
            self._wd_plain = _plain(*self.weighted_distpow())
        return self._wd_plain

    def _bar_gap(self):
        """The cached :class:`_BarGapKernel`, or () where the instance has none."""
        if self._kernel is None:
            self._kernel = _bar_gap_kernel(self) or ()
        return self._kernel

    def weighted_row_source(self):
        """``rows(idxs)`` -> (mantissa, exponent) of weight_i * dist(idxs[t], i)**ell.

        ``idxs`` is a flat index array.  Up to ``_MATRIX_MAX_ENTRIES``
        entries the rows come from the cached :meth:`weighted_distpow`
        matrix; larger instances read them from the cached bar-gap kernel
        (module docstring), computing only rows of centers left of its tail
        from :meth:`distpow_rows`.  Either cache is built here, so callers
        allocate their own work arrays after it.  Every row holds the bits
        :meth:`distpow_rows` would give.
        """
        if self.n_locations ** 2 <= _MATRIX_MAX_ENTRIES:
            wm, we = self.weighted_distpow()
            return lambda idxs: (wm[idxs], we[idxs])
        return self._kernel_rows if self._bar_gap() else self._weighted_rows

    def plain_row_source(self):
        """``(rows, F)``: the rows of :meth:`weighted_row_source` as doubles
        scaled by 2**-F, or None where the instance has no plain source.

        F is :func:`_plain_scale` of the cached matrix or of the bar-gap
        kernel, so every nonzero value the source holds is at least
        2**-PLAIN_SEEDING_SPREAD; values beyond the double range are +inf.
        Instances above ``_MATRIX_MAX_ENTRIES`` without a kernel have no
        plain source.  ``rows(idxs)`` returns None when a row it computes
        (a center left of the kernel's tail) has a nonzero value below
        that floor.
        """
        if self.n_locations ** 2 <= _MATRIX_MAX_ENTRIES:
            W, F = self.plain_weighted_distpow()
            return W.__getitem__, F
        kern = self._bar_gap()
        return (self._plain_kernel_rows, kern.scale) if kern else None

    def _kernel_rows(self, idxs: np.ndarray):
        """Packed rows for a flat ``idxs`` from the bar-gap kernel; centers
        left of its tail get :meth:`_weighted_rows`."""
        kern = self._kernel
        idxs = np.asarray(idxs, dtype=np.int64)
        out_m = np.empty((idxs.size, self.n_locations))
        out_e = np.empty((idxs.size, self.n_locations), dtype=np.int64)
        near, hm, he, shift = kern.fill(idxs, (kern.tail_m, out_m), (kern.tail_e, out_e))
        out_m[:, :2 * kern.tail] = hm
        out_e[:, :2 * kern.tail] = _scaled_exp(hm, he, shift)
        if near:
            out_m[near], out_e[near] = self._weighted_rows(idxs[near])
        return out_m, out_e

    def _plain_kernel_rows(self, idxs: np.ndarray):
        """:meth:`_kernel_rows` as doubles scaled by 2**-kern.scale; None when
        a computed row has a nonzero value below 2**-PLAIN_SEEDING_SPREAD."""
        kern = self._kernel
        idxs = np.asarray(idxs, dtype=np.int64)
        out = np.empty((idxs.size, self.n_locations))
        near, hm, he, shift = kern.fill(idxs, (kern.tail_plain, out))
        out[:, :2 * kern.tail] = _as_plain(hm, he + shift, kern.scale)
        if near:
            m, e = self._weighted_rows(idxs[near])
            if np.any(e[m != 0.0] < kern.scale - PLAIN_SEEDING_SPREAD):
                return None
            out[near] = _as_plain(m, e, kern.scale)
        return out


class _BarGapKernel(NamedTuple):
    """Weighted rows of an instance whose bars from ``tail`` on repeat by scale.

    ``tail_m/e[s]`` is the row of end s (0 top, 1 bottom) over bar gaps
    -(n-1) .. n-1, n = k - tail bars: gap g, end s' at column
    2 * (n-1+g) + s'.  ``head_m/e`` are the columns of bars < tail for the
    centers in bars tail .. shift-1; a center in bar c >= shift has those of
    bar shift-1 times 2**(ell * (c - shift + 1)).  ``index[j]`` places
    location j: (end, tail offset, head row, head shift), the offset -1
    for a center left of the tail.  ``tail_plain`` is ``tail_m/e`` as
    doubles scaled by 2**-scale, scale the :func:`_plain_scale` of every
    value the kernel serves.
    """

    tail: int
    shift: int
    index: np.ndarray
    tail_m: np.ndarray
    tail_e: np.ndarray
    head_m: np.ndarray
    head_e: np.ndarray
    scale: int
    tail_plain: np.ndarray

    def fill(self, idxs, *tails):
        """Copy the tail columns of each row of a flat ``idxs`` from each
        ``(tail, out)`` pair, tail one of ``tail_m``, ``tail_e`` and
        ``tail_plain``.  Returns the positions of the centers left of the
        tail, whose rows stay unset, and the rows' packed head columns with
        the exponent shift each row adds to them."""
        plan = self.index[idxs]
        h = 2 * self.tail
        near = []
        for t, (end, off, _, _) in enumerate(plan.tolist()):
            if off < 0:
                near.append(t)
                continue
            for tail, out in tails:
                out[t, h:] = tail[end, off:off + out.shape[1] - h]
        row = plan[:, 2]
        return near, self.head_m[row], self.head_e[row], plan[:, 3:]


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

    Streams the head columns (bars < tail) of every center in bars
    tail .. k-1, a chunk of about one full row's elements at a time.
    """
    h = 2 * tail
    per = max(1, inst.k // max(h, 1))
    shift = tail + 1
    for lo in range(tail, inst.k - 1, per):
        hi = min(lo + per + 1, inst.k)  # chunks overlap by one bar
        m, e = (a.reshape(hi - lo, 2, h) for a in
                inst._weighted_rows(np.arange(2 * lo, 2 * hi), slice(0, h)))
        same = (m[1:] == m[:-1]) & (e[1:] == _scaled_exp(m[:-1], e[:-1], inst.ell))
        bad = np.flatnonzero(~same.all(axis=(1, 2)))
        if bad.size:
            shift = lo + int(bad[-1]) + 2
    return shift


def _bar_gap_kernel(inst: Instance):
    """The instance's :class:`_BarGapKernel`, or None when it has no tail."""
    k, tail = inst.k, _tail_start(inst)
    if tail == k:
        return None
    L, h = inst.n_locations, 2 * tail
    # the last bar over the tail gives gaps -(n-1) .. 0, the first tail bar
    # over the bars right of it gaps 1 .. n-1
    left = inst._weighted_rows(np.array([L - 2, L - 1]), slice(h, L))
    right = inst._weighted_rows(np.array([h, h + 1]), slice(h + 2, L))
    tail_m = np.concatenate([left[0], right[0]], axis=1)
    tail_e = np.concatenate([left[1], right[1]], axis=1)
    shift = _head_shift_start(inst, tail)
    head_m, head_e = inst._weighted_rows(np.arange(h, 2 * shift), slice(0, h))

    j = np.arange(L)
    bar, end = j // 2, j % 2
    base = shift - 1  # centers right of this bar repeat its head columns
    # tail bar b sits at gap b - bar; kernel column 2 * (k-1-bar) holds gap
    # tail - bar, and the row runs contiguously from there
    head_row = np.where(bar <= base, j - h, 2 * (base - tail) + end)
    index = np.stack([end, 2 * (k - 1 - bar), head_row, inst.ell * np.maximum(bar - base, 0)],
                     axis=1)
    index[bar < tail] = (0, -1, 0, 0)
    # the last bar's head columns: bar shift-1's, shifted the most
    top = _scaled_exp(head_m[-2:], head_e[-2:], inst.ell * (k - shift))
    scale = _plain_scale(np.concatenate(
        [e[m != 0.0] for m, e in ((tail_m, tail_e), (head_m, head_e), (head_m[-2:], top))]))
    return _BarGapKernel(tail, shift, index, tail_m, tail_e, head_m, head_e,
                         scale, _as_plain(tail_m, tail_e, scale))


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

    A location that is itself a center contributes exactly zero.
    """
    idx = _validated_centers(inst, centers)
    if idx.size == 0:
        raise ValueError("center set must be nonempty")
    rows = inst.weighted_row_source()
    # the minimum is exact, so streaming the centers in chunks changes no bit
    mins = (_ext_min_over_rows(*rows(idx[lo:hi]))
            for lo, hi in rng.trial_chunks(0, idx.size, inst.n_locations))
    mm, me = next(mins)
    for m, e in mins:
        _ext_min_into(mm, me, m, e)
    _, prefix, E = _scaled_totals(mm, me)
    return ExtScalar(float(prefix[-1]), int(E))


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
        y_txt = loc.y_mag.format_sci()
        if loc.end_id == BOTTOM and not loc.y_mag.is_zero:
            y_txt = "-" + y_txt
        lines.append(",".join([
            str(loc.cluster_id),
            loc.end_id,
            loc.x.format_sci(),
            y_txt,
            loc.weight.format_sci(),
        ]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
