"""Weighted planar point sets, distance-power costs, and coverage accounting.

Locations are the 2k distinct points of a generated instance; every point
multiplicity is carried as an ExtScalar weight so clusters whose sizes
shrink geometrically stay exact.  All distance and cost arithmetic runs on
packed (mantissa, exponent) numpy arrays with the same invariants as
ExtScalar; the scalar type appears at API boundaries.

Everything here is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

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

# Seeding reads weighted rows from the cached (2k, 2k) matrix up to this many
# entries and computes them per pick above (identical arithmetic either way).
_MATRIX_MAX_ENTRIES = 1 << 22

# Seeding runs on plain doubles when the nonzero weighted-matrix entries span
# at most this many binary orders: each entry scaled by 2**-(largest exponent),
# and u * total for any uniform u >= 2**-53, is then a normal double.
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


def _spread(m, e):
    """Binary orders from the smallest to the largest nonzero packed value; 0 if none."""
    nz = e[m != 0.0]
    return int(nz.max() - nz.min()) if nz.size else 0


def _plain(m, e):
    """Packed values as plain floats scaled by 2**-E, E the largest exponent.

    Raises CapacityError when a nonzero value lies more than 1022 binary
    orders below the largest: its scaled double would be subnormal or zero.
    """
    spread = _spread(m, e)
    if spread > 1022:
        raise CapacityError(f"values span {spread} binary orders; a double holds 1022")
    E = int(e.max())
    return np.ldexp(m, np.maximum(e - E, _MIN_SHIFT).astype(np.int32)), E


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
    lazily caches the weighted distance-power matrix for small instances,
    packed and, where seeding may use it, as plain doubles.
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
        self._wd_plain = None  # (W, E), or () where plain seeding does not apply

    @property
    def ell(self) -> int:
        """Distance exponent of the variant's cost function."""
        return ELL[self.variant]

    @property
    def n_locations(self) -> int:
        return len(self.locations)

    # -- packed-array machinery -------------------------------------------

    def distpow_rows(self, idxs: np.ndarray):
        """dist(loc[idxs[t]], loc[i]) ** ell as (mantissa, exponent) arrays.

        Output shape is ``idxs.shape + (2k,)``.
        """
        idxs = np.asarray(idxs, dtype=np.int64)
        at = lambda m, e: (m[idxs][..., None], e[idxs][..., None])
        return _distpow(at(*self._x), at(*self._y), self._x, self._y, self.ell)

    def _weighted_rows(self, idxs: np.ndarray):
        """weight_i * dist(loc[idxs[t]], loc[i]) ** ell, shaped like distpow_rows."""
        return _ext_mul(*self.distpow_rows(idxs), self._w_m, self._w_e)

    def weighted_distpow(self):
        """Cached (2k, 2k) matrix W[j, i] = weight_i * dist(j, i)**ell."""
        if self._wd is None:
            self._wd = self._weighted_rows(np.arange(self.n_locations))
        return self._wd

    def plain_weighted_distpow(self):
        """Cached ``(W, E)``: :meth:`weighted_distpow` as doubles scaled by 2**-E.

        E is the largest exponent of the matrix.  None, and seeding stays on
        the packed rows, above ``_MATRIX_MAX_ENTRIES`` or when the nonzero
        entries span more than ``PLAIN_SEEDING_SPREAD`` binary orders.
        """
        if self._wd_plain is None:
            self._wd_plain = ()
            if self.n_locations ** 2 <= _MATRIX_MAX_ENTRIES:
                wd = self.weighted_distpow()
                if _spread(*wd) <= PLAIN_SEEDING_SPREAD:
                    self._wd_plain = _plain(*wd)
        return self._wd_plain or None

    def weighted_row_source(self):
        """``rows(idxs)`` -> (mantissa, exponent) of weight_i * dist(idxs[t], i)**ell.

        Up to ``_MATRIX_MAX_ENTRIES`` entries the rows come from the cached
        :meth:`weighted_distpow` matrix, built here so that callers allocate
        their own work arrays after it; larger instances compute them from
        :meth:`distpow_rows` on each call.
        """
        if self.n_locations ** 2 <= _MATRIX_MAX_ENTRIES:
            wm, we = self.weighted_distpow()
            return lambda idxs: (wm[idxs], we[idxs])
        return self._weighted_rows


def scaled_weighted_matrix(inst: Instance):
    """The weighted distance-power matrix flattened to plain floats.

    Entry [j, i] = weight_i * dist(j, i)**ell scaled by 2**-E with E the
    global max exponent.  Raises CapacityError unless the whole exponent
    spread fits a double, as it does for the small instances the enumeration
    oracles handle.
    """
    return _plain(*inst.weighted_distpow())


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
    mm, me = _ext_min_over_rows(*inst._weighted_rows(idx))
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
