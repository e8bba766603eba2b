"""Extended-range nonnegative scalars.

An ``ExtScalar`` is ``mantissa * 2**exponent`` with a double-precision
mantissa kept in ``[1, 2)`` and an unbounded Python-int exponent, so
quantities spanning a ``2**(±4k)`` dynamic range (costs and potentials on
instances with thousands of clusters) never overflow or underflow.

Only what the rest of the package needs is provided: add, multiply,
comparison, ratio-to-native-float, and a decimal scientific text format
(used for CSV columns).  No subtraction, no transcendentals, no negative
values.  Instances are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
import re

__all__ = ["ExtScalar", "ExtRangeError", "ExtParseError", "EXT_ZERO"]

_FMT_RE = re.compile(r"^(\d)\.(\d{15})e([+-])(\d{4,})$")

# Exponent gap beyond which the smaller addend cannot affect a double mantissa.
_ADD_CUTOFF = 64


class ExtRangeError(ArithmeticError):
    """A requested native-float result lies outside the double range."""


class ExtParseError(ValueError):
    """Text does not match the scientific notation format."""


class ExtScalar:
    """Immutable nonnegative scalar with a decoupled base-2 exponent."""

    __slots__ = ("m", "e")

    def __init__(self, mantissa: float, exponent: int = 0):
        mantissa = float(mantissa)
        if math.isnan(mantissa) or math.isinf(mantissa) or mantissa < 0.0:
            raise ValueError(f"mantissa must be finite and nonnegative, got {mantissa!r}")
        if mantissa == 0.0:
            object.__setattr__(self, "m", 0.0)
            object.__setattr__(self, "e", 0)
            return
        frac, shift = math.frexp(mantissa)  # frac in [0.5, 1)
        object.__setattr__(self, "m", frac * 2.0)
        object.__setattr__(self, "e", int(exponent) + shift - 1)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("ExtScalar is immutable")

    def __reduce__(self):
        # rebuild through __init__: the slots cannot be restored by setattr
        return (ExtScalar, (self.m, self.e))

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_int(cls, v: int) -> "ExtScalar":
        """Exact-to-53-bits conversion of a nonnegative Python int."""
        if v < 0:
            raise ValueError("negative value")
        if v == 0:
            return EXT_ZERO
        bl = v.bit_length()
        if bl <= 53:
            return cls(float(v), 0)
        # round-half-up on the 54th bit
        top = v >> (bl - 54)
        top = (top >> 1) + (top & 1)
        return cls(float(top), bl - 53)

    # -- core properties -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.m == 0.0

    def shifted(self, s: int) -> "ExtScalar":
        """Exact multiplication by 2**s."""
        if self.m == 0.0:
            return self
        return ExtScalar(self.m, self.e + s)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ExtScalar):
            return NotImplemented
        if self.m == 0.0:
            return other
        if other.m == 0.0:
            return self
        hi, lo = (self, other) if self.e >= other.e else (other, self)
        d = hi.e - lo.e
        if d > _ADD_CUTOFF:
            return hi
        return ExtScalar(hi.m + math.ldexp(lo.m, -d), hi.e)

    def __mul__(self, other):
        if not isinstance(other, ExtScalar):
            return NotImplemented
        if self.m == 0.0 or other.m == 0.0:
            return EXT_ZERO
        return ExtScalar(self.m * other.m, self.e + other.e)

    def ratio(self, other: "ExtScalar") -> float:
        """``self / other`` as a native float; ``other`` must be positive.

        Raises ExtRangeError when the result would overflow or flush a
        nonzero value to zero (caller should compare, not divide).
        """
        if not isinstance(other, ExtScalar):
            raise TypeError("ratio expects an ExtScalar divisor")
        if other.m == 0.0:
            raise ValueError("ratio requires a positive divisor")
        if self.m == 0.0:
            return 0.0
        q = self.m / other.m
        try:
            out = math.ldexp(q, self.e - other.e)
        except OverflowError:
            raise ExtRangeError("ratio overflows the native float range") from None
        if out == 0.0:
            raise ExtRangeError("ratio underflows the native float range")
        return out

    def to_float(self) -> float:
        """Native-float value; raises ExtRangeError outside the double range."""
        return self.ratio(EXT_ONE)

    # -- ordering --------------------------------------------------------

    def _key(self):
        if self.m == 0.0:
            return (0, 0, 0.0)
        return (1, self.e, self.m)

    def __eq__(self, other):
        if not isinstance(other, ExtScalar):
            return NotImplemented
        return self.m == other.m and self.e == other.e

    def __hash__(self):
        return hash((self.m, self.e))

    def __lt__(self, other):
        return self._key() < other._key()

    def __le__(self, other):
        return self._key() <= other._key()

    def __gt__(self, other):
        return self._key() > other._key()

    def __ge__(self, other):
        return self._key() >= other._key()

    # -- text format -----------------------------------------------------

    def format_sci(self) -> str:
        """Decimal scientific notation ``d.ddddddddddddddde±EEEE``.

        Exact big-integer conversion; 16 significant digits, round half up.
        """
        if self.m == 0.0:
            return "0.000000000000000e+0000"
        frac, shift = math.frexp(self.m)
        num = int(math.ldexp(frac, 53))  # 53-bit integer, exact
        e2 = self.e + shift - 53
        if e2 >= 0:
            n, d = num << e2, 1
        else:
            n, d = num, 1 << (-e2)
        # first estimate of the decimal exponent, then correct
        e10 = math.floor((n.bit_length() - d.bit_length()) * 0.3010299956639812)
        for _ in range(4):
            p = 15 - e10
            if p >= 0:
                q, rem = divmod(n * 10**p, d)
            else:
                q, rem = divmod(n, d * 10**(-p))
            if 2 * rem >= (d if p >= 0 else d * 10**(-p)):
                q += 1
            if q >= 10**16:
                e10 += 1
            elif q < 10**15:
                e10 -= 1
            else:
                break
        s = str(q)
        sign = "+" if e10 >= 0 else "-"
        return f"{s[0]}.{s[1:]}e{sign}{abs(e10):04d}"

    @classmethod
    def parse(cls, text: str) -> "ExtScalar":
        """Inverse of :meth:`format_sci` (relative error <= 2**-54)."""
        mt = _FMT_RE.match(text.strip())
        if mt is None:
            raise ExtParseError(f"malformed extended-scalar text: {text!r}")
        lead, frac, sign, expd = mt.groups()
        digits = int(lead + frac)
        if digits == 0:
            return EXT_ZERO
        e10 = (1 if sign == "+" else -1) * int(expd) - 15
        if e10 >= 0:
            n, d = digits * 10**e10, 1
        else:
            n, d = digits, 10**(-e10)
        return cls._from_ratio(n, d)

    @classmethod
    def _from_ratio(cls, n: int, d: int) -> "ExtScalar":
        e = n.bit_length() - d.bit_length()  # n/(d*2^e) in [0.5, 2)
        if e >= 0:
            q = (n << 55) // (d << e)
        else:
            q = (n << (55 - e)) // d
        return cls(math.ldexp(float(q), -55), e)

    def __repr__(self):
        return f"ExtScalar({self.m!r}, {self.e!r})"


EXT_ZERO = ExtScalar(0.0)
EXT_ONE = ExtScalar(1.0)
