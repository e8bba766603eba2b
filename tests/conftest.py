from fractions import Fraction

from seedbounds.extfloat import ExtScalar


def ext_to_fraction(x: ExtScalar) -> Fraction:
    """Exact rational value of an extended scalar (test oracle)."""
    if x.m == 0.0:
        return Fraction(0)
    return Fraction(x.m) * Fraction(2) ** x.e


def assert_rel_close(actual: float, expected: float, rel: float, msg: str = ""):
    scale = max(abs(expected), 1e-300)
    assert abs(actual - expected) <= rel * scale, (
        f"{msg} actual={actual!r} expected={expected!r} rel_err="
        f"{abs(actual - expected) / scale:.3e} > {rel:.3e}")


def assert_ext_rel_close(actual: ExtScalar, expected: Fraction, rel: Fraction,
                         msg: str = ""):
    got = ext_to_fraction(actual)
    if expected == 0:
        assert got == 0, f"{msg} expected exact zero, got {actual!r}"
        return
    err = abs(got - expected) / abs(expected)
    assert err <= rel, f"{msg} relative error {float(err):.3e} > {float(rel):.3e}"
