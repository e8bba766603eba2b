import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seedbounds.extfloat import (EXT_ZERO, ExtParseError, ExtRangeError,
                                 ExtScalar)

from conftest import assert_ext_rel_close, ext_to_fraction

REL_OP = Fraction(1, 2**48)

mantissas = st.floats(min_value=1.0, max_value=2.0, exclude_max=True,
                      allow_nan=False, allow_infinity=False)
small_exps = st.integers(min_value=-40, max_value=40)
wide_exps = st.integers(min_value=-50000, max_value=50000)
shifts = st.integers(min_value=-10000, max_value=10000)


def ext(m, e):
    return ExtScalar(m, e)


# ---------------------------------------------------------------------------
# construction / normalization
# ---------------------------------------------------------------------------

def test_constructor_normalizes():
    x = ExtScalar(288.0)
    assert x.m == 1.125 and x.e == 8
    x = ExtScalar(17.0, -3)  # 17/8
    assert x.m == 1.0625 and x.e == 1


def test_zero_is_canonical():
    z = ExtScalar(0.0, 1234)
    assert z.m == 0.0 and z.e == 0
    assert z == EXT_ZERO


def test_constructor_rejects_bad_mantissas():
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ExtScalar(bad)


def test_from_int_exact_and_rounded():
    assert ExtScalar.from_int(1024) == ExtScalar(1.0, 10)
    v = (1 << 80) - 2
    got = ext_to_fraction(ExtScalar.from_int(v))
    assert abs(got - v) / v <= Fraction(1, 2**53)


# ---------------------------------------------------------------------------
# arithmetic vs the exact rational oracle
# ---------------------------------------------------------------------------

def test_add_identity_and_one_plus_one():
    x = ext(1.7, 23)
    assert EXT_ZERO + x == x and x + EXT_ZERO == x
    assert ext(1.0, 0) + ext(1.0, 0) == ext(1.0, 1)


def test_add_huge_gap_keeps_large_operand():
    big, small = ext(1.0, 1000), ext(1.0, 0)
    out = big + small
    assert_ext_rel_close(out, ext_to_fraction(big) + 1, Fraction(1, 2**50))


def test_mul_identity_and_powers_of_two():
    x = ext(1.3, -7)
    assert x * ext(1.0, 0) == x
    assert ext(1.0, 600) * ext(1.0, 700) == ext(1.0, 1300)


def test_mul_hand_value():
    # 12 * 24 = 288
    assert ext(1.5, 3) * ext(1.5, 4) == ExtScalar(1.125, 8)


@given(m1=mantissas, e1=small_exps, m2=mantissas, e2=small_exps)
def test_add_matches_rational_oracle(m1, e1, m2, e2):
    a, b = ext(m1, e1), ext(m2, e2)
    assert_ext_rel_close(a + b, ext_to_fraction(a) + ext_to_fraction(b), REL_OP)


@given(m1=mantissas, e1=small_exps, m2=mantissas, e2=small_exps)
def test_mul_matches_rational_oracle(m1, e1, m2, e2):
    a, b = ext(m1, e1), ext(m2, e2)
    assert_ext_rel_close(a * b, ext_to_fraction(a) * ext_to_fraction(b), REL_OP)


@given(m1=mantissas, e1=small_exps, m2=mantissas, e2=small_exps, s=shifts)
def test_shift_equivariance_is_exact(m1, e1, m2, e2, s):
    a, b = ext(m1, e1), ext(m2, e2)
    assert (a.shifted(s) + b.shifted(s)) == (a + b).shifted(s)
    assert (a.shifted(s) * b.shifted(s)) == (a * b).shifted(2 * s)


@given(m1=mantissas, e1=wide_exps, m2=mantissas, e2=wide_exps)
def test_total_order_matches_rational_oracle(m1, e1, m2, e2):
    a, b = ext(m1, e1), ext(m2, e2)
    fa, fb = ext_to_fraction(a), ext_to_fraction(b)
    assert (a < b) == (fa < fb)
    assert (a == b) == (fa == fb)
    assert (a > b) == (fa > fb)
    assert EXT_ZERO < a and not (a < EXT_ZERO)


# ---------------------------------------------------------------------------
# ratio
# ---------------------------------------------------------------------------

def test_ratio_basics():
    x = ext(1.37, 17)
    assert x.ratio(x) == 1.0
    assert ext(1.0, 10).ratio(ext(1.0, 12)) == 0.25
    assert ExtScalar(17.0, -3).ratio(ext(1.0, 0)) == 2.125
    assert EXT_ZERO.ratio(x) == 0.0


def test_ratio_requires_positive_divisor():
    with pytest.raises(ValueError):
        ext(1.0, 0).ratio(EXT_ZERO)


def test_ratio_out_of_native_range():
    with pytest.raises(ExtRangeError):
        ext(1.0, 3000).ratio(ext(1.0, 0))
    with pytest.raises(ExtRangeError):
        ext(1.0, 0).ratio(ext(1.0, 3000))


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_format_known_values():
    assert EXT_ZERO.format_sci() == "0.000000000000000e+0000"
    assert ExtScalar(1.0, 10).format_sci() == "1.024000000000000e+0003"
    assert ExtScalar(1.0, 0).format_sci() == "1.000000000000000e+0000"
    assert ExtScalar(1.0, -10).format_sci() == "9.765625000000000e-0004"


def test_parse_rejects_malformed_text():
    for bad in ("", "1.024e+3", "x", "1.02400000000000e+0003",
                "1.0240000000000000e+0003", "-1.024000000000000e+0003"):
        with pytest.raises(ExtParseError):
            ExtScalar.parse(bad)


def test_parse_known_values():
    assert ExtScalar.parse("0.000000000000000e+0000") == EXT_ZERO
    got = ExtScalar.parse("1.024000000000000e+0003")
    assert_ext_rel_close(got, Fraction(1024), Fraction(1, 10**12))


def test_round_trip_bulk():
    rng = np.random.default_rng(20240817)
    rel = Fraction(1, 10**12)
    for _ in range(10**4):
        x = ExtScalar(1.0 + rng.random(), int(rng.integers(-40000, 40000)))
        back = ExtScalar.parse(x.format_sci())
        assert_ext_rel_close(back, ext_to_fraction(x), rel)


@settings(max_examples=300)
@given(m=mantissas, e=wide_exps)
def test_round_trip_property(m, e):
    x = ext(m, e)
    back = ExtScalar.parse(x.format_sci())
    assert_ext_rel_close(back, ext_to_fraction(x), Fraction(1, 10**12))


def test_immutability_and_hash():
    x = ext(1.5, 2)
    with pytest.raises(AttributeError):
        x.m = 2.0
    assert hash(x) == hash(ExtScalar(1.5, 2))


def test_pickle_round_trip():
    for x in (EXT_ZERO, ext(1.5, 3), ext(1.0 + 2**-52, -(1 << 40)), ext(1.25, 10**30)):
        back = pickle.loads(pickle.dumps(x))
        assert (back.m, back.e) == (x.m, x.e)
