"""The cross-class std against an exact reference, on every Python version.

``rates._pstdev`` must give the correctly rounded population standard
deviation: the bits of ``statistics.pstdev`` from Python 3.11 on, whose
3.10 version rounds the variance to a float before its square root. The
reference here takes the exact variance as a ``Fraction`` and finds the
nearest float to its root by comparing squares of midpoints, with no
round-to-odd step.
"""

from __future__ import annotations

import math
import statistics
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedscore.rates import _pstdev

# The root's guess is off by less than 2**-1200, far below the spacing of any
# two floats (2**-1074), so the nearest float is the guess or a neighbour.
SCALE_BITS = 1200


def _rounds_to(c: float, var: Fraction) -> bool:
    """Whether ``c``, a float >= 0, is ``sqrt(var)`` rounded to nearest, ties to even."""
    below = max(math.nextafter(c, -math.inf), 0.0)
    lo = (Fraction(below) + Fraction(c)) / 2
    hi = Fraction(c) + Fraction(math.ulp(c)) / 2  # ulp is the gap to the next float
    even = int(c / math.ulp(c)) % 2 == 0
    if c == 0:
        return var < hi * hi or (var == hi * hi and even)
    if lo * lo < var < hi * hi:
        return True
    return var in (lo * lo, hi * hi) and even


def reference_pstdev(values) -> float:
    xs = [Fraction(x) for x in values]
    mean = sum(xs, Fraction(0)) / len(xs)
    var = sum(((x - mean) ** 2 for x in xs), Fraction(0)) / len(xs)
    scaled = math.isqrt(var.numerator * 4**SCALE_BITS // var.denominator)
    guess = float(Fraction(scaled, 2**SCALE_BITS))
    near = (math.nextafter(guess, -math.inf), guess, math.nextafter(guess, math.inf))
    (root,) = [c for c in near if 0 <= c < math.inf and _rounds_to(c, var)]
    return root


def check(values):
    got = _pstdev(values)
    assert type(got) is float
    assert math.copysign(1.0, got) == 1.0  # never -0.0
    assert got == reference_pstdev(values)
    if sys.version_info >= (3, 11):  # correctly rounded from 3.11 on
        assert got == statistics.pstdev(values)


numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(0, 1),
    st.floats(-1e-300, 1e-300, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, 1.0, 0.5]),
    st.integers(-(10**20), 10**20),
    st.booleans(),
)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(values=st.lists(numbers, min_size=1, max_size=12))
def test_equals_the_exact_reference(values):
    check(values)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(value=numbers, n=st.integers(1, 12))
def test_equal_values_have_no_spread(value, n):
    check([value] * n)
    assert _pstdev([value] * n) == 0.0


# n_tp / n_gt, as the TP ratios of a sweep are
ratios = st.tuples(st.integers(1, 10**6), st.integers(0, 10**6)).map(lambda t: min(t) / t[0])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(values=st.lists(ratios, min_size=1, max_size=12))
def test_tp_ratios(values):
    check(values)


@pytest.mark.parametrize(
    "values",
    [
        [0.5],
        [0.0, 0.0, 0.0],
        [-0.0],
        [0.0, -0.0],
        [0.3, 0.3, 0.3, 0.3],
        [5e-324],
        [5e-324, 0.0],
        [5e-324, 1e-323, 1.5e-323],
        [1e-300, 1e300],
        [5e-324, 1e308, -1e308],
        [1.7976931348623157e308, -1.7976931348623157e308],
        [1, 0.5],
        [True, False, 1, 0.25],
        [1.0, 0.5, 0.75],
        [0.1, 0.7, 0.35, 0.35],
    ],
)
def test_cases(values):
    check(values)
