"""Rational roots of integer polynomials compared with sympy's factorization.

sympy is an independent implementation; the test is skipped where it is not
installed (it is part of the ``test`` extra).
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nuchi.cycles import _rational_roots

from .test_cycles import time_limit, times

sympy = pytest.importorskip("sympy")


@st.composite
def integer_polynomials(draw):
    """{exponent: coefficient} of c * x^z * r * prod (b*x - a)^e: r of degree
    0-8 with random coefficients and a lead of either sign, then up to three
    planted linear factors, a content c of either sign and a power of x."""
    degree = draw(st.integers(0, 8))
    r = draw(st.lists(st.integers(-30, 30), min_size=degree, max_size=degree))
    r.append(draw(st.integers(1, 30)) * draw(st.sampled_from([1, -1])))
    factors = st.tuples(st.integers(-12, 12), st.integers(1, 6), st.integers(1, 3))
    for a, b, e in draw(st.lists(factors, max_size=3)):
        for _ in range(e):
            r = times(r, [-a, b])
    content = draw(st.integers(1, 60)) * draw(st.sampled_from([1, -1]))
    zeros = draw(st.integers(0, 3))
    return {k + zeros: content * c for k, c in enumerate(r) if c}


@settings(max_examples=200, deadline=None)
@given(integer_polynomials())
@example({0: 1, 1: 4, 2: 4})  # (2x + 1)^2: discriminant 0
@example({0: -2, 1: -1, 2: 6})  # (2x + 1)(3x - 2): a nonzero square
@example({0: 3, 1: -2, 2: -8})  # -(4x + 3)(2x - 1): a square, a negative lead
@example({0: -2, 2: 1})  # x^2 - 2: positive and no square
@example({0: 1, 1: 1, 2: 1})  # x^2 + x + 1: negative
@example({0: -4, 1: 6})  # 2(3x - 2): linear, with content
@example({0: -10000000000000061, 2: 1})  # its end coefficients once stalled the search
@example({2: 3, 3: -3, 4: -6})  # -3x^2 (x + 1)(2x - 1): a power of x, a square
def test_rational_roots_match_sympy(coeffs):
    # sympy factors over Z; its linear factors are the rational roots, and
    # the polynomial splits when their multiplicities add up to its degree
    x = sympy.Symbol("x")
    f = sympy.Poly.from_dict({(k,): c for k, c in coeffs.items()}, x)
    expected = sorted((Fraction(int(r.p), int(r.q)), k) for r, k in f.ground_roots().items())
    with time_limit(5):
        found = _rational_roots(coeffs)
    assert found == (expected, sum(k for _, k in expected) == f.degree())
