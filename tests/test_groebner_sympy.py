"""Reduced Groebner bases compared with sympy's, over Q and over GF(7).

sympy is an independent implementation; the test is skipped where it is not
installed (it is part of the ``test`` extra).
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nuchi.groebner import DEGREVLEX, Ideal, groebner_basis
from nuchi.poly import GF, LEX, QQ, Polynomial, Ring

sympy = pytest.importorskip("sympy")

ORDERS = {"lex": LEX, "grevlex": DEGREVLEX}


@st.composite
def ideals(draw):
    """Two or three variables, at most 3 generators of degree at most 3 with
    small rational coefficients, as (variable names, list of term lists)."""
    names = ("x", "y", "z")[: draw(st.integers(2, 3))]
    monos = [m for m in itertools.product(range(4), repeat=len(names)) if sum(m) <= 3]
    coeff = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
    term = st.tuples(st.sampled_from(monos), coeff)
    gens = draw(st.lists(st.lists(term, min_size=1, max_size=4), min_size=1, max_size=3))
    return names, gens


def to_sympy(g: Polynomial, symbols):
    p = g.ring.domain.char
    total = 0
    for m, c in g.terms():
        c = sympy.Rational(c.numerator, c.denominator) if not p else int(c)
        total += c * sympy.prod(s**e for s, e in zip(symbols, m))
    return total


def from_sympy(poly, ring: Ring) -> Polynomial:
    p = ring.domain.char
    terms = []
    for m, c in poly.terms():
        c = Fraction(int(c.p), int(c.q)) if not p else int(c) % p
        terms.append((m, c))
    return Polynomial(ring, terms)


# x*z + y^2 + 1 and x^2 - y: x*z leads under lex, y^2 under grevlex
TIE = (
    ("x", "y", "z"),
    [[((1, 0, 1), 1), ((0, 2, 0), 1), ((0, 0, 0), 1)], [((2, 0, 0), 1), ((0, 1, 0), -1)]],
)

# three generators whose lex basis took minutes under the normal strategy,
# from coefficient swell; the sugar strategy takes milliseconds
SWELL = (
    ("x", "y", "z"),
    [
        [((1, 0, 2), 1), ((0, 2, 1), Fraction(5, 2)), ((1, 1, 1), Fraction(5, 4)), ((1, 0, 1), 1)],
        [((2, 0, 1), Fraction(3, 2)), ((0, 3, 0), Fraction(-5, 3)), ((1, 0, 1), Fraction(1, 2))],
        [((0, 0, 2), Fraction(5, 2)), ((3, 0, 0), Fraction(-4, 3))],
    ],
)


@settings(max_examples=60, deadline=None)
@given(case=ideals(), char=st.sampled_from([0, 7]), order=st.sampled_from(sorted(ORDERS)))
@example(case=TIE, char=0, order="grevlex")
@example(case=TIE, char=7, order="lex")
@example(case=SWELL, char=0, order="lex")
def test_reduced_basis_matches_sympy(case, char, order):
    names, gens = case
    ring = Ring(names, GF(char) if char else QQ)
    I = Ideal(ring, [Polynomial(ring, terms) for terms in gens])
    if not I.generators:
        return  # every generator cancelled mod 7
    ours = groebner_basis(I, ORDERS[order]).elements
    symbols = sympy.symbols(names)
    options = {"modulus": char} if char else {"domain": "QQ"}
    theirs = sympy.groebner(
        [to_sympy(g, symbols) for g in I.generators], *symbols, order=order, **options
    )
    assert sorted(map(str, ours)) == sorted(str(from_sympy(g, ring)) for g in theirs.polys)
