"""Exact sparse polynomials for generating jobs and their references.

The benchmark builds its inputs and expected answers with this module alone,
never with nuchi, so the program under test cannot shape its own reference.
A polynomial is a dict mapping exponent tuples to nonzero Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def const(c, n: int) -> dict:
    c = Fraction(c)
    return {(0,) * n: c} if c else {}


def var(i: int, n: int, c=1) -> dict:
    e = [0] * n
    e[i] = 1
    return {tuple(e): Fraction(c)}


def mono(exps, c=1) -> dict:
    return {tuple(exps): Fraction(c)} if c else {}


def add(*polys) -> dict:
    out: dict = {}
    for p in polys:
        for m, c in p.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def scale(p: dict, c) -> dict:
    c = Fraction(c)
    return {m: v * c for m, v in p.items()} if c else {}


def mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def power(p: dict, e: int, n: int) -> dict:
    out = const(1, n)
    base = p
    while e:
        if e & 1:
            out = mul(out, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return out


def linear_power(coeffs, constant, e: int) -> dict:
    """(sum_i coeffs[i]*x_i + constant)^e by the multinomial theorem."""
    n = len(coeffs)
    terms = [(i, Fraction(c)) for i, c in enumerate(coeffs) if c]
    constant = Fraction(constant)
    out: dict = {}

    def walk(k, left, exps, coeff):
        if k == len(terms):
            value = coeff * constant**left
            if value:
                m = tuple(exps)
                out[m] = out.get(m, 0) + value
            return
        i, c = terms[k]
        # without a constant the last linear term takes what is left
        start = left if (not constant and k == len(terms) - 1) else 0
        for j in range(start, left + 1):
            exps[i] += j
            walk(k + 1, left - j, exps, coeff * comb(left, j) * c**j)
            exps[i] -= j

    walk(0, e, [0] * n, Fraction(1))
    return {m: c for m, c in out.items() if c}


def compose_linear(p: dict, rows, shift) -> dict:
    """p(L_1(x), ..., L_n(x)) with L_i(x) = sum_j rows[i][j]*x_j + shift[i]."""
    n = len(rows[0]) if rows else 0
    cache: dict = {}
    out: dict = {}
    for m, c in p.items():
        term = const(c, n)
        for i, e in enumerate(m):
            if e:
                if (i, e) not in cache:
                    cache[(i, e)] = linear_power(rows[i], shift[i], e)
                term = mul(term, cache[(i, e)])
        out = add(out, term)
    return out


def derivative(p: dict, i: int) -> dict:
    out = {}
    for m, c in p.items():
        if m[i]:
            e = list(m)
            e[i] -= 1
            out[tuple(e)] = c * m[i]
    return out


def integrate(p: dict, i: int) -> dict:
    """Antiderivative in variable i with zero constant."""
    out = {}
    for m, c in p.items():
        e = list(m)
        e[i] += 1
        out[tuple(e)] = c / e[i]
    return out


def evaluate(p: dict, point) -> Fraction:
    total = Fraction(0)
    for m, c in p.items():
        v = c
        for x, e in zip(point, m):
            if e:
                v *= Fraction(x) ** e
        total += v
    return total


def degrevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def _term_text(m, c, names, first: bool, spaced: bool) -> str:
    neg = c < 0
    mag = -c if neg else c
    factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
    if not factors:
        body = str(mag)
    elif mag == 1:
        body = "*".join(factors)
    else:
        body = "*".join([str(mag)] + factors)
    if first:
        return ("-" if neg else "") + body
    op = "-" if neg else "+"
    return f" {op} {body}" if spaced else op + body


def to_text(p: dict, names, order=None, spaced: bool = False) -> str:
    """Print in nuchi's grammar.

    With ``order`` None the terms descend in degrevlex and spacing follows
    nuchi's own printer, so the text equals the canonical form; a list of
    monomials gives another spelling of the same polynomial.
    """
    if not p:
        return "0"
    monos = order if order is not None else sorted(p, key=degrevlex_key, reverse=True)
    if order is None:
        spaced = True
    return "".join(
        _term_text(m, p[m], names, k == 0, spaced) for k, m in enumerate(monos)
    )


def inverse(rows):
    """Inverse of an invertible square matrix, by Gauss-Jordan elimination."""
    n = len(rows)
    m = [[Fraction(v) for v in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        m[col] = [v / p for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [r[n:] for r in m]


def mat_vec(rows, v):
    return [sum(Fraction(a) * b for a, b in zip(r, v)) for r in rows]
