"""Truncated arc calculus for 1-forms.

An arc is a tuple of truncated power series in t whose coefficients are
polynomials in formal parameters s_1..s_k; identities are verified at the
polynomial level, which suffices for the corresponding statements over the
fraction field.  Vanishing orders are certified only up to the truncation
order N (default 8), so callers wanting order m must use N >= m.
Composition truncates at t^N inside every product, so no power of t above N
is ever formed.

The text format for arcs is one assignment per ambient coordinate plus an
optional header line::

    order: 8
    x = u + v*t^2
    y = -v*t

Identifiers other than ``t`` are the arc parameters, in order of first
appearance.

The central operation is :func:`lagrangian_obstruction`: for an arc along
which every component of a 1-form vanishes to order >= m, the 2-form

    sum_i  d(gamma_i(0)) wedge d(coefficient of t^m in f_i(gamma(t)))

in the parameters.  For almost-closed forms this is exactly zero (the conic
Lagrangian property of the associated cone, exercised by the test suite);
non-almost-closed forms produce nonzero obstructions.
"""

from __future__ import annotations

import re

from dataclasses import dataclass
from types import MappingProxyType
from typing import Sequence

from .errors import ArityMismatch, InputError, OrderTooLow, RingMismatch
from .poly import Polynomial, Ring, _check_exponents, mono_mul, parse_polynomial
from .singular import OneForm

DEFAULT_TRUNCATION = 8


class _InfiniteWithinTruncation:
    """Vanishing-order marker: identically zero through the truncation."""

    __slots__ = ()

    def __repr__(self):
        return "INFINITE_WITHIN_TRUNCATION"


INFINITE_WITHIN_TRUNCATION = _InfiniteWithinTruncation()


# --------------------------------------------------------- truncated series

@dataclass(frozen=True)
class TruncatedSeries:
    """Power series in t truncated at order N, coefficients in a parameter ring.

    Only the nonzero terms are stored, as a read-only {(parameter
    exponents..., power of t): coefficient} mapping, so what a series costs
    follows its terms and not its order.
    """

    param_ring: Ring
    order: int
    terms: MappingProxyType

    def __init__(self, param_ring: Ring, order: int, terms: dict):
        object.__setattr__(self, "param_ring", param_ring)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "terms", MappingProxyType(terms))

    def coefficient(self, p: int) -> Polynomial:
        """The coefficient of t^p, a Polynomial in the parameters."""
        part = {m[:-1]: c for m, c in self.terms.items() if m[-1] == p}
        return Polynomial(self.param_ring, part)

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self):
        """The least power of t with a nonzero coefficient, or None if all vanish."""
        return min((m[-1] for m in self.terms), default=None)

    def __str__(self):
        parts: dict = {}
        for m, c in self.terms.items():
            parts.setdefault(m[-1], {})[m[:-1]] = c
        return " + ".join(
            f"({Polynomial(self.param_ring, parts[p])})*t^{p}" for p in sorted(parts)
        ) or "0"


# ------------------------------------------------------------------- arcs

@dataclass(frozen=True)
class ArcSeries:
    """An arc into affine space: one truncated t-series per coordinate."""

    ambient_ring: Ring
    param_ring: Ring
    components: tuple
    order: int

    def __init__(self, ambient_ring: Ring, param_ring: Ring, components, order: int):
        components = tuple(components)
        if len(components) != ambient_ring.arity:
            raise ArityMismatch("arc needs one component per ambient coordinate")
        for s in components:
            if s.param_ring != param_ring or s.order != order:
                raise RingMismatch("arc component series mismatch")
        object.__setattr__(self, "ambient_ring", ambient_ring)
        object.__setattr__(self, "param_ring", param_ring)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "order", order)

    def __repr__(self):
        names = self.ambient_ring.variables
        lines = [f"{x}(t) = {s}" for x, s in zip(names, self.components)]
        return f"<arc order {self.order}: " + "; ".join(lines) + ">"


def _ident_scan(expr: str):
    return re.findall(r"[A-Za-z_][A-Za-z0-9_]*", expr)


def arc_from_strings(
    ambient_ring: Ring,
    components: Sequence[str],
    order: int = DEFAULT_TRUNCATION,
    params: Sequence[str] | None = None,
) -> ArcSeries:
    """Build an arc from component expressions in t and parameter names.

    Parameters default to the non-``t`` identifiers in order of first
    appearance across the component expressions.
    """
    if len(components) != ambient_ring.arity:
        raise ArityMismatch("one component expression per ambient coordinate")
    if params is None:
        seen: list = []
        for expr in components:
            for name in _ident_scan(expr):
                if name != "t" and name not in seen:
                    seen.append(name)
        params = seen
    if "t" in params:
        raise InputError("'t' is the arc variable, not a parameter")
    param_ring = Ring(tuple(params))
    work = Ring(tuple(params) + ("t",))
    series = []
    for expr in components:
        poly = parse_polynomial(expr, work)
        if poly.degree_in(work.arity - 1) > order:
            raise InputError(
                f"component {expr!r} has t-degree beyond the truncation order {order}"
            )
        series.append(TruncatedSeries(param_ring, order, dict(poly.terms())))
    return ArcSeries(ambient_ring, param_ring, series, order)


def parse_arc(text: str, ambient_ring: Ring) -> ArcSeries:
    """Parse the arc text format (``order:`` header plus assignments)."""
    order = DEFAULT_TRUNCATION
    assignments: dict = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("order"):
            head, _, value = line.partition(":")
            if head.strip().lower() != "order" or not value.strip().isdigit():
                raise InputError(f"bad order header {line!r}")
            order = int(value.strip())
            continue
        name, eq, expr = line.partition("=")
        if not eq:
            raise InputError(f"expected 'name = expression', got {line!r}")
        name = name.strip()
        if name not in ambient_ring.variables:
            raise InputError(f"arc assigns {name!r}, not an ambient coordinate")
        if name in assignments:
            raise InputError(f"coordinate {name!r} assigned twice")
        assignments[name] = expr.strip()
    missing = [v for v in ambient_ring.variables if v not in assignments]
    if missing:
        raise InputError(f"arc is missing coordinates {missing}")
    return arc_from_strings(
        ambient_ring, [assignments[v] for v in ambient_ring.variables], order
    )


def _truncated_product(a: dict, b: dict, order: int, char: int) -> dict:
    """a * b with every power of t above the order dropped; t is last."""
    out: dict = {}
    for ma, ca in a.items():
        room = order - ma[-1]
        for mb, cb in b.items():
            if mb[-1] <= room:
                m = mono_mul(ma, mb)
                out[m] = out.get(m, 0) + ca * cb
    if char:
        return {m: c % char for m, c in out.items() if c % char}
    return {m: c for m, c in out.items() if c}


def compose_along_arc(f: Polynomial, arc: ArcSeries) -> TruncatedSeries:
    """Substitute the arc into f; exact in every retained t-coefficient.

    Every series is one {(parameter exponents..., power of t): coefficient}
    dict and every product drops the powers of t above the truncation order,
    so the only polynomials built are the coefficients of the result.
    """
    if f.ring.arity != arc.ambient_ring.arity:
        raise ArityMismatch("polynomial arity does not match the arc")
    order, dom, char = arc.order, arc.param_ring.domain, arc.param_ring.domain.char
    powers = {(i, 1): gamma.terms for i, gamma in enumerate(arc.components)}  # (i, e) -> gamma_i^e

    def power(i: int, e: int) -> dict:
        if (i, e) not in powers:
            half = power(i, e // 2)
            sq = _truncated_product(half, half, order, char)
            powers[(i, e)] = _truncated_product(sq, powers[(i, 1)], order, char) if e % 2 else sq
        return powers[(i, e)]

    one = (0,) * (arc.param_ring.arity + 1)
    acc: dict = {}
    for mono, coeff in f.terms():
        term = {one: dom.coerce(coeff)}
        for i, e in enumerate(mono):
            if e:
                term = _truncated_product(term, power(i, e), order, char)
        for m, c in term.items():
            acc[m] = dom.add(acc.get(m, 0), c)
    _check_exponents(acc)
    return TruncatedSeries(arc.param_ring, order, {m: c for m, c in acc.items() if c})


def arc_vanishing_order(omega: OneForm, arc: ArcSeries):
    """Largest m <= N with all components of omega(arc) zero below t^m.

    Identically-zero compositions impose no constraint; if every component
    vanishes through the truncation the result is
    INFINITE_WITHIN_TRUNCATION.
    """
    return _vanishing_order(_compose_components(omega, arc))


def _compose_components(omega: OneForm, arc: ArcSeries) -> list:
    """Each component of omega composed along the arc, once."""
    return [compose_along_arc(f, arc) for f in omega.components]


def _vanishing_order(composed: Sequence[TruncatedSeries]):
    vals = [v for v in (s.valuation() for s in composed) if v is not None]
    return min(vals) if vals else INFINITE_WITHIN_TRUNCATION


# ----------------------------------------------------------- parameter forms

@dataclass(frozen=True)
class ParameterForm:
    """A 1- or 2-form in the arc parameters with polynomial coefficients.

    Keys are parameter index tuples, (j,) for ds_j and (j, k) with j < k for
    ds_j ^ ds_k; zero coefficients are pruned and keys sorted, so equality is
    structural.
    """

    degree: int
    param_ring: Ring
    terms: tuple

    def __init__(self, degree: int, param_ring: Ring, terms):
        if degree not in (1, 2):
            raise InputError("parameter forms have degree 1 or 2")
        items = terms.items() if isinstance(terms, dict) else terms
        merged: dict = {}
        for key, coeff in items:
            key = tuple(key)
            if len(key) != degree:
                raise InputError(f"key {key} has wrong length for degree {degree}")
            if degree == 2 and key[0] >= key[1]:
                raise InputError("2-form keys must be strictly increasing pairs")
            if key in merged:
                merged[key] = merged[key] + coeff
            else:
                merged[key] = coeff
        cleaned = tuple(sorted((k, c) for k, c in merged.items() if not c.is_zero()))
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "param_ring", param_ring)
        object.__setattr__(self, "terms", cleaned)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ParameterForm") -> "ParameterForm":
        if self.degree != other.degree or self.param_ring != other.param_ring:
            raise RingMismatch("form mismatch")
        return ParameterForm(self.degree, self.param_ring, list(self.terms) + list(other.terms))

    def __sub__(self, other: "ParameterForm") -> "ParameterForm":
        return self + other.scale(-1)

    def scale(self, c) -> "ParameterForm":
        return ParameterForm(
            self.degree, self.param_ring, [(k, coeff * c) for k, coeff in self.terms]
        )

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.param_ring.variables
        parts = []
        for key, coeff in self.terms:
            sym = "^".join(f"d{names[j]}" for j in key)
            parts.append(f"({coeff})*{sym}")
        return " + ".join(parts)

    def to_payload(self):
        names = self.param_ring.variables
        return [
            {"form": "^".join(f"d{names[j]}" for j in key), "coefficient": str(coeff)}
            for key, coeff in self.terms
        ]


def zero_form(degree: int, param_ring: Ring) -> ParameterForm:
    return ParameterForm(degree, param_ring, ())


def param_differential(p: Polynomial) -> ParameterForm:
    """Formal differential in the parameters: sum of partonly ds_j terms."""
    ring = p.ring
    return ParameterForm(
        1, ring, [((j,), p.derivative(j)) for j in range(ring.arity)]
    )


def wedge(a: ParameterForm, b: ParameterForm) -> ParameterForm:
    """Wedge of two 1-forms, canonicalized with increasing index pairs."""
    if a.degree != 1 or b.degree != 1:
        raise InputError("wedge expects two 1-forms")
    out: list = []
    for (j,), ca in a.terms:
        for (k,), cb in b.terms:
            if j == k:
                continue
            if j < k:
                out.append(((j, k), ca * cb))
            else:
                out.append(((k, j), -(ca * cb)))
    return ParameterForm(2, a.param_ring, out)


# ------------------------------------------------------- the obstruction form

def _certify_order(composed: Sequence[TruncatedSeries], arc: ArcSeries, m: int) -> None:
    """Check that the compositions of omega's components vanish to order m."""
    if m < 1:
        raise InputError("the order m must be a positive integer")
    if arc.order < m:
        raise OrderTooLow(
            f"truncation order {arc.order} cannot certify vanishing order {m}"
        )
    v = _vanishing_order(composed)
    if v is not INFINITE_WITHIN_TRUNCATION and v < m:
        raise OrderTooLow(f"verified vanishing order is {v}, below the requested {m}")


def lagrangian_obstruction(omega: OneForm, arc: ArcSeries, m: int) -> ParameterForm:
    """The conic-Lagrangian obstruction 2-form of (omega, arc) at order m.

    sum_i d(constant coefficient of gamma_i) ^ d(t^m coefficient of
    f_i(gamma)).  Requires the certified vanishing order to be at least m.
    """
    return _obstruction(_compose_components(omega, arc), arc, m)


def _obstruction(composed: Sequence[TruncatedSeries], arc: ArcSeries, m: int) -> ParameterForm:
    """:func:`lagrangian_obstruction` from omega's components composed along
    the arc."""
    _certify_order(composed, arc, m)
    acc = zero_form(2, arc.param_ring)
    for gamma, series in zip(arc.components, composed):
        acc = acc + wedge(
            param_differential(gamma.coefficient(0)), param_differential(series.coefficient(m))
        )
    return acc
