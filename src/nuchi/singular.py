"""Pointwise invariants of singularities.

Milnor numbers via local colengths of Jacobian ideals, the canonical
constructible function nu at smooth points and isolated critical points, and
the almost-closed test for 1-forms.  The Milnor route builds one local basis
of the shifted Jacobian ideal (:func:`~nuchi.groebner.jacobian_basis`, on
integer terms) and reads mu and the local dimension off its invariants, so
no Polynomial is differentiated and no basis Polynomial is built.

Smoothness is read off the same kind of basis: the local standard basis of
an ideal shifted to the origin gives the local dimension, and its number of
leading monomials of degree 1 is the rank of the generators' Jacobian
matrix at the point (:meth:`~nuchi.groebner.StandardBasis.linear_leads`),
taken over the ring's own field: over F_p it is the rank mod p.  On a
critical locus the Jacobian basis built for mu serves, and its degree-1
leads count the rank of the Hessian.

External mathematical import, used here and documented in the README: for an
isolated critical point of f in n variables, the Euler characteristic of the
Milnor fibre is chi(F) = 1 + (-1)^(n-1) * mu, with mu the Milnor number.
This is classical Milnor theory; everything else is computed from scratch.

Points must have rational coordinates: localization is realized by an exact
coordinate shift to the origin, and field extensions are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import (
    ArityMismatch,
    NonIsolatedCriticalPoint,
    NotCriticalPoint,
    PointNotOnVariety,
    RingMismatch,
    Unsupported,
)
from .groebner import (
    Ideal,
    Infinite,
    LOCAL_DEGREVLEX,
    groebner_basis,
    jacobian_basis,
    normal_form,
    standard_basis,
)
from .poly import Polynomial, Ring

Point = tuple  # rational coordinates, one per ring variable


class _NotCritical:
    """Return marker of milnor_number at a point where df does not vanish."""

    __slots__ = ()

    def __repr__(self):
        return "NOT_CRITICAL"


NOT_CRITICAL = _NotCritical()


def as_point(coords: Sequence, ring: Ring) -> Point:
    if len(coords) != ring.arity:
        raise ArityMismatch(f"point has {len(coords)} coordinates, expected {ring.arity}")
    return tuple(Fraction(c) for c in coords)


def coerce_point(coords: Sequence, ring: Ring) -> tuple:
    """:func:`as_point` with every coordinate in the ring's domain: residues
    over F_p, where a coordinate whose denominator p divides raises
    InputError."""
    return tuple(map(ring.domain.coerce, as_point(coords, ring)))


def format_point(point: Sequence) -> str:
    """Rational coordinates as text for messages, e.g. ``(1/2, 1)``."""
    return "(" + ", ".join(str(Fraction(c)) for c in point) + ")"


# ------------------------------------------------------------------ 1-forms

@dataclass(frozen=True)
class OneForm:
    """A 1-form sum f_i dx_i on affine space, stored by its components."""

    ring: Ring
    components: tuple

    def __init__(self, ring: Ring, components: Sequence[Polynomial]):
        components = tuple(components)
        if len(components) != ring.arity:
            raise ArityMismatch("a 1-form needs one component per variable")
        for f in components:
            if f.ring != ring:
                raise RingMismatch("component not in the declared ring")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "components", components)

    @staticmethod
    def from_strings(ring: Ring, exprs: Sequence[str]) -> "OneForm":
        return OneForm(ring, [ring.parse(e) for e in exprs])

    def zero_locus_ideal(self) -> Ideal:
        """The ideal generated by the components (the image of the pairing
        against vector fields), whose zero scheme is Z(omega)."""
        return Ideal(self.ring, self.components)

    def __repr__(self):
        names = self.ring.variables
        parts = [f"({f})d{x}" for f, x in zip(self.components, names)]
        return " + ".join(parts)


def differential(f: Polynomial) -> OneForm:
    """The exact 1-form df."""
    return OneForm(f.ring, [f.derivative(i) for i in range(f.ring.arity)])


def jacobian_ideal(f: Polynomial) -> Ideal:
    """The ideal of all partial derivatives of f."""
    return Ideal(f.ring, [f.derivative(i) for i in range(f.ring.arity)])


# --------------------------------------------------------------- smoothness

def shift_ideal(I: Ideal, point: Point) -> Ideal:
    """Translate the point to the origin in every generator."""
    return Ideal(I.ring, [g.shift(point) for g in I.generators])


@dataclass(frozen=True)
class Smoothness:
    smooth: bool
    local_dim: int | None


def is_smooth_at(I: Ideal, point: Sequence) -> Smoothness:
    """Jacobian criterion at a rational point of Z(I), over the ring's field.

    One local standard basis of the ideal shifted to the origin gives both
    sides: the local dimension is one of its invariants, and the rank of the
    generators' Jacobian matrix at the point is its number of leading
    monomials of degree 1 (:meth:`~nuchi.groebner.StandardBasis.linear_leads`).
    Smooth iff the rank is arity minus the local dimension; the local
    dimension is reported when smooth.  Raises when the point is not on the
    variety.
    """
    point = as_point(point, I.ring)
    for g in I.generators:
        if g.evaluate(point) != 0:
            raise PointNotOnVariety(f"generator {g} does not vanish at {format_point(point)}")
    basis = standard_basis(shift_ideal(I, point), LOCAL_DEGREVLEX)
    return _smoothness(I.ring.arity, basis.invariants()[1], basis.linear_leads())


def _smoothness(n: int, dim: int, rank: int) -> Smoothness:
    smooth = rank == n - dim
    return Smoothness(smooth, dim if smooth else None)


# ------------------------------------------------------------ Milnor theory

def milnor_number(f: Polynomial, point: Sequence):
    """Milnor number of f at a rational point.

    Returns NOT_CRITICAL when df does not vanish there, INFINITE when the
    critical point is not isolated, and otherwise the local colength of the
    Jacobian ideal (all cases signalled in the return value, no exceptions).
    """
    return _milnor(f, as_point(point, f.ring))[0]


def _milnor(f: Polynomial, point: Point):
    """(mu, dim, rank): milnor_number, the local dimension of Crit(f) at the
    point and the rank of the Hessian of f there, all read off the local
    basis of the shifted Jacobian ideal (dim and rank are None when df does
    not vanish there).

    f is shifted once, since d_i(f(x + P)) = (d_i f)(x + P), and
    :func:`~nuchi.groebner.jacobian_basis` differentiates it on packed
    integer terms.
    """
    basis = jacobian_basis(f.shift(point))
    if basis is None:
        return NOT_CRITICAL, None, None
    mu, dim, _ = basis.invariants()
    return mu, dim, basis.linear_leads()


def _fibre_euler(mu: int, n: int) -> int:
    """chi(F) = 1 + (-1)^(n-1) * mu, the imported Milnor-theory fact."""
    return 1 + (-1) ** (n - 1) * mu


def milnor_fibre_euler(f: Polynomial, point: Sequence) -> int:
    """Euler characteristic of the Milnor fibre at an isolated critical point.

    chi(F) = 1 + (-1)^(n-1) * mu; raises for non-critical or non-isolated
    points.
    """
    mu = milnor_number(f, point)
    if mu is NOT_CRITICAL:
        raise NotCriticalPoint(f"df does not vanish at {format_point(point)}")
    if isinstance(mu, Infinite):
        raise NonIsolatedCriticalPoint(f"critical point {format_point(point)} is not isolated")
    return _fibre_euler(mu, f.ring.arity)


@dataclass(frozen=True)
class NuReport:
    """Value of nu at a point together with how it was obtained."""

    nu: int
    route: str  # "milnor" or "smooth"
    mu: int | None = None
    local_dim: int | None = None


def behrend_report(presentation: Union[Polynomial, Ideal], point: Sequence) -> NuReport:
    """The canonical constructible function nu_X at a rational point.

    ``presentation`` is either a regular function f, in which case X = Z(df)
    and nu comes from the Milnor fibre at an isolated critical point,
    nu = (-1)^n (1 - chi(F_P)), or an ideal presenting X, in which case the
    point must be smooth and nu = (-1)^(dim_P X).  For critical loci with a
    non-isolated singular point the smooth rule is still tried; if that fails
    too, the computation refuses rather than guessing.
    """
    if isinstance(presentation, Polynomial):
        f = presentation
        point = as_point(point, f.ring)
        mu, dim, rank = _milnor(f, point)  # one basis gives mu, dim and the Hessian rank
        if mu is NOT_CRITICAL:
            raise PointNotOnVariety(f"{format_point(point)} is not on the critical locus of {f}")
        n = f.ring.arity
        if not isinstance(mu, Infinite):
            nu = (-1) ** n * (1 - _fibre_euler(mu, n))
            return NuReport(nu=nu, route="milnor", mu=mu)
        check = _smoothness(n, dim, rank)
        if check.smooth:
            return NuReport(nu=(-1) ** check.local_dim, route="smooth", local_dim=check.local_dim)
        raise Unsupported(
            "non-isolated singular point with no smooth chart; "
            "nu would need vanishing-cycle machinery"
        )
    if isinstance(presentation, Ideal):
        check = is_smooth_at(presentation, point)
        if check.smooth:
            return NuReport(nu=(-1) ** check.local_dim, route="smooth", local_dim=check.local_dim)
        raise Unsupported(
            "ideal presentations are supported at smooth points only; "
            "pass a critical-locus presentation for singular points"
        )
    raise ArityMismatch(f"unsupported presentation {presentation!r}")


def behrend_at(presentation: Union[Polynomial, Ideal], point: Sequence) -> int:
    """nu_X(P); see :func:`behrend_report` for the dispatch rules."""
    return behrend_report(presentation, point).nu


# --------------------------------------------------------- almost closedness

@dataclass(frozen=True)
class AlmostClosedCheck:
    """Outcome of the almost-closed test.

    ``certificates`` lists, per component pair (i, j) with i < j (0-based),
    the antisymmetry defect d(f_i)/d(x_j) - d(f_j)/d(x_i) that was verified
    to lie in the component ideal.  On failure ``failing_pair`` is the first
    offending pair and ``failing_normal_form`` its nonzero remainder.
    """

    almost_closed: bool
    certificates: tuple = ()
    failing_pair: tuple | None = None
    failing_normal_form: Polynomial | None = None


def is_almost_closed(omega: OneForm) -> AlmostClosedCheck:
    """Test d(omega) in I * Omega^2 with I the zero-locus ideal of omega.

    In coordinates: for every pair i < j the defect
    d(f_i)/d(x_j) - d(f_j)/d(x_i) must lie in (f_1, ..., f_n).
    """
    I = omega.zero_locus_ideal()
    basis = groebner_basis(I)
    certs = []
    n = omega.ring.arity
    for i in range(n):
        for j in range(i + 1, n):
            defect = omega.components[i].derivative(j) - omega.components[j].derivative(i)
            rem = normal_form(defect, basis)
            if not rem.is_zero():
                return AlmostClosedCheck(
                    False,
                    certificates=tuple(certs),
                    failing_pair=(i, j),
                    failing_normal_form=rem,
                )
            certs.append(((i, j), defect))
    return AlmostClosedCheck(True, certificates=tuple(certs))
