"""Cycle-level constructions: normal cones, the distinguished cycle and the
local Euler obstruction.

The distinguished cycle is an integer combination of points, declared smooth
varieties and coordinate subspaces, so the Euler obstruction of each
component is 1 on it and 0 off it, and the cycle route imports no theorem
beyond the definition of nu.

The normal cone of Z(I) in affine space is presented by an ideal in a
doubled ring: fiber variables are adjoined, the Rees kernel of y_i -> t*g_i
is computed by eliminating t from the graph ideal, and the cone ideal is the
kernel plus I.  Every normal cone over an n-variable ambient space has
dimension n, which the tests assert throughout.

Supported presentation classes for the distinguished cycle:

* smooth (declared): the cycle is (-1)^dim [X];
* zero-dimensional with regular-sequence generators (declared, verified by
  generator-count and finite-colength checks): the cone is X x A^n, so the
  cycle is the sum of the local lengths mu_P [P] over the rational support
  points;
* monomial ideals: components of the cone and their generic lengths are
  combinatorial whenever the reduced cone basis is monomial (minimal
  coordinate covers; lengths count staircase cells after setting off-prime
  variables to 1).  The zero ideal has no fiber variables and one
  component, the empty cover of multiplicity 1: its cone is the whole
  space, so nu = (-1)^n, as for the smooth class.

Splitting a zero-dimensional ideal into points needs one degrevlex basis,
and no basis polynomial and no Fraction is built before the roots: the
colength is one of the basis's invariants, and each variable's eliminant e_i
comes from :func:`~nuchi.groebner.eliminant` as primitive integer
coefficients (a univariate basis element, or else a minimal polynomial by
fraction-free FGLM), both read off the driver's integer entries.  Its rational
roots are found exactly and p-adically on its squarefree part (Hensel
lifting of the roots modulo a small prime; no coefficient is factored), each
with its multiplicity k_i in e_i.  The grid of roots is filtered by the basis
elements in more than one variable, the only basis elements built as
Polynomials (in identity coordinates there are none).  The same data give
mu_P without a local (Mora) basis: it is 1 when every k_i is 1, and otherwise
the global colength of I plus the pins (x_i - P_i)^k_i, an ideal supported
at P alone.  So the cycle route shares no local computation with the Milnor
route of :mod:`nuchi.singular`, and :func:`local_colength_at` (Mora) stays
only as a library call and an oracle.  Non-rational support raises
IrrationalPoint rather than approximating; splitting is over Q only.

For nu on a critical locus the basis comes from f itself: the partials are
taken in groebner's packing (:func:`~nuchi.groebner.jacobian_groebner_basis`),
and the presentation class is read off their numbers of terms
(:func:`~nuchi.groebner.partial_term_counts`), so no partial is built as a
Polynomial unless they are all monomials, which the monomial class needs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Union

from .errors import (
    InputError,
    IrrationalPoint,
    UnitIdeal,
    UnsupportedCycleKind,
    UnsupportedPresentation,
)
from .groebner import (
    Ideal,
    Infinite,
    LOCAL_DEGREVLEX,
    StandardBasis,
    colength,
    eliminant,
    eliminate,
    groebner_basis,
    jacobian_groebner_basis,
    krull_dimension,
    partial_term_counts,
    staircase_count,
)
from .poly import Polynomial, Ring
from .singular import as_point, coerce_point, jacobian_ideal, shift_ideal

# ------------------------------------------------------------- descriptors

@dataclass(frozen=True)
class PointCycle:
    """A rational point; its coordinates are kept as Fractions."""

    ring: Ring
    coordinates: tuple

    def __post_init__(self):
        if any(type(c) is not Fraction for c in self.coordinates):
            object.__setattr__(self, "coordinates", tuple(map(Fraction, self.coordinates)))

    def dimension(self) -> int:
        return 0

    def sort_key(self):
        return (0, str(self.coordinates))

    def to_payload(self):
        return {"kind": "point", "data": {"coordinates": [str(c) for c in self.coordinates]}}


@dataclass(frozen=True)
class SmoothVarietyCycle:
    """A prime cycle declared smooth; its dimension is computed on demand."""

    ideal: Ideal

    @property
    def ring(self) -> Ring:
        return self.ideal.ring

    def dimension(self) -> int:
        return krull_dimension(self.ideal)

    def sort_key(self):
        return (1, str([str(g) for g in self.ideal.generators]))

    def to_payload(self):
        return {
            "kind": "smooth",
            "data": {"generators": [str(g) for g in self.ideal.generators]},
        }


@dataclass(frozen=True)
class CoordinateSubspaceCycle:
    """The subspace cut out by the variables in ``zero_vars``."""

    ring: Ring
    zero_vars: frozenset

    def dimension(self) -> int:
        return self.ring.arity - len(self.zero_vars)

    def sort_key(self):
        return (3, str(sorted(self.zero_vars)))

    def to_payload(self):
        names = [self.ring.variables[i] for i in sorted(self.zero_vars)]
        return {"kind": "coordinate-subspace", "data": {"zero_variables": names}}


Descriptor = Union[PointCycle, SmoothVarietyCycle, CoordinateSubspaceCycle]


# ------------------------------------------------------------------- cycles

@dataclass(frozen=True)
class Cycle:
    """A finite integer combination of prime cycle descriptors.

    ``terms`` holds (coefficient, descriptor) pairs with nonzero
    coefficients and distinct descriptors, sorted by ``sort_key()``; equal
    keys keep the order of first occurrence.  The terms are sorted first
    and equal descriptors are merged within runs of equal keys, so no
    descriptor is hashed.  That needs equal descriptors to have equal keys,
    which holds for every descriptor: a point's coordinates are Fractions,
    whose text is canonical.
    """

    terms: tuple

    def __init__(self, terms):
        keyed = sorted(((d.sort_key(), coeff, d) for coeff, d in terms), key=itemgetter(0))
        merged: list = []  # [key, coefficient, descriptor]
        run = 0  # where the run of the current key starts in merged
        for key, coeff, d in keyed:
            if not merged or merged[-1][0] != key:
                run = len(merged)
            else:
                same = next((t for t in merged[run:] if t[2] == d), None)
                if same is not None:
                    same[1] += coeff
                    continue
            merged.append([key, coeff, d])
        object.__setattr__(self, "terms", tuple((c, d) for _, c, d in merged if c != 0))

    def is_zero(self) -> bool:
        return not self.terms

    def to_payload(self):
        out = []
        for coeff, d in self.terms:
            entry = {"coefficient": coeff}
            entry.update(d.to_payload())
            out.append(entry)
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*[{d.to_payload()['kind']}]" for c, d in self.terms)


# ------------------------------------------------------------ point splitting

def _primitive(f: list) -> list:
    content = math.gcd(*f)
    return [c // content for c in f] if content > 1 else f


def _pseudo_remainder(f: list, g: list) -> list:
    """The primitive part of the remainder of lc(g)^k * f by g, for integer
    coefficient lists (lowest first)."""
    while len(f) >= len(g):
        lead, shift = f[-1], len(f) - len(g)
        f = [c * g[-1] for c in f[:-1]]
        for j, c in enumerate(g[:-1]):
            f[shift + j] -= lead * c
        while f and not f[-1]:
            f.pop()
    return _primitive(f)


def _multiplicity(p: list, a: int, b: int) -> int:
    """How many times b*x - a divides the integer polynomial p (coefficients
    lowest first), for coprime a and b > 0: the multiplicity of a/b as a
    root of p.

    Each division is exact in integers (Gauss), so it is carried out by
    synthetic division from the top, stopping at the first inexact step.
    """
    k = 0
    while True:
        q = [0] * (len(p) - 1)
        carry = 0  # q_j, with p_j = b*q_(j-1) - a*q_j
        for j in reversed(range(1, len(p))):
            carry, rest = divmod(p[j] + a * carry, b)
            if rest:
                return k
            q[j - 1] = carry
        if p[0] + a * carry:
            return k
        p, k = q, k + 1


def _value(q: list, y: int, modulus: int) -> int:
    """q(y) mod the modulus, for integer coefficients lowest first."""
    v = 0
    for c in reversed(q):
        v = (v * y + c) % modulus
    return v


def _rational_roots(coeffs: dict):
    """The distinct rational roots of a nonzero integer polynomial, given as
    {exponent: nonzero coefficient}, with their multiplicities, as sorted
    (root, multiplicity) pairs, and whether they split it over Q.

    The power x^zeros of least exponent is split off before the rest, p, is
    listed densely, so x^zeros alone costs nothing whatever its degree.  The
    roots are searched on the squarefree part s = p / gcd(p, p'), so their
    number of candidates does not grow with the multiplicities, and p splits
    when s has as many roots as its degree d.

    The search is p-adic (Loos, SIAM J. Comput. 12, 1983) and factors no
    coefficient.  For L > 0 the leading coefficient of s, y = L*x maps the
    rational roots of s to the integer roots of the monic
    q(y) = L^(d-1) * s(y/L).  At the first prime l > d where every root of
    q mod l is simple (any l not dividing the discriminant of q, so one
    exists), each root of q mod l lifts to exactly one l-adic root, by Newton
    steps that square the modulus M.  An integer root y of q has
    |y| <= B = 1 + max |q_i| (Cauchy), so it is the symmetric residue of its
    lift once M > 2B.  That residue is tested exactly at every step, so a
    small root stops at once, and a lift whose residue is still no root once
    M > 2B is dropped: at most d candidates, with no cutoff.
    """
    zeros = min(coeffs)
    p = [0] * (max(coeffs) - zeros + 1)  # coefficients lowest first
    for k, c in coeffs.items():
        p[k - zeros] = int(c)  # integral Fractions are accepted as well
    p = _primitive(p)
    g, h = p, _primitive([k * c for k, c in enumerate(p)][1:])
    while h:
        g, h = h, _pseudo_remainder(g, h)
    # g is primitive, so the quotient is integral (Gauss)
    d = len(p) - len(g)
    rest, s = list(p), [0] * (d + 1)
    for k in reversed(range(d + 1)):
        s[k] = rest[k + len(g) - 1] // g[-1]
        if s[k]:
            for j, c in enumerate(g):
                rest[k + j] -= s[k] * c
    # the roots are near/lead for one lead > 0: collected as (near, k) pairs
    roots, lead = [(0, zeros)] if zeros else [], 1
    if d:
        if s[-1] < 0:
            s = [-c for c in s]
        lead = s[-1]
        q = [c * lead ** (d - 1 - i) for i, c in enumerate(s[:-1])] + [1]
        dq = [i * c for i, c in enumerate(q)][1:]
        bound = 2 * (1 + max(map(abs, q[:-1])))
        ell = d + 1
        while True:
            if all(ell % f for f in range(2, math.isqrt(ell) + 1)):
                residues = [y for y in range(ell) if not _value(q, y, ell)]
                if all(_value(dq, y, ell) for y in residues):
                    break
            ell += 1
        for y in residues:
            modulus = ell
            while True:
                near = y - modulus if 2 * y > modulus else y  # the symmetric residue
                e = math.gcd(near, lead)
                k = _multiplicity(p, near // e, lead // e)
                if k:
                    roots.append((near, k))
                    break
                if modulus > bound:
                    break
                modulus *= modulus
                y = (y - _value(q, y, modulus) * pow(_value(dq, y, modulus), -1, modulus)) % modulus
    roots.sort()
    return [(Fraction(near, lead), k) for near, k in roots], len(roots) - bool(zeros) == d


def _points_from_basis(basis: StandardBasis, length: int, mixed: list):
    """Rational points P of Z(I) from its degrevlex basis and its finite
    colength, each with the multiplicities k_i of P_i in the eliminants, as
    (P, k) pairs in ascending order of P.

    Each coordinate ranges over the ascending rational roots of its
    eliminant, so the grid comes out in ascending order, and it is filtered
    by exact evaluation of the basis elements in more than one variable,
    ``mixed``: the basis generates I, and an element in x_i alone lies in
    I meet Q[x_i], so it is a multiple of the eliminant and vanishes on the
    whole grid.
    """
    ring = basis.ring
    if not length:
        return []  # the unit ideal has no points in any characteristic
    if ring.domain.char:
        raise InputError("point splitting needs characteristic 0")
    roots_per_var = []
    for i in range(ring.arity):
        roots, split = _rational_roots(eliminant(basis, i))
        if not split:
            raise IrrationalPoint(
                f"support of the ideal has irrational {ring.variables[i]}-coordinates"
            )
        roots_per_var.append(roots)
    grid = (tuple(zip(*combo)) for combo in itertools.product(*roots_per_var))
    return [(P, k) for P, k in grid if all(g.evaluate(P) == 0 for g in mixed)]


def rational_points_of_zero_dim(I: Ideal):
    """All rational points of a zero-dimensional Z(I), over Q.

    InputError if Z(I) is not zero-dimensional or the field is not Q;
    IrrationalPoint if a coordinate of the support is irrational.
    """
    basis = groebner_basis(I)
    length = basis.invariants()[0]
    if isinstance(length, Infinite):
        raise InputError("ideal is not zero-dimensional")
    return tuple(P for P, _ in _points_from_basis(basis, length, basis.multivariate_elements()))


def _length_at(ring: Ring, mixed: list, P: tuple, k: tuple) -> int:
    """mu_P, the length of Q[x]/I at a point P of a zero-dimensional Z(I),
    from the multiplicities k_i of P_i in the eliminants e_i and the
    elements in more than one variable, ``mixed``, of a basis of I.

    Near P, (x_i - P_i)^k_i is e_i times a unit, so J = I + ((x_i - P_i)^k_i)_i
    agrees with I there and is supported at P alone: mu_P = dim Q[x]/J.  In
    the coordinates t = x - P, J is the basis expanded at P and cut to the
    box t^m with every m_i < k_i, plus the pins t_i^k_i.  An element in x_i
    alone is a multiple of e_i, so its cut vanishes and it is skipped.  J
    is the point itself when every k_i is 1, the whole box when the cut
    elements vanish, and otherwise its global degrevlex colength counts it.
    """
    if all(e == 1 for e in k):
        return 1
    cut = [g.shift(P, k) for g in mixed]
    if not any(cut):
        return math.prod(k)
    n = ring.arity
    pins = [Polynomial(ring, {tuple(e * (i == j) for j in range(n)): 1}) for i, e in enumerate(k)]
    return colength(Ideal(ring, cut + pins))


def local_colength_at(I: Ideal, point) -> int:
    """The length of the localization of Q[x]/I at a rational point, from a
    Mora standard basis of I shifted to the origin.

    The cycle route reads the same number off its eliminants
    (:func:`distinguished_cycle`); this is kept as a library call and as
    an independent oracle for it.
    """
    value = colength(shift_ideal(I, as_point(point, I.ring)), LOCAL_DEGREVLEX)
    if isinstance(value, Infinite):
        raise UnsupportedPresentation("ideal is not finite at the point")
    return value


# ------------------------------------------------------------- normal cones

@dataclass(frozen=True)
class ConeIdealReport:
    """The cone ideal in the doubled ring plus its computed invariants.

    ``components`` lists (multiplicity, zero-variable index set) pairs when
    the reduced cone basis is monomial, None otherwise.
    """

    ideal: Ideal
    base_arity: int
    fiber_indices: tuple
    dimension: int
    conic: bool
    components: tuple | None


def _fresh_names(taken, stems):
    names = []
    used = set(taken)
    for stem in stems:
        name = stem
        while name in used:
            name = "_" + name
        names.append(name)
        used.add(name)
    return names


def normal_cone_ideal(I: Ideal) -> ConeIdealReport:
    """Present the normal cone of Z(I) by Rees-kernel elimination.

    Fiber variables (p_1..p_n when the generator count equals the arity,
    else y_1..y_r) are adjoined; the cone ideal is the kernel of
    y_i -> t*g_i plus I.  The report carries the Krull dimension (always the
    ambient arity) and the conic certificate.
    """
    ring = I.ring
    n = ring.arity
    gens = I.generators
    r = len(gens)
    stem = "p" if r == n else "y"
    fiber_names = _fresh_names(ring.variables, [f"{stem}{k + 1}" for k in range(r)])
    doubled = Ring(ring.variables + tuple(fiber_names), ring.domain)
    (t_name,) = _fresh_names(doubled.variables, ["t"])
    ext = Ring(doubled.variables + (t_name,), ring.domain)
    t_idx = ext.arity - 1
    base_map = list(range(n))
    graph = []
    for k, g in enumerate(gens):
        lifted = g.transport(ext, base_map)
        graph.append(ext.variable(n + k) - ext.variable(t_idx) * lifted)
    kernel = eliminate(Ideal(ext, graph), {t_idx})
    down_map = list(range(n + r)) + [0]  # t never appears in kernel generators
    cone_gens = [g.transport(doubled, down_map) for g in kernel.generators]
    cone_gens += [g.transport(doubled, base_map) for g in gens]
    J = Ideal(doubled, cone_gens)
    reduced = groebner_basis(J)
    _, dim, _ = reduced.invariants()
    # J contains I, and the cone of a nonempty scheme is nonempty: J = (1)
    # exactly when I = (1)
    if dim < 0:
        raise UnitIdeal("normal cone of the empty scheme")
    J_canonical = Ideal(doubled, reduced.elements)
    fiber_indices = tuple(range(n, n + r))
    conic = _fiber_homogeneous(reduced.elements, fiber_indices)
    components = _monomial_components(reduced, doubled)
    return ConeIdealReport(J_canonical, n, fiber_indices, dim, conic, components)


def _fiber_homogeneous(elements, fiber_indices) -> bool:
    fibers = set(fiber_indices)
    for g in elements:
        degrees = {sum(m[i] for i in fibers) for m in g.monomials()}
        if len(degrees) > 1:
            return False
    return True


def _monomial_components(basis: StandardBasis, ring: Ring):
    """Minimal primes and generic lengths when the basis is monomial.

    Minimal primes of a monomial ideal are the minimal coordinate covers of
    the generator supports; the generic length along a prime sets the other
    variables to 1 and counts the staircase of what remains.  The leads of
    a reduced basis are the minimal generators.
    """
    if any(len(g.monomials()) != 1 for g in basis.elements):
        return None
    gens = basis.leading_monomials()
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in gens]
    arity = ring.arity
    covers: list = []
    for size in range(arity + 1):
        for S in itertools.combinations(range(arity), size):
            sset = frozenset(S)
            if any(c <= sset for c in covers):
                continue
            if all(sup & sset for sup in supports):
                covers.append(sset)
    components = []
    for prime in sorted(covers, key=sorted):
        restricted = [tuple(m[i] for i in sorted(prime)) for m in gens]
        length = staircase_count(restricted, len(prime))
        if isinstance(length, Infinite):
            raise AssertionError("generic length along a minimal prime must be finite")
        components.append((length, prime))
    return tuple(components)


# ----------------------------------------------------- distinguished cycles

SMOOTH = "smooth"
REGULAR_SEQUENCE = "regular-sequence"
MONOMIAL = "monomial"


@dataclass(frozen=True)
class Presentation:
    """A declared presentation class of X, given by the ideal of X or, from a
    critical locus, by f with X = Z(df).

    ``ideal`` and ``basis``, the reduced degrevlex basis of the ideal, are
    worked out from the source when first read.  For f, the basis comes
    from f's packed terms (:func:`~nuchi.groebner.jacobian_groebner_basis`)
    and the ideal of its partials is built only when ``ideal`` is read.
    """

    kind: str
    source: Union[Ideal, Polynomial]

    def __post_init__(self):
        if self.kind not in (SMOOTH, REGULAR_SEQUENCE, MONOMIAL):
            raise UnsupportedPresentation(f"unknown presentation class {self.kind!r}")

    @property
    def ring(self) -> Ring:
        return self.source.ring

    @functools.cached_property
    def ideal(self) -> Ideal:
        if isinstance(self.source, Ideal):
            return self.source
        return jacobian_ideal(self.source)

    @functools.cached_property
    def basis(self) -> StandardBasis:
        if isinstance(self.source, Ideal):
            return groebner_basis(self.source)
        return jacobian_groebner_basis(self.source)


def smooth_presentation(I: Ideal) -> Presentation:
    return Presentation(SMOOTH, I)


def regular_sequence_presentation(I: Ideal) -> Presentation:
    return Presentation(REGULAR_SEQUENCE, I)


def monomial_presentation(I: Ideal) -> Presentation:
    return Presentation(MONOMIAL, I)


def presentation_from_critical_locus(f: Polynomial) -> Presentation:
    """Choose a supported presentation class for X = Z(df).

    Monomial partials are a regular sequence when there are arity-many of
    them and their staircase is finite, and the monomial class otherwise.
    Other partials are declared a regular sequence when there are
    arity-many of them; :func:`distinguished_cycle` then checks the
    colength.  Anything else is refused.

    The class is read off the number of terms of each partial
    (:func:`~nuchi.groebner.partial_term_counts`), and only monomial
    partials are built as Polynomials.  A regular sequence of other partials
    is presented by f, whose basis is computed from f's packed terms.
    """
    counts = partial_term_counts(f)
    arity_many = all(counts)
    if all(count <= 1 for count in counts):
        I = jacobian_ideal(f)
        monos = [g.monomials()[0] for g in I.generators]
        finite = not isinstance(staircase_count(monos, f.ring.arity), Infinite)
        return Presentation(REGULAR_SEQUENCE if arity_many and finite else MONOMIAL, I)
    if arity_many:
        return Presentation(REGULAR_SEQUENCE, f)
    raise UnsupportedPresentation(
        "critical locus is neither presented by arity-many partials "
        "nor by monomial partials"
    )


def distinguished_cycle(presentation: Presentation) -> Cycle:
    """The signed cycle of the normal cone of X in its ambient space.

    Smooth class: (-1)^dim [X].  Zero-dimensional regular sequences (over
    Q): the cone is X x A^n, so the cycle is the sum of mu_P [P] over the
    rational support points, each mu_P read off the eliminants
    (IrrationalPoint if the support is not rational); the points are found
    from the presentation's basis.
    Monomial class: combinatorial components of the cone ideal, each
    contributing (-1)^(dim of projection) * multiplicity times its
    projection.
    """
    ring = presentation.ring
    if presentation.kind == SMOOTH:
        I = presentation.ideal
        dim = krull_dimension(I)
        if dim < 0:
            raise UnsupportedPresentation("the empty scheme has no cycle")
        return Cycle([((-1) ** dim, SmoothVarietyCycle(I))])
    if presentation.kind == REGULAR_SEQUENCE:
        source = presentation.source
        if isinstance(source, Ideal) and len(source.generators) != ring.arity:
            raise UnsupportedPresentation(
                "regular-sequence class needs exactly arity-many generators, "
                f"got {len(source.generators)}"
            )
        basis = presentation.basis
        total = basis.invariants()[0]
        if isinstance(total, Infinite):
            raise UnsupportedPresentation("regular-sequence class requires finite colength")
        mixed = basis.multivariate_elements()
        terms = []
        accounted = 0
        for P, k in _points_from_basis(basis, total, mixed):
            mu = _length_at(ring, mixed, P, k)
            accounted += mu
            terms.append((mu, PointCycle(ring, P)))
        if accounted != total:
            raise IrrationalPoint(
                f"rational points account for length {accounted} of {total}; "
                "the remaining support is irrational"
            )
        return Cycle(terms)
    # monomial class
    I = presentation.ideal
    for g in I.generators:
        if len(g.monomials()) != 1:
            raise UnsupportedPresentation(f"generator {g} is not a monomial")
    report = normal_cone_ideal(I)
    if report.components is None:
        raise UnsupportedPresentation(
            "the cone ideal of this monomial input is not monomial after "
            "reduction; general binomial decomposition is out of scope"
        )
    n = ring.arity
    terms = []
    for mult, prime in report.components:
        base_part = frozenset(i for i in prime if i < n)
        dim_pi = n - len(base_part)
        terms.append(((-1) ** dim_pi * mult, CoordinateSubspaceCycle(ring, base_part)))
    return Cycle(terms)


# -------------------------------------------------------- Euler obstruction

def euler_obstruction(c: Cycle, point) -> int:
    """MacPherson's local Euler obstruction of a supported cycle at a point.

    Linear in the cycle.  Every descriptor kind is smooth (a point, a
    declared smooth variety, a coordinate subspace), so each contributes 1
    through the point and 0 away from it.  The point is coerced once into
    the domain of the first descriptor's ring, a cycle living in one ambient
    ring, so over F_p coordinates compare as residues and a coordinate whose
    denominator p divides raises InputError.  An empty cycle has no ring to
    check the point in; :func:`nu_from_cycle` checks it against the
    presentation's ring first.
    """
    total, P = 0, None
    for coeff, d in c.terms:
        if P is None:
            P = coerce_point(point, d.ring)
        total += coeff * _eu_descriptor(d, P)
    return total


def _eu_descriptor(d: Descriptor, P: tuple) -> int:
    if isinstance(d, PointCycle):
        return 1 if P == d.coordinates else 0
    if isinstance(d, CoordinateSubspaceCycle):
        return 1 if all(P[i] == 0 for i in d.zero_vars) else 0
    if isinstance(d, SmoothVarietyCycle):
        return 1 if all(g.evaluate(P) == 0 for g in d.ideal.generators) else 0
    raise UnsupportedCycleKind(f"Euler obstruction undefined for {d!r}")


def nu_from_cycle(presentation: Presentation, point) -> int:
    """nu via the cycle route: Euler obstruction of the distinguished cycle.

    The point is coerced into the presentation's ring before the cycle is
    built, so a bad point raises InputError even when the cycle is empty."""
    point = coerce_point(point, presentation.ring)
    return euler_obstruction(distinguished_cycle(presentation), point)
