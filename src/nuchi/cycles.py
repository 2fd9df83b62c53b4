"""Cycle-level constructions: normal cones, the distinguished cycle, the
local Euler obstruction, and the conormal correspondence.

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

External mathematical import: the local Euler obstruction of a curve at a
point equals its Hilbert-Samuel multiplicity there.  It is used only for
curve-kind cycle descriptors and is flagged in CLI provenance.

Splitting a zero-dimensional ideal into points needs one degrevlex basis:
each variable's eliminant e_i is read off it (a univariate basis element, or
else a minimal polynomial by FGLM), and the rational root theorem on its
squarefree part finds its rational roots exactly, each with its multiplicity
k_i in e_i.  The same data give mu_P without a local (Mora) basis: it is 1
when every k_i is 1, and otherwise the global colength of I plus the pins
(x_i - P_i)^k_i, an ideal supported at P alone.  So the cycle route shares
no local computation with the Milnor route of :mod:`nuchi.singular`, and
:func:`local_colength_at` (Mora) stays only as a library call and an oracle.
Non-rational support raises IrrationalPoint rather than approximating;
splitting is over Q only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import (
    InputError,
    IrrationalPoint,
    KindMismatch,
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
    eliminate,
    groebner_basis,
    hs_multiplicity,
    krull_dimension,
    monomial_ideal_dimension,
    monomial_minimal_generators,
    normal_form,
    staircase_count,
)
from .poly import Polynomial, Ring
from .singular import as_point, shift_ideal

# ------------------------------------------------------------- descriptors

@dataclass(frozen=True)
class PointCycle:
    ring: Ring
    coordinates: tuple

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
class CurveCycle:
    ideal: Ideal

    def dimension(self) -> int:
        return 1

    def sort_key(self):
        return (2, str([str(g) for g in self.ideal.generators]))

    def to_payload(self):
        return {
            "kind": "curve",
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


@dataclass(frozen=True)
class ConormalCycle:
    """Closure of the conormal bundle of a base cycle, in the doubled ring."""

    base: "Descriptor"

    def sort_key(self):
        return (4,) + self.base.sort_key()

    def to_payload(self):
        return {"kind": "conormal", "data": {"base": self.base.to_payload()}}


Descriptor = Union[
    PointCycle, SmoothVarietyCycle, CurveCycle, CoordinateSubspaceCycle, ConormalCycle
]


# ------------------------------------------------------------------- cycles

@dataclass(frozen=True)
class Cycle:
    """A finite integer combination of prime cycle descriptors."""

    terms: tuple

    def __init__(self, terms):
        merged: dict = {}
        for coeff, d in terms:
            merged[d] = merged.get(d, 0) + coeff
        cleaned = tuple(
            sorted(((c, d) for d, c in merged.items() if c != 0), key=lambda cd: cd[1].sort_key())
        )
        object.__setattr__(self, "terms", cleaned)

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

def _support(g: Polynomial) -> set:
    """The indices of the variables that occur in g."""
    return {i for m, _ in g.terms() for i, e in enumerate(m) if e}


def _eliminant(basis: StandardBasis, var: int) -> dict:
    """The monic generator of I meet Q[x_var], as {exponent: coefficient}
    over its nonzero terms.

    A reduced degrevlex basis holds at most one element whose leading
    monomial is a power of x_var; when that element is univariate it lies in
    I meet Q[x_var] and has the least degree there, so it is the generator.
    Otherwise FGLM (Faugere-Gianni-Lazard-Mora, JSC 16, 1993): the generator
    is the first linear dependency among the normal forms of 1, x, x^2, ...
    modulo the basis, so the loop ends within colength + 1 steps when the
    colength is finite.  Each row is a normal form (monomial keys) together
    with the combination of powers it stands for (integer keys), reduced
    against the earlier rows in order.
    """
    for g in basis.elements:
        if _support(g) <= {var}:
            return {m[var]: c for m, c in g.terms()}
    step = tuple(int(i == var) for i in range(basis.ring.arity))
    rows = []
    nf = normal_form(basis.ring.one(), basis)
    for k in itertools.count():
        vec = dict(nf.terms())
        vec[k] = Fraction(1)
        for pivot, row in rows:
            c = vec.get(pivot)
            if c:
                for key, a in row.items():
                    vec[key] = vec.get(key, 0) - c * a
                    if not vec[key]:
                        del vec[key]
        pivot = next((key for key in vec if isinstance(key, tuple)), None)
        if pivot is None:
            return {j: vec[j] for j in range(k + 1) if j in vec}
        rows.append((pivot, {key: a / vec[pivot] for key, a in vec.items()}))
        nf = normal_form(nf.mul_term(step, 1), basis)


def _primitive(f: list) -> list:
    content = math.gcd(*f)
    return [c // content for c in f] if content else f


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


def _rational_roots(coeffs: dict):
    """The distinct rational roots of a nonzero polynomial, given as
    {exponent: nonzero coefficient}, with their multiplicities, as sorted
    (root, multiplicity) pairs, and whether they split it over Q.

    The power x^zeros of least exponent is split off before the rest is
    listed densely, so x^zeros alone costs nothing whatever its degree.  The
    rational root theorem lists the candidates a/b from the squarefree part
    p / gcd(p, p'), so that their number does not grow with the
    multiplicities; p splits when that part has as many roots as its degree.
    """
    zeros = min(coeffs)
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    p = [0] * (max(coeffs) - zeros + 1)  # coefficients lowest first
    for k, c in coeffs.items():
        p[k - zeros] = c.numerator * (den // c.denominator)
    p = _primitive(p)
    g, h = list(p), _primitive([k * c for k, c in enumerate(p)][1:])
    while h:
        g, h = h, _pseudo_remainder(g, h)
    # g is primitive, so the quotient is integral (Gauss) and its end
    # coefficients divide those of p
    n = len(p) - len(g)
    rest, squarefree = list(p), [0] * (n + 1)
    for k in reversed(range(n + 1)):
        squarefree[k] = rest[k + len(g) - 1] // g[-1]
        for j, c in enumerate(g):
            rest[k + j] -= squarefree[k] * c
    low, high = (_divisors(abs(c)) for c in (squarefree[0], squarefree[-1]))
    candidates = [(a, b) for b in high for r in low if math.gcd(r, b) == 1 for a in (r, -r)]
    roots = [(Fraction(a, b), k) for a, b in candidates if (k := _multiplicity(p, a, b))]
    return sorted(roots + [(Fraction(0), zeros)] * bool(zeros)), len(roots) == n


def _divisors(n: int):
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def _points_from_basis(I: Ideal, basis: StandardBasis):
    """Rational points P of Z(I) from its degrevlex basis (finite colength),
    each with the multiplicities k_i of P_i in the eliminants, as sorted
    (P, k) pairs.

    Each coordinate ranges over the rational roots of its eliminant, and the
    candidate grid is filtered by exact evaluation of the generators in more
    than one variable: one in x_i alone lies in I meet Q[x_i], so it is a
    multiple of the eliminant and vanishes on the whole grid.
    """
    ring = I.ring
    # the unit ideal, whose basis is (1), has no points in any characteristic
    if ring.domain.char and any(map(any, basis.leading_monomials())):
        raise InputError("point splitting needs characteristic 0")
    roots_per_var = []
    for i in range(ring.arity):
        roots, split = _rational_roots(_eliminant(basis, i))
        if not split:
            raise IrrationalPoint(
                f"support of the ideal has irrational {ring.variables[i]}-coordinates"
            )
        roots_per_var.append(roots)
    mixed = [g for g in I.generators if len(_support(g)) > 1]
    grid = (tuple(zip(*combo)) for combo in itertools.product(*roots_per_var))
    return sorted((P, k) for P, k in grid if all(g.evaluate(P) == 0 for g in mixed))


def rational_points_of_zero_dim(I: Ideal):
    """All rational points of a zero-dimensional Z(I), over Q.

    InputError if Z(I) is not zero-dimensional or the field is not Q;
    IrrationalPoint if a coordinate of the support is irrational.
    """
    basis = groebner_basis(I)
    if isinstance(staircase_count(basis.leading_monomials(), I.ring.arity), Infinite):
        raise InputError("ideal is not zero-dimensional")
    return tuple(P for P, _ in _points_from_basis(I, basis))


def _length_at(I: Ideal, P: tuple, k: tuple) -> int:
    """mu_P, the length of Q[x]/I at a point P of a zero-dimensional Z(I),
    from the multiplicities k_i of P_i in the eliminants e_i.

    Near P, (x_i - P_i)^k_i is e_i times a unit, so J = I + ((x_i - P_i)^k_i)_i
    agrees with I there and is supported at P alone: mu_P = dim Q[x]/J.  In
    the coordinates t = x - P, J is the generators expanded at P and cut to
    the box t^m with every m_i < k_i, plus the pins t_i^k_i.  A generator in
    x_i alone is a multiple of e_i, so its cut vanishes and it is skipped.
    J is the point itself when every k_i is 1, the whole box when the cut
    generators vanish, and otherwise its global degrevlex colength counts it.
    """
    if all(e == 1 for e in k):
        return 1
    cut = [g.shift(P, k) for g in I.generators if len(_support(g)) > 1]
    if not any(cut):
        return math.prod(k)
    n = I.ring.arity
    pins = [Polynomial(I.ring, {tuple(e * (i == j) for j in range(n)): 1}) for i, e in enumerate(k)]
    return colength(Ideal(I.ring, cut + pins))


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
    # J contains I, and the cone of a nonempty scheme is nonempty: J = (1)
    # exactly when I = (1)
    if reduced.elements and reduced.elements[0].total_degree() == 0:
        raise UnitIdeal("normal cone of the empty scheme")
    J_canonical = Ideal(doubled, reduced.elements)
    fiber_indices = tuple(range(n, n + r))
    dim = monomial_ideal_dimension(reduced.leading_monomials(), doubled.arity)
    conic = _fiber_homogeneous(reduced.elements, fiber_indices)
    components = _monomial_components(reduced, doubled)
    return ConeIdealReport(J_canonical, n, fiber_indices, dim, conic, components)


def _fiber_homogeneous(elements, fiber_indices) -> bool:
    fibers = set(fiber_indices)
    for g in elements:
        degrees = {sum(m[i] for i in fibers) for m, _ in g.terms()}
        if len(degrees) > 1:
            return False
    return True


def is_conic(J: Ideal, fiber_indices: Sequence[int]) -> bool:
    """Certify invariance under fiber scaling: a reduced basis must be
    homogeneous in the fiber variables."""
    return _fiber_homogeneous(groebner_basis(J).elements, fiber_indices)


def _monomial_components(basis: StandardBasis, ring: Ring):
    """Minimal primes and generic lengths when the basis is monomial.

    Minimal primes of a monomial ideal are the minimal coordinate covers of
    the generator supports; the generic length along a prime sets the other
    variables to 1 and counts the staircase of what remains.
    """
    monos = []
    for g in basis.elements:
        if len(g.terms()) != 1:
            return None
        monos.append(g.terms()[0][0])
    gens = monomial_minimal_generators(monos)
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


def component_conormal_check(report: ConeIdealReport) -> bool:
    """For a cone in canonical coordinates (fiber count equals arity), check
    that every component is the conormal subspace of its projection."""
    if report.components is None or len(report.fiber_indices) != report.base_arity:
        return False
    n = report.base_arity
    for _, prime in report.components:
        base_part = frozenset(i for i in prime if i < n)
        expected = base_part | frozenset(n + j for j in range(n) if j not in base_part)
        if prime != expected:
            return False
    return True


# ----------------------------------------------------- distinguished cycles

SMOOTH = "smooth"
REGULAR_SEQUENCE = "regular-sequence"
MONOMIAL = "monomial"


@dataclass(frozen=True)
class Presentation:
    """A declared presentation class together with the ideal of X."""

    kind: str
    ideal: Ideal

    def __post_init__(self):
        if self.kind not in (SMOOTH, REGULAR_SEQUENCE, MONOMIAL):
            raise UnsupportedPresentation(f"unknown presentation class {self.kind!r}")


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
    """
    from .singular import jacobian_ideal

    I = jacobian_ideal(f)
    arity_many = len(I.generators) == I.ring.arity
    if all(len(g.terms()) == 1 for g in I.generators):
        monos = [g.terms()[0][0] for g in I.generators]
        finite = not isinstance(staircase_count(monos, I.ring.arity), Infinite)
        return Presentation(REGULAR_SEQUENCE if arity_many and finite else MONOMIAL, I)
    if arity_many:
        return Presentation(REGULAR_SEQUENCE, I)
    raise UnsupportedPresentation(
        "critical locus is neither presented by arity-many partials "
        "nor by monomial partials"
    )


def distinguished_cycle(presentation: Presentation) -> Cycle:
    """The signed cycle of the normal cone of X in its ambient space.

    Smooth class: (-1)^dim [X].  Zero-dimensional regular sequences (over
    Q): the cone is X x A^n, so the cycle is the sum of mu_P [P] over the
    rational support points, each mu_P read off the eliminants
    (IrrationalPoint if the support is not rational).  Monomial class: combinatorial components of the cone ideal,
    each contributing (-1)^(dim of projection) * multiplicity times its
    projection.
    """
    I = presentation.ideal
    ring = I.ring
    if presentation.kind == SMOOTH:
        dim = krull_dimension(I)
        if dim < 0:
            raise UnsupportedPresentation("the empty scheme has no cycle")
        return Cycle([((-1) ** dim, SmoothVarietyCycle(I))])
    if presentation.kind == REGULAR_SEQUENCE:
        if len(I.generators) != ring.arity:
            raise UnsupportedPresentation(
                "regular-sequence class needs exactly arity-many generators, "
                f"got {len(I.generators)}"
            )
        basis = groebner_basis(I)
        total = staircase_count(basis.leading_monomials(), ring.arity)
        if isinstance(total, Infinite):
            raise UnsupportedPresentation("regular-sequence class requires finite colength")
        terms = []
        accounted = 0
        for P, k in _points_from_basis(I, basis):
            mu = _length_at(I, P, k)
            accounted += mu
            terms.append((mu, PointCycle(ring, tuple(Fraction(c) for c in P))))
        if accounted != total:
            raise IrrationalPoint(
                f"rational points account for length {accounted} of {total}; "
                "the remaining support is irrational"
            )
        return Cycle(terms)
    # monomial class
    for g in I.generators:
        if len(g.terms()) != 1:
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

    Linear in the cycle; 1 on smooth descriptors through the point, the
    Hilbert-Samuel multiplicity on curves (classical import), 0 away from
    the support.
    """
    total = 0
    for coeff, d in c.terms:
        total += coeff * _eu_descriptor(d, point)
    return total


def _eu_descriptor(d: Descriptor, point) -> int:
    if isinstance(d, PointCycle):
        P = as_point(point, d.ring)
        return 1 if P == d.coordinates else 0
    if isinstance(d, CoordinateSubspaceCycle):
        P = as_point(point, d.ring)
        return 1 if all(P[i] == 0 for i in d.zero_vars) else 0
    if isinstance(d, SmoothVarietyCycle):
        P = as_point(point, d.ideal.ring)
        return 1 if all(g.evaluate(P) == 0 for g in d.ideal.generators) else 0
    if isinstance(d, CurveCycle):
        P = as_point(point, d.ideal.ring)
        if any(g.evaluate(P) != 0 for g in d.ideal.generators):
            return 0
        return hs_multiplicity(shift_ideal(d.ideal, P))
    raise UnsupportedCycleKind(f"Euler obstruction undefined for {d!r}")


def nu_from_cycle(presentation: Presentation, point) -> int:
    """nu via the cycle route: Euler obstruction of the distinguished cycle."""
    return euler_obstruction(distinguished_cycle(presentation), point)


# ------------------------------------------------- conormal correspondence

def conormal_L(c: Cycle) -> Cycle:
    """Send each prime cycle V to (-1)^(dim V) times its conormal closure."""
    terms = []
    for coeff, d in c.terms:
        if isinstance(d, ConormalCycle):
            raise KindMismatch("conormal_L expects base cycles")
        terms.append((coeff * (-1) ** d.dimension(), ConormalCycle(d)))
    return Cycle(terms)


def projection_pi(c: Cycle) -> Cycle:
    """Inverse map: unwrap conormal descriptors with sign (-1)^(dim of the
    projection)."""
    terms = []
    for coeff, d in c.terms:
        if not isinstance(d, ConormalCycle):
            raise KindMismatch("projection_pi expects conormal cycles")
        base = d.base
        terms.append((coeff * (-1) ** base.dimension(), base))
    return Cycle(terms)
