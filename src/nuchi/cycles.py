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
  cycle is the sum of local colengths at the rational support points;
* monomial ideals: components of the cone and their generic lengths are
  combinatorial whenever the reduced cone basis is monomial (minimal
  coordinate covers; lengths count staircase cells after setting off-prime
  variables to 1).

External mathematical import: the local Euler obstruction of a curve at a
point equals its Hilbert-Samuel multiplicity there.  It is used only for
curve-kind cycle descriptors and is flagged in CLI provenance.

Splitting a zero-dimensional ideal into points is done with univariate
eliminants and exact rational root extraction; non-rational support raises
IrrationalPoint rather than approximating.
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
    DEGREVLEX,
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

    def dimension(self) -> int:
        # conic Lagrangian: always the ambient dimension of the base
        base_ring = _descriptor_ring(self.base)
        return base_ring.arity

    def sort_key(self):
        return (4,) + self.base.sort_key()

    def to_payload(self):
        return {"kind": "conormal", "data": {"base": self.base.to_payload()}}


Descriptor = Union[
    PointCycle, SmoothVarietyCycle, CurveCycle, CoordinateSubspaceCycle, ConormalCycle
]


def _descriptor_ring(d: Descriptor) -> Ring:
    if isinstance(d, (PointCycle, CoordinateSubspaceCycle)):
        return d.ring
    if isinstance(d, (SmoothVarietyCycle, CurveCycle)):
        return d.ideal.ring
    if isinstance(d, ConormalCycle):
        return _descriptor_ring(d.base)
    raise UnsupportedCycleKind(f"unknown descriptor {d!r}")


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

    def __add__(self, other: "Cycle") -> "Cycle":
        return Cycle(self.terms + other.terms)

    def scale(self, k: int) -> "Cycle":
        return Cycle([(k * c, d) for c, d in self.terms])

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


# ------------------------------------------------------- univariate splitting

def _univariate_coeffs(g: Polynomial, var: int) -> list:
    coeffs = [Fraction(0)] * (g.degree_in(var) + 1)
    for mono, c in g.terms():
        if any(e and i != var for i, e in enumerate(mono)):
            raise InputError(f"{g} is not univariate in variable {var}")
        coeffs[mono[var]] += c
    return coeffs


def _uni_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _uni_trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def _uni_divmod(a, b):
    a = list(a)
    out = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(_uni_trim(a)) >= len(b):
        a = _uni_trim(a)
        shift = len(a) - len(b)
        q = a[-1] / b[-1]
        out[shift] = q
        for i, c in enumerate(b):
            a[shift + i] -= q * c
    return out, _uni_trim(a)


def _uni_gcd(a, b):
    a, b = _uni_trim(list(a)), _uni_trim(list(b))
    while b:
        _, r = _uni_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _uni_derivative(coeffs):
    return _uni_trim([coeffs[i] * i for i in range(1, len(coeffs))])


def _rational_roots_squarefree(coeffs):
    """All rational roots of a squarefree polynomial, plus a fully-split flag."""
    coeffs = _uni_trim(list(coeffs))
    if len(coeffs) <= 1:
        return [], True
    roots = []
    # factor out x^k
    k = 0
    while coeffs[k] == 0:
        k += 1
    if k:
        roots.append(Fraction(0))
        coeffs = coeffs[k:]
    # clear denominators to integers
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    a0, an = abs(ints[0]), abs(ints[-1])
    if a0 == 0:
        candidates = set()
    else:
        candidates = {
            Fraction(s * p, q)
            for p in _divisors(a0)
            for q in _divisors(an)
            for s in (1, -1)
        }
    work = [Fraction(c) for c in ints]
    for cand in sorted(candidates):
        if len(work) <= 1:
            break
        if _uni_eval(work, cand) == 0:
            roots.append(cand)
            work, rem = _uni_divmod(work, [-cand, Fraction(1)])
            assert not rem
    return sorted(roots), len(_uni_trim(work)) <= 1


def _divisors(n: int):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def rational_points_of_zero_dim(I: Ideal):
    """All rational points of a zero-dimensional Z(I).

    Per-variable eliminants are made squarefree and split over Q; any
    irrational coordinate raises IrrationalPoint.  The candidate grid is
    filtered by exact evaluation.
    """
    ring = I.ring
    roots_per_var = []
    for i in range(ring.arity):
        elim = eliminate(I, set(range(ring.arity)) - {i})
        if not elim.generators:
            raise InputError("ideal is not zero-dimensional: empty eliminant")
        gen = min(elim.generators, key=lambda g: g.degree_in(i))
        coeffs = _univariate_coeffs(gen, i)
        sqfree = coeffs
        deriv = _uni_derivative(coeffs)
        if deriv:
            g = _uni_gcd(coeffs, deriv)
            if len(g) > 1:
                sqfree, rem = _uni_divmod(coeffs, g)
                assert not rem
        roots, split = _rational_roots_squarefree(sqfree)
        if not split:
            raise IrrationalPoint(
                f"support of the ideal has irrational {ring.variables[i]}-coordinates"
            )
        roots_per_var.append(roots)
    points = []
    for combo in itertools.product(*roots_per_var):
        if all(g.evaluate(combo) == 0 for g in I.generators):
            points.append(tuple(combo))
    return tuple(sorted(points))


def local_colength_at(I: Ideal, point) -> int:
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
    gb = groebner_basis(I)
    if gb.elements and gb.elements[0].total_degree() == 0:
        raise UnitIdeal("normal cone of the empty scheme")
    stem = "p" if r == n else "y"
    fiber_names = _fresh_names(ring.variables, [f"{stem}{k + 1}" for k in range(r)])
    doubled = Ring(ring.variables + tuple(fiber_names), ring.domain)
    if r == 0:
        report_ideal = Ideal(doubled, [])
        return ConeIdealReport(report_ideal, n, (), n, True, ())
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
    J_canonical = Ideal(doubled, reduced.elements)
    fiber_indices = tuple(range(n, n + r))
    if reduced.elements:
        dim = monomial_ideal_dimension(reduced.leading_monomials(), doubled.arity)
    else:
        dim = doubled.arity
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
    if not monos:
        return ()
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

    Prefers the regular-sequence class (generator count equals arity and the
    colength is finite), falls back to the monomial class when the partials
    are monomials, and refuses otherwise.
    """
    from .singular import jacobian_ideal

    I = jacobian_ideal(f)
    if len(I.generators) == I.ring.arity and not isinstance(
        colength(I, DEGREVLEX), Infinite
    ):
        return Presentation(REGULAR_SEQUENCE, I)
    if I.generators and all(len(g.terms()) == 1 for g in I.generators):
        return Presentation(MONOMIAL, I)
    raise UnsupportedPresentation(
        "critical locus is neither zero-dimensional with arity-many partials "
        "nor presented by monomial partials"
    )


def distinguished_cycle(presentation: Presentation) -> Cycle:
    """The signed cycle of the normal cone of X in its ambient space.

    Smooth class: (-1)^dim [X].  Zero-dimensional regular sequences: the
    cone is X x A^n, so the cycle is sum of local colengths over the
    rational support points (IrrationalPoint if the support is not
    rational).  Monomial class: combinatorial components of the cone ideal,
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
        total = colength(I, DEGREVLEX)
        if isinstance(total, Infinite):
            raise UnsupportedPresentation("regular-sequence class requires finite colength")
        points = rational_points_of_zero_dim(I)
        terms = []
        accounted = 0
        for P in points:
            mu = local_colength_at(I, P)
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
