import itertools
import math
import random
import signal
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nuchi.errors import (
    ArityMismatch,
    InputError,
    IrrationalPoint,
    UnitIdeal,
    UnsupportedPresentation,
)
import nuchi.cli as cli_module
import nuchi.cycles as cycles_module
import nuchi.groebner as groebner
from nuchi.cli import run_job
from nuchi.groebner import Ideal, colength, eliminant, eliminate, groebner_basis
from nuchi.poly import GF, Polynomial, Ring
from nuchi.singular import behrend_at, coerce_point, jacobian_ideal, milnor_number
from nuchi.cycles import (
    _rational_roots,
    CoordinateSubspaceCycle,
    Cycle,
    PointCycle,
    SmoothVarietyCycle,
    distinguished_cycle,
    euler_obstruction,
    local_colength_at,
    monomial_presentation,
    normal_cone_ideal,
    nu_from_cycle,
    presentation_from_critical_locus,
    rational_points_of_zero_dim,
    regular_sequence_presentation,
    smooth_presentation,
)

from .oracles import (
    KindMismatch,
    component_conormal_check,
    conormal_L,
    dict_merged_terms,
    is_conic,
    projection_pi,
)

R1 = Ring(("x",))
R2 = Ring(("x", "y"))
R3 = Ring(("x", "y", "z"))


def ideal(*exprs, ring=R2):
    return Ideal.from_strings(ring, exprs)


# ------------------------------------------------------------- normal cones

def test_normal_cone_principal_ideal():
    report = normal_cone_ideal(ideal("x^2", ring=R1))
    assert [str(g) for g in report.ideal.generators] == ["x^2"]
    assert report.dimension == 1  # the ambient arity
    assert report.conic
    assert report.components == ((2, frozenset({0})),)


def test_normal_cone_regular_sequence_is_fiber_plane():
    report = normal_cone_ideal(ideal("x", "y"))
    assert set(str(g) for g in report.ideal.generators) == {"x", "y"}
    assert report.dimension == 2
    assert report.conic
    assert component_conormal_check(report)


def test_normal_cone_non_regular_sequence_dimension_only():
    report = normal_cone_ideal(ideal("x*y", "x^2"))
    assert report.dimension == 2
    assert report.conic
    assert report.components is None  # binomial components, not computed


def test_normal_cone_unit_ideal_refused():
    with pytest.raises(UnitIdeal):
        normal_cone_ideal(ideal("x", "x - 1"))


def test_normal_cone_dimension_law_gallery():
    cases = [
        (R1, ["x^2"]),
        (R1, ["x^3"]),
        (R2, ["x", "y"]),
        (R2, ["x^2", "y^2"]),
        (R2, ["x*y", "x^2"]),
        (R2, ["y^2 - x^3"]),
        (R3, ["x*y", "y*z"]),
        (R3, ["x^2", "x*y", "y^3"]),
    ]
    for ring, gens in cases:
        report = normal_cone_ideal(Ideal.from_strings(ring, gens))
        assert report.dimension == ring.arity
        assert report.conic


def test_normal_cone_fiber_naming_avoids_collisions():
    ring = Ring(("x", "p1"))
    report = normal_cone_ideal(Ideal.from_strings(ring, ["x^2", "p1"]))
    doubled = report.ideal.ring
    assert len(set(doubled.variables)) == 4
    assert report.dimension == 2


@pytest.mark.parametrize("ring", [R1, R2, R3], ids=["n=1", "n=2", "n=3"])
def test_zero_ideal_cone_has_one_component(ring):
    # Z(0) is smooth affine n-space, so every route gives nu = (-1)^n; the
    # monomial class reads it off the one component, of multiplicity 1
    zero = Ideal(ring, [])
    origin = (0,) * ring.arity
    sign = (-1) ** ring.arity
    assert normal_cone_ideal(zero).components == ((1, frozenset()),)
    assert nu_from_cycle(monomial_presentation(zero), origin) == sign
    assert nu_from_cycle(smooth_presentation(zero), origin) == sign
    assert behrend_at(zero, origin) == sign
    constant = ring.one()  # its critical locus is all of affine n-space
    assert nu_from_cycle(presentation_from_critical_locus(constant), origin) == sign
    assert behrend_at(constant, origin) == sign


# ------------------------------------------------------ distinguished cycles

def test_smooth_class_sign():
    line = distinguished_cycle(smooth_presentation(Ideal(R1, [])))
    ((coeff, descriptor),) = line.terms
    assert coeff == -1 and isinstance(descriptor, SmoothVarietyCycle)
    plane = distinguished_cycle(smooth_presentation(Ideal(R2, [])))
    assert plane.terms[0][0] == 1  # (-1)^2


def test_regular_sequence_fat_point():
    c = distinguished_cycle(regular_sequence_presentation(jacobian_ideal(R1.parse("x^3"))))
    ((coeff, descriptor),) = c.terms
    assert coeff == 2 and descriptor == PointCycle(R1, (Fraction(0),))


def test_regular_sequence_x2y2():
    c = distinguished_cycle(regular_sequence_presentation(ideal("x^2", "y^2")))
    ((coeff, descriptor),) = c.terms
    assert coeff == 4 and descriptor == PointCycle(R2, (Fraction(0), Fraction(0)))


def test_regular_sequence_split_points():
    c = distinguished_cycle(regular_sequence_presentation(ideal("x^2 - 1", "y - x")))
    assert len(c.terms) == 2 and all(coeff == 1 for coeff, _ in c.terms)


def test_regular_sequence_rejects_wrong_generator_count():
    with pytest.raises(UnsupportedPresentation):
        distinguished_cycle(regular_sequence_presentation(ideal("x^2")))


def test_regular_sequence_rejects_positive_dimension():
    with pytest.raises(UnsupportedPresentation):
        distinguished_cycle(regular_sequence_presentation(ideal("x", "x*y")))


def test_irrational_support_refused():
    with pytest.raises(IrrationalPoint):
        distinguished_cycle(regular_sequence_presentation(ideal("x^2 - 2", "y")))


def test_monomial_class_fat_line():
    c = distinguished_cycle(monomial_presentation(ideal("x^2")))
    ((coeff, descriptor),) = c.terms
    assert coeff == -2
    assert descriptor == CoordinateSubspaceCycle(R2, frozenset({0}))


def test_monomial_class_node():
    c = distinguished_cycle(monomial_presentation(ideal("x*y")))
    assert c.terms == (
        (-1, CoordinateSubspaceCycle(R2, frozenset({0}))),
        (-1, CoordinateSubspaceCycle(R2, frozenset({1}))),
    )


def test_monomial_class_refuses_binomial_cone():
    with pytest.raises(UnsupportedPresentation):
        distinguished_cycle(monomial_presentation(ideal("x*y", "x^2")))


def test_monomial_class_requires_monomial_generators():
    with pytest.raises(UnsupportedPresentation):
        distinguished_cycle(monomial_presentation(ideal("x + y")))


# ------------------------------------------------------------------- cycles

# Few coordinates, two rings and coefficients in -2..2, so points repeat,
# coefficients cancel, and unequal descriptors share a sort key (the same
# coordinates or zero variables in another ring).  Int coordinates give
# points equal to Fraction ones.
UV = Ring(("u", "v"))
_coordinate = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1), 0, -1])
_descriptors = st.one_of(
    st.builds(PointCycle, st.sampled_from([R2, UV]), st.tuples(_coordinate, _coordinate)),
    st.builds(CoordinateSubspaceCycle, st.sampled_from([R2, UV]),
              st.frozensets(st.integers(0, 1))),
    st.builds(SmoothVarietyCycle, st.sampled_from([ideal("y - x^2"), ideal("x", "y")])),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 2), _descriptors), max_size=12))
def test_cycle_merge_matches_the_dict_merge(terms):
    got, want = Cycle(terms).terms, dict_merged_terms(terms)
    assert got == want
    # the descriptor kept for equal ones is the first occurrence, as in a dict
    assert [id(d) for _, d in got] == [id(d) for _, d in want]


_rational = st.builds(
    Fraction, st.integers(-20, 20) | st.integers(-10**12, 10**12), st.integers(1, 30)
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(st.tuples(*[_rational] * n), max_size=8)))
def test_point_keys_order_as_the_text_of_their_fractions(points):
    # a point's key is its coordinates' text, and it orders the points of one
    # ring, and so the payload, as the text of their tuples of Fractions
    ring = Ring(("x", "y", "z")[: len(points[0])]) if points else R1
    assert sorted(points, key=lambda P: PointCycle(ring, P).sort_key()) == sorted(points, key=str)


# --------------------------------------------------------- Euler obstruction

def test_euler_obstruction_point_cycles():
    c = Cycle([(2, PointCycle(R2, (Fraction(0), Fraction(0))))])
    assert euler_obstruction(c, (0, 0)) == 2
    assert euler_obstruction(c, (1, 0)) == 0


def test_euler_obstruction_smooth_curve():
    c = Cycle([(1, SmoothVarietyCycle(ideal("y - x^2")))])
    assert euler_obstruction(c, (1, 1)) == 1
    assert euler_obstruction(c, (1, 2)) == 0


def test_euler_obstruction_linearity():
    c = Cycle(
        [
            (3, PointCycle(R2, (Fraction(0), Fraction(0)))),
            (-1, CoordinateSubspaceCycle(R2, frozenset({0}))),
        ]
    )
    assert euler_obstruction(c, (0, 0)) == 2
    assert euler_obstruction(c, (0, 5)) == -1


def test_empty_cycle_still_checks_the_point():
    # the unit ideal has the empty cycle, which has no ring of its own
    unit = regular_sequence_presentation(ideal("1", "x"))
    assert distinguished_cycle(unit).is_zero()
    assert nu_from_cycle(unit, (0, 0)) == 0
    with pytest.raises(ArityMismatch):
        nu_from_cycle(unit, (0,))
    F5 = Ring(("x", "y"), GF(5))
    unit_p = regular_sequence_presentation(Ideal.from_strings(F5, ["1", "x"]))
    with pytest.raises(InputError, match="divisible by p = 5"):
        nu_from_cycle(unit_p, (Fraction(1, 5), 0))


def test_a_nu_job_coerces_its_point_once(monkeypatch):
    # the job and nu_from_cycle coerce the point before the cycle is built,
    # and its Euler obstruction reads the point as it is; the public
    # euler_obstruction coerces the point it is given
    calls = []
    real = coerce_point

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (cli_module, cycles_module):
        monkeypatch.setattr(module, "coerce_point", counting)
    spec = {"command": "nu", "ring": {"vars": ["x", "y"]},
            "critical_locus": "x^3 - 3*x + y^2", "point": "1,0"}
    assert run_job(spec, use_cache=False)["payload"]["nu"] == 1
    assert len(calls) == 1
    presentation = presentation_from_critical_locus(R2.parse("x^3 - 3*x + y^2"))
    calls.clear()
    assert nu_from_cycle(presentation, (1, 0)) == 1 and len(calls) == 1
    calls.clear()
    assert euler_obstruction(distinguished_cycle(presentation), (-1, 0)) == 1 and len(calls) == 1


# --------------------------------------------------------- route equivalence

@pytest.mark.parametrize(
    "f_str,ring",
    [("x^3", R1), ("x^3 + y^3", R2), ("x*y", R2)]
    + [(f"x^{k + 1} + y^2", R2) for k in range(1, 9)],
)
def test_two_routes_agree(f_str, ring):
    f = ring.parse(f_str)
    origin = (0,) * ring.arity
    pres = regular_sequence_presentation(jacobian_ideal(f))
    assert nu_from_cycle(pres, origin) == behrend_at(f, origin)


def test_two_routes_agree_on_nonmonomial_jacobians():
    # E6 (x^3 + y^4, mu = 6) and D4 (x^3 - x*y^2, mu = 4)
    for f_str, mu in [("x^3 + y^4", 6), ("x^3 - x*y^2", 4)]:
        f = R2.parse(f_str)
        pres = regular_sequence_presentation(jacobian_ideal(f))
        assert nu_from_cycle(pres, (0, 0)) == behrend_at(f, (0, 0)) == mu


def test_cycle_route_splits_multi_point_critical_locus():
    # (x^2 - 1)^2 + y^2 has three nondegenerate critical points
    f = R2.parse("(x^2 - 1)^2 + y^2")
    pres = regular_sequence_presentation(jacobian_ideal(f))
    for point in [(0, 0), (1, 0), (-1, 0)]:
        assert nu_from_cycle(pres, point) == behrend_at(f, point) == 1
    assert nu_from_cycle(pres, (2, 0)) == 0  # not a critical point


def test_nu_smooth_surface_from_cycle():
    pres = smooth_presentation(Ideal(R2, []))
    assert nu_from_cycle(pres, (3, 4)) == 1  # (-1)^2


def test_monomial_route_matches_milnor_on_fat_line():
    # f = x^3 in two variables: the critical locus is the fat line x^2 = 0
    pres = presentation_from_critical_locus(R2.parse("x^3"))
    assert pres.kind == "monomial"
    assert nu_from_cycle(pres, (0, 0)) == -2
    assert nu_from_cycle(pres, (0, 7)) == -2  # constant along the line


# -------------------------------------------------- conormal correspondence

def test_conormal_signs():
    pt = Cycle([(1, PointCycle(R2, (Fraction(0), Fraction(0))))])
    assert conormal_L(pt).terms[0][0] == 1  # (-1)^0
    line = Cycle([(1, CoordinateSubspaceCycle(R2, frozenset({1})))])
    assert conormal_L(line).terms[0][0] == -1  # (-1)^1


def test_conormal_round_trips_randomized():
    rng = random.Random(5)
    descriptors = [
        PointCycle(R2, (Fraction(0), Fraction(0))),
        PointCycle(R2, (Fraction(1), Fraction(-2))),
        SmoothVarietyCycle(ideal("y - x^2")),
        CoordinateSubspaceCycle(R2, frozenset({0})),
        CoordinateSubspaceCycle(R2, frozenset({0, 1})),
    ]
    for _ in range(50):
        terms = [
            (rng.randint(-5, 5), rng.choice(descriptors))
            for _ in range(rng.randint(1, 4))
        ]
        c = Cycle(terms)
        assert projection_pi(conormal_L(c)) == c
        if not c.is_zero():
            lifted = conormal_L(c)
            assert conormal_L(projection_pi(lifted)) == lifted


def test_conormal_kind_mismatches():
    pt = Cycle([(1, PointCycle(R2, (Fraction(0), Fraction(0))))])
    with pytest.raises(KindMismatch):
        projection_pi(pt)
    with pytest.raises(KindMismatch):
        conormal_L(conormal_L(pt))


# ------------------------------------------------------------------ conicity

def test_is_conic_examples():
    doubled = Ring(("x", "y", "p1", "p2"))
    assert not is_conic(Ideal.from_strings(doubled, ["p1 - 1"]), (2, 3))
    assert is_conic(Ideal.from_strings(doubled, ["x*p2 - y*p1"]), (2, 3))


def test_cone_components_are_conormals_of_projections():
    # canonical-coordinate cones from arity-many generators
    for gens, ring in [(("x", "y"), R2), (("x^2", "y"), R2), (("x^2",), R1)]:
        report = normal_cone_ideal(Ideal.from_strings(ring, gens))
        assert report.components is not None
        assert component_conormal_check(report)


# ------------------------------------------------------------------ splitting

def test_rational_points_enumeration():
    pts = rational_points_of_zero_dim(ideal("x^2 - 1", "y - x"))
    assert pts == ((Fraction(-1), Fraction(-1)), (Fraction(1), Fraction(1)))


def test_rational_points_with_fractions():
    pts = rational_points_of_zero_dim(ideal("2*x - 1", "3*y + 2"))
    assert pts == ((Fraction(1, 2), Fraction(-2, 3)),)


def test_rational_points_irrational_refused():
    with pytest.raises(IrrationalPoint):
        rational_points_of_zero_dim(ideal("x^2 - 2", "y"))


def test_rational_points_with_multiplicities():
    I = ideal("x^3*(x - 1)^2", "y^2*(2*y + 3)")
    points = [(Fraction(a), Fraction(b)) for a in (0, 1) for b in (Fraction(-3, 2), 0)]
    assert rational_points_of_zero_dim(I) == tuple(points)
    c = distinguished_cycle(regular_sequence_presentation(I))
    assert [(coeff, d.coordinates) for coeff, d in c.terms] == list(zip([3, 6, 2, 4], points))


def test_rational_points_refuses_positive_dimension():
    with pytest.raises(InputError, match="zero-dimensional"):
        rational_points_of_zero_dim(ideal("x", "x*y"))


def test_point_splitting_needs_characteristic_zero():
    F5 = Ring(("x", "y"), GF(5))
    I = Ideal.from_strings(F5, ["x^2 - 1", "y"])
    with pytest.raises(InputError, match="characteristic 0"):
        rational_points_of_zero_dim(I)
    with pytest.raises(InputError, match="characteristic 0"):
        distinguished_cycle(regular_sequence_presentation(I))
    # the unit ideal has no points to split, so F_p still gets its answer
    unit = Ideal.from_strings(F5, ["x + 1", "x"])
    assert rational_points_of_zero_dim(unit) == ()
    assert distinguished_cycle(regular_sequence_presentation(unit)).is_zero()
    assert nu_from_cycle(presentation_from_critical_locus(F5.parse("x + y^2")), (0, 0)) == 0


def test_high_multiplicity_root_splits_quickly():
    # the eliminant (x - 1000)^6 has constant term 10^18; its candidates come
    # from the squarefree part x - 1000, so listing them takes about 30 steps
    # rather than the 10^9 of trial division up to sqrt(10^18)
    f = R2.parse("(x - 1000)^7 + y^2")
    start = time.perf_counter()
    c = distinguished_cycle(presentation_from_critical_locus(f))
    assert time.perf_counter() - start < 10.0
    assert [(coeff, d.coordinates) for coeff, d in c.terms] == [(6, (1000, 0))]
    I = ideal("(x - 1000)^6*(2*x + 3)^2", "(y + 999)^7")
    assert rational_points_of_zero_dim(I) == ((Fraction(-3, 2), -999), (1000, -999))


@pytest.mark.parametrize("ring", [R2, R3], ids=["arity-many", "too-few"])
def test_non_finite_critical_locus_refused(ring):
    # the partials of (x-y)^3 cut out a fat line: arity-many of them are
    # refused by the colength check, fewer by the presentation choice
    with pytest.raises(UnsupportedPresentation):
        nu_from_cycle(presentation_from_critical_locus(ring.parse("(x - y)^3")), (0,) * ring.arity)


# Under the normal strategy the reference block-elimination basis ran for
# over 20 s on a sheared ideal of colength 30, the example below; the sugar
# strategy answers it at once.  Drawn generators keep degree at most 4.
roots_with_multiplicity = st.lists(
    st.tuples(
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)), st.integers(1, 3)
    ),
    min_size=1,
    max_size=2,
    unique_by=lambda re: re[0],
).filter(lambda rs: sum(e for _, e in rs) <= 4)


@settings(max_examples=40)
@given(
    st.tuples(roots_with_multiplicity, roots_with_multiplicity),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2)]),
)
@example(([(1, 3), (Fraction(3, 2), 2)], [(2, 3), (0, 3)]), Fraction(1))  # colength 30
def test_fglm_eliminant_matches_elimination(roots, shear):
    # Z(I) is the grid of roots in the coordinates u = x, v = y + shear*x
    # (unit lower-triangular; shear 0 is the identity)
    x, y = R2.variable(0), R2.variable(1)
    gens = []
    for coordinate, rs in zip((x, y + shear * x), roots):
        g = R2.one()
        for r, e in rs:
            g = g * (coordinate - r) ** e
        gens.append(g)
    I = Ideal(R2, gens)
    basis = groebner_basis(I)
    for var in (0, 1):
        (reference,) = eliminate(I, {1 - var}).generators
        # the monic reference times the lcm of its denominators: the same
        # polynomial with content 1 and a positive lead, in integers
        den = math.lcm(*(c.denominator for _, c in reference.terms()))
        expected = {m[var]: int(c * den) for m, c in reference.terms()}
        coefficients = eliminant(basis, var)
        assert coefficients == expected
        assert all(type(c) is int for c in coefficients.values())
    grid = {(r, s - shear * r): e * f for r, e in roots[0] for s, f in roots[1]}
    assert rational_points_of_zero_dim(I) == tuple(sorted(grid))
    c = distinguished_cycle(regular_sequence_presentation(I))
    assert {d.coordinates: coeff for coeff, d in c.terms} == grid


def test_rational_roots_report_multiplicities():
    # x^3 (x - 1000)^6 (2x + 3)^2: the root 0 comes from the factored-out
    # power of x, the others from exact division by b*x - a
    f = R1.parse("x^3*(x - 1000)^6*(2*x + 3)^2")
    coeffs = {m[0]: c for m, c in f.terms()}
    assert _rational_roots(coeffs) == (
        [(Fraction(-3, 2), 2), (Fraction(0), 3), (Fraction(1000), 6)], True
    )
    assert _rational_roots({0: Fraction(-2), 2: Fraction(1)}) == ([], False)  # x^2 - 2


def times(f, g):
    """The product of two integer coefficient lists, lowest first."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@st.composite
def planted_roots(draw):
    """(roots, multiplicities): distinct nonzero rationals a/b with |a| up to
    10^15 and b <= 12, some as +-a/b pairs and some over a shared
    denominator, each of multiplicity 1..4."""
    numerators = st.one_of(st.integers(1, 30), st.integers(1, 10**15))
    shared = draw(st.integers(1, 12))
    roots = set()
    for a in draw(st.lists(numerators, min_size=1, max_size=3)):
        b = draw(st.one_of(st.just(shared), st.integers(1, 12)))
        signs = draw(st.sampled_from([(1,), (-1,), (1, -1)]))
        roots.update(Fraction(s * a, b) for s in signs)
    roots = sorted(roots)
    return roots, [draw(st.integers(1, 4)) for _ in roots]


@settings(max_examples=150)
@given(
    planted_roots(),
    st.integers(1, 10**6) | st.integers(-10**6, -1),
    st.integers(0, 3),
    st.sampled_from([None, [-2, 0, 1], [1, 1, 1]]),  # none, x^2 - 2, x^2 + x + 1
)
def test_rational_roots_find_the_planted_roots(planted, content, zeros, extra):
    # content * x^zeros * prod (b*x - a)^e [* a factor without rational roots]:
    # exactly the planted roots come back, and they split it iff nothing else
    # is there; a finder that divides out each root it finds can lose the
    # second root of a +-a/b pair
    roots, multiplicities = planted
    f = [content]
    for r, e in zip(roots, multiplicities):
        for _ in range(e):
            f = times(f, [-r.numerator, r.denominator])
    if extra:
        f = times(f, extra)
    coeffs = {k + zeros: c for k, c in enumerate(f) if c}
    expected = sorted(list(zip(roots, multiplicities)) + [(Fraction(0), zeros)] * bool(zeros))
    with time_limit(5):
        found, split = _rational_roots(coeffs)
    assert found == expected and split == (extra is None)
    assert all(type(r) is Fraction for r, _ in found)


NAMES = ("x", "y", "z")
shears = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2)])


def unit_lower_triangular(n, entries):
    """The coordinates u = T x, with T unit lower-triangular and its entries
    below the diagonal taken in row order."""
    ring = Ring(NAMES[:n])
    below = iter(entries)
    return [
        ring.variable(i) + sum((next(below) * ring.variable(j) for j in range(i)), ring.zero())
        for i in range(n)
    ]


def solve_unit_lower_triangular(n, entries, u):
    below = iter(entries)
    x = []
    for i in range(n):
        x.append(u[i] - sum(next(below) * x[j] for j in range(i)))
    return tuple(x)


@st.composite
def grids(draw):
    """(n, roots per coordinate, entries of T) for a grid of roots in the
    coordinates u = T x.

    Mora bases, the oracle here, run past seconds in three variables once
    multiple roots meet mixed coordinates, so there each coordinate has one
    root, and T is the identity unless every root is simple.
    """
    n = draw(st.integers(1, 3))
    roots = [draw(roots_with_multiplicity) for _ in range(n)]
    entries = [draw(shears) for _ in range(n * (n - 1) // 2)]
    if n == 3:
        roots = [rs[:1] for rs in roots]
        if any(e > 1 for rs in roots for _, e in rs):
            entries = [Fraction(0)] * len(entries)
    return n, roots, entries


@settings(max_examples=100)
@given(st.data())
def test_eliminant_lengths_match_mora(data):
    # Z(I) is the grid of roots in the coordinates u = T x; the second
    # generator may also carry a multiple of the first, which changes the
    # generators but not the ideal
    n, roots, entries = data.draw(grids())
    u = unit_lower_triangular(n, entries)
    gens = []
    for coordinate, rs in zip(u, roots):
        g = coordinate.ring.one()
        for r, e in rs:
            g = g * (coordinate - r) ** e
        gens.append(g)
    if n > 1 and data.draw(st.booleans()):
        gens[1] = gens[1] + u[0] * gens[0]
    I = Ideal(u[0].ring, gens)
    c = distinguished_cycle(regular_sequence_presentation(I))
    expected = {}
    for combo in itertools.product(*roots):
        P = solve_unit_lower_triangular(n, entries, [r for r, _ in combo])
        expected[P] = math.prod(e for _, e in combo)
    assert {d.coordinates: coeff for coeff, d in c.terms} == expected
    for coeff, d in c.terms:
        assert coeff == local_colength_at(I, d.coordinates)


@contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_multiple_roots_in_mixed_coordinates_answer_quickly():
    # a sheared critical locus of length 40 with multiple roots; its local
    # Mora bases ran past 30 s, the eliminant multiplicities need none
    spec = {
        "command": "nu",
        "ring": {"vars": ["x", "y", "z"], "char": 0},
        "critical_locus": (
            "1/3*x^6 + 2*x^5*z + 5*x^4*z^2 + 20/3*x^3*z^3 + 5*x^2*z^4 + 2*x*z^5 + 1/3*z^6"
            " - 16/5*x^5 - 17*x^4*z - 34*x^3*z^2 - 34*x^2*z^3 - 17*x*z^4 - 17/5*z^5"
            " + 55/4*x^4 + 115/2*x^3*z + 345/4*x^2*z^2 + 115/2*x*z^3 + 115/8*z^4"
            " - 127/4*x^3 + 2/3*y^3 - 387/4*x^2*z - 387/4*x*z^2 - 129/4*z^3"
            " + 163/4*x^2 - 3/2*y^2 + 81*x*z + 81/2*z^2 - 55/2*x - 9*y - 27*z"
        ),
        "point": "1,3,1",
    }
    expected = {
        ("1", "-3/2", "1"): 6, ("1", "-3/2", "1/2"): 9, ("1", "3", "1"): 6,
        ("1", "3", "1/2"): 9, ("-1/2", "-3/2", "5/2"): 2, ("-1/2", "-3/2", "2"): 3,
        ("-1/2", "3", "5/2"): 2, ("-1/2", "3", "2"): 3,
    }
    with time_limit(10):
        payload = run_job(spec, use_cache=False)["payload"]
    assert payload["nu"] == 6 and payload["route"] == "cycle"
    cycle = {tuple(t["data"]["coordinates"]): t["coefficient"] for t in payload["cycle"]}
    assert cycle == expected


def test_presentations_of_one_f_are_equal():
    # the basis is worked out from f, not carried beside it
    f = R2.parse("x^3 - 3*x + y^2")
    presentation = presentation_from_critical_locus(f)
    assert presentation == presentation_from_critical_locus(R2.parse("x^3 - 3*x + y^2"))
    assert presentation.basis.entries == groebner_basis(jacobian_ideal(f)).entries


def test_broken_mora_moves_the_milnor_route_only(monkeypatch):
    # (x^2 - 1)^3 + y^3 in the coordinates (x, y + x): critical points
    # (0, 0) of mu 2 and (1, -1), (-1, 1) of mu 4
    f = R2.parse("(x^2 - 1)^3 + (y + x)^3")
    points = [(0, 0), (1, -1), (-1, 1)]
    presentation = presentation_from_critical_locus(f)
    cycle = distinguished_cycle(presentation)
    milnor = [milnor_number(f, P) for P in points]
    assert milnor == [2, 4, 4]
    assert [euler_obstruction(cycle, P) for P in points] == milnor
    real = groebner._local_basis

    def drop_last_entry(*args, **kwargs):
        return real(*args, **kwargs)[:-1]

    # the local-basis core behind standard_basis and the Milnor route
    monkeypatch.setattr(groebner, "_local_basis", drop_last_entry)
    assert [milnor_number(f, P) for P in points] != milnor
    assert distinguished_cycle(presentation) == cycle


def test_cycle_route_builds_no_basis_polynomials(monkeypatch):
    # the cycle route reads its colength, eliminants (FGLM included) and roots
    # off the basis's packed integer entries, so it never asks for the monic
    # basis elements
    def refuse(*args):
        raise AssertionError("a basis polynomial was built")

    monkeypatch.setattr(groebner, "_output", refuse)
    separable = ideal("x^3*(x - 1)^2", "y^2*(2*y + 3)")
    c = distinguished_cycle(regular_sequence_presentation(separable))
    points = [(0, Fraction(-3, 2)), (0, 0), (1, Fraction(-3, 2)), (1, 0)]
    assert [(coeff, d.coordinates) for coeff, d in c.terms] == list(zip([3, 6, 2, 4], points))
    # roots of x and of y + x: no basis element is univariate in y
    mixed = ideal("(x - 1)^2*(x + 1)", "(y + x - 2)^2*(y + x)")
    c = distinguished_cycle(regular_sequence_presentation(mixed))
    assert {d.coordinates: coeff for coeff, d in c.terms} == {
        (-1, 1): 1, (-1, 3): 2, (1, -1): 2, (1, 1): 4
    }


def separable_critical_locus(n, roots, entries):
    """f = sum_i g_i(u_i) with g_i' = prod (u_i - r)^e over the roots of
    coordinate i, in the coordinates u = T x."""
    ring = Ring(NAMES[:n])
    t = ring.variable(0)
    f = ring.zero()
    for u, rs in zip(unit_lower_triangular(n, entries), roots):
        derivative = ring.one()
        for r, e in rs:
            derivative = derivative * (t - r) ** e
        antiderivative = Polynomial(
            ring, {(m[0] + 1,) + m[1:]: c / (m[0] + 1) for m, c in derivative.terms()}
        )
        f = f + antiderivative.substitute([u] + [ring.zero()] * (n - 1))
    return f


@settings(max_examples=60)
@given(st.data())
def test_weighted_euler_characteristic_is_the_length(data):
    # for X = Crit(f) zero-dimensional with rational support, nu_X(P) = mu_P,
    # so chi(X, nu_X) = sum_P mu_P, which must be the length of X: the global
    # degrevlex colength of the Jacobian ideal
    n, roots, entries = data.draw(grids())
    f = separable_critical_locus(n, roots, entries)
    c = distinguished_cycle(presentation_from_critical_locus(f))
    milnor = sum(milnor_number(f, d.coordinates) for _, d in c.terms)
    assert milnor == sum(coeff for coeff, _ in c.terms) == colength(jacobian_ideal(f))
    assert milnor == math.prod(sum(e for _, e in rs) for rs in roots)
