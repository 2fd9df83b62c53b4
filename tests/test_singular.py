import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nuchi import groebner, singular
from nuchi.errors import NonIsolatedCriticalPoint, NotCriticalPoint, PointNotOnVariety, Unsupported
from nuchi.groebner import LOCAL_DEGREVLEX, Ideal, Infinite, colength
from nuchi.poly import GF, Polynomial, Ring
from nuchi.singular import (
    NOT_CRITICAL,
    NuReport,
    OneForm,
    behrend_at,
    behrend_report,
    differential,
    is_almost_closed,
    is_smooth_at,
    jacobian_ideal,
    milnor_fibre_euler,
    milnor_number,
    shift_ideal,
)

from .oracles import jacobian_rank, kouchnirenko_mu, monomial_subset_dimension

R1 = Ring(("x",))
R2 = Ring(("x", "y"))
R3 = Ring(("x", "y", "z"))
R4 = Ring(("x1", "x2", "x3", "x4"))

ORIGIN2 = (0, 0)


def a_k(ring, k):
    """The curve singularity x^(k+1) + y^2 with Milnor number k."""
    return ring.parse(f"x^{k + 1} + y^2")


# ------------------------------------------------------------ Jacobian ideals

def test_jacobian_examples():
    gens = jacobian_ideal(R2.parse("x^3 + y^3")).generators
    assert [str(g) for g in gens] == ["3*x^2", "3*y^2"]
    assert [str(g) for g in jacobian_ideal(R2.parse("x*y")).generators] == ["y", "x"]
    assert jacobian_ideal(R2.parse("5")).generators == ()


# ---------------------------------------------------------------- smoothness

def test_smoothness_examples():
    check = is_smooth_at(Ideal.from_strings(R2, ["y - x^2"]), ORIGIN2)
    assert check.smooth and check.local_dim == 1
    assert not is_smooth_at(Ideal.from_strings(R2, ["x*y"]), ORIGIN2).smooth
    check0 = is_smooth_at(Ideal.from_strings(R2, ["x", "y"]), ORIGIN2)
    assert check0.smooth and check0.local_dim == 0


def test_smoothness_point_must_lie_on_variety():
    with pytest.raises(PointNotOnVariety):
        is_smooth_at(Ideal.from_strings(R2, ["y - x^2"]), (1, 0))


@st.composite
def ideals_through_a_point(draw):
    """(I, P): 0-3 generators in 1-3 variables over Q or F_5, each vanishing
    at the rational point P: g(x) = h(x - P) with h a linear form plus a few
    terms of degree 2 or 3 and no constant term."""
    n = draw(st.integers(1, 3))
    char = draw(st.sampled_from([0, 5]))
    ring = Ring(("x", "y", "z")[:n], GF(char))
    P = tuple(Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2, 3]))) for _ in range(n))
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    higher = st.lists(st.integers(0, n - 1), min_size=2, max_size=3).map(
        lambda vs: tuple(vs.count(i) for i in range(n))
    )

    def generator():
        linear = [(m, draw(st.integers(-2, 2))) for m in units]
        terms = draw(st.lists(st.tuples(higher, st.integers(-3, 3)), max_size=2))
        return Polynomial(ring, linear + terms).shift(tuple(-c for c in P))

    gens = [generator() for _ in range(draw(st.integers(0, 3)))]
    return Ideal(ring, gens), P


@settings(max_examples=120, deadline=None)
@given(ideals_through_a_point())
@example((Ideal.from_strings(Ring(("x", "y"), GF(5)), ["x + 2*y", "3*x + y"]), (0, 0)))
def test_is_smooth_at_matches_the_jacobian_rank_oracle(case):
    # the rank read off the local basis's degree-1 leads against partials
    # evaluated at P and row-reduced over the ring's own field
    I, P = case
    rank = jacobian_rank(I, P)
    basis = groebner.standard_basis(shift_ideal(I, P))
    assert basis.linear_leads() == rank
    dim = basis.invariants()[1]
    check = is_smooth_at(I, P)
    assert check.smooth == (rank == I.ring.arity - dim)
    assert check.local_dim == (dim if check.smooth else None)


# ------------------------------------------------------------- Milnor numbers

def test_milnor_examples():
    assert milnor_number(R2.parse("x^2 + y^2"), ORIGIN2) == 1
    assert milnor_number(R1.parse("x^3"), (0,)) == 2
    assert milnor_number(R2.parse("x^3 + y^3"), ORIGIN2) == 4


def test_milnor_not_critical():
    assert milnor_number(R1.parse("x^3"), (5,)) is NOT_CRITICAL
    assert milnor_number(R1.parse("x^3"), (Fraction(-3, 7),)) is NOT_CRITICAL
    # f_x vanishes at x = 1/2 but f_y = 3*y^2 does not at y = -2/3
    f = R2.parse("x^2 - x + y^3")
    assert milnor_number(f, (Fraction(1, 2), Fraction(-2, 3))) is NOT_CRITICAL
    assert milnor_number(f, (Fraction(1, 2), 0)) == 2


def test_milnor_differentiates_once(monkeypatch):
    # f is shifted and packed once, and each partial is taken once in the
    # packing; no Polynomial is differentiated
    calls = []
    partial = groebner._partial

    def counting_partial(terms, i, *args):
        calls.append(i)
        return partial(terms, i, *args)

    def no_derivative(self, i):
        raise AssertionError("the Milnor route differentiated a Polynomial")

    monkeypatch.setattr(groebner, "_partial", counting_partial)
    monkeypatch.setattr(Polynomial, "derivative", no_derivative)
    assert milnor_number(R2.parse("x^3 + y^2"), ORIGIN2) == 2
    assert milnor_number(R2.parse("x^3 + y"), ORIGIN2) is NOT_CRITICAL
    assert milnor_number(R2.parse("x^3 + y"), (Fraction(1, 2), Fraction(-2, 3))) is NOT_CRITICAL
    # the zero partial in x is dropped, and y^2 is critical along y = 0
    assert isinstance(milnor_number(R2.parse("y^2"), (5, 0)), Infinite)
    assert calls == [0, 1] * 4


def test_milnor_builds_no_basis_polynomials(monkeypatch):
    # f is shifted (the identity at the origin), packed and differentiated on
    # integer terms, and mu is read off the leads of the basis's entries, so
    # no polynomial is built; basis elements are built on first access
    built = []
    init = Polynomial.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    f = R3.parse("x^3 + y^4 + z^5 + x*y*z")
    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    assert milnor_number(f, (0, 0, 0)) == 11  # T_345: p + q + r - 1
    assert len(built) == 0
    basis = groebner.standard_basis(jacobian_ideal(f))
    del built[:]
    assert len(basis.elements) == len(basis.leading_monomials()) and len(built) == len(basis.elements)


@st.composite
def critical_cases(draw, isolated):
    """(f, P, Q): f = g(x - P) with g free of linear terms, so that P is a
    critical point of f, and a query point Q at or near P.

    f lives in 1-3 variables over Q or F_p (p = 2, 3, 5).  g is a sum of
    powers x_i^a_i (a_i >= 2, sometimes a multiple of p, so that a partial
    vanishes) and a few random terms, composed with a unit lower-triangular
    shear.  With ``isolated`` the powers cover every variable, in 3
    variables without the shear (sheared Mora bases there can run for
    seconds); without it they cover only the first k < n variables and are
    squares, so Crit(f) has dimension at least n - k at P.
    """
    n = draw(st.integers(1, 3))
    char = draw(st.sampled_from([0, 2, 3, 5]))
    ring = Ring(("x", "y", "z")[:n], GF(char))  # GF(0) is Q
    dens = [d for d in (1, 2, 3) if not char or d % char]

    def rational():
        return Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from(dens)))

    P = tuple(rational() for _ in range(n))
    Q = P if draw(st.booleans()) else tuple(c + rational() for c in P)
    k = n if isolated else draw(st.integers(0, n - 1))
    top = 4 if n < 3 else 3
    powers = [(i, draw(st.integers(2, top)) if isolated else 2) for i in range(k)]
    exps = st.tuples(*[st.integers(0, top)] * k)
    terms = draw(st.lists(st.tuples(exps, st.integers(-4, 4)), max_size=3))
    g = Polynomial(
        ring,
        [(tuple(a * (i == j) for j in range(n)), draw(st.integers(1, 4))) for i, a in powers]
        + [(m + (0,) * (n - k), c) for m, c in terms if sum(m) > 1],
    )
    if n < 3 or not isolated:
        x = [ring.variable(i) for i in range(n)]
        shear = [sum((draw(st.integers(-2, 2)) * x[j] for j in range(i)), x[i]) for i in range(n)]
        g = g.substitute(shear)
    return g.shift(tuple(-c for c in P)), P, Q


@settings(max_examples=150)
@given(critical_cases(isolated=True))
@example((R2.parse("5"), (0, 0), (1, 2)))  # constant f: INFINITE everywhere
@example((Ring(("x", "y"), GF(3)).parse("x^3 + y^2"), (0, 0), (0, 0)))  # d/dx is 0 over F_3
@example((Ring(("x", "y"), GF(3)).parse("x^3 + y^2"), (0, 0), (1, 0)))
@example((  # not critical: the oracle's shifted ideal holds a unit
    Ring(("x", "y", "z"), GF(5)).parse(
        "4*x^2*y^2*z + 4*x^2*y^2 + 3*x^2*y*z + 2*x*y^2*z + 2*x^3 + 3*x^2*y + 2*x*y^2"
        " + 2*y^3 + x^2*z + 4*x*y*z + 4*y^2*z + z^3 + 4*x*y + 3*x*z + 3*y*z + 3*z^2"
        " + 4*x + 4*y + 4*z + 2"
    ),
    (0, 0, 0),
    (Fraction(-5, 3), Fraction(1, 6), Fraction(-5, 3)),
))
def test_milnor_agrees_with_the_polynomial_route(case):
    # the packed route (shift f once, differentiate in the packing, read the
    # lowest term) against the public one: differentiate, shift every
    # partial, count the staircase of the local standard basis
    f, _, Q = case
    oracle = colength(shift_ideal(jacobian_ideal(f), Q), LOCAL_DEGREVLEX)
    assert milnor_number(f, Q) == (NOT_CRITICAL if oracle == 0 else oracle)


@settings(max_examples=80, deadline=None)
@given(st.one_of(critical_cases(isolated=True), critical_cases(isolated=False)))
@example((Ring(()).parse("3"), (), ()))  # no variables: the zero ideal of a point
def test_jacobian_basis_matches_the_standard_basis(case):
    # the packed partials of f(x + Q) against the local basis of the shifted
    # Jacobian ideal, which is the unit ideal exactly when df(Q) != 0
    f, _, Q = case
    basis = groebner.jacobian_basis(f.shift(Q))
    reference = groebner.standard_basis(shift_ideal(jacobian_ideal(f), Q))
    if basis is None:
        assert reference.invariants() == (0, -1, 0)
        assert milnor_number(f, Q) is NOT_CRITICAL
    else:
        assert basis.invariants() == reference.invariants()
        assert basis.leading_monomials() == reference.leading_monomials()
        assert milnor_number(f, Q) == basis.invariants()[0]


@settings(max_examples=80)
@given(critical_cases(isolated=False))
def test_local_dimension_agrees_with_the_polynomial_route(case):
    f, P, _ = case
    n = f.ring.arity
    leads = groebner.standard_basis(shift_ideal(jacobian_ideal(f), P)).leading_monomials()
    expected = monomial_subset_dimension(leads, n)
    mu, dim, _ = singular._milnor(f, P)
    assert dim == expected and isinstance(mu, Infinite) == (expected > 0)
    try:
        report = behrend_report(f, P)
    except Unsupported:
        return
    if report.route == "smooth":
        assert report.local_dim == expected


@settings(max_examples=80)
@given(critical_cases(isolated=False))
def test_hessian_rank_matches_the_jacobian_rank_oracle(case):
    # the Jacobian basis's degree-1 leads count the rank of the Hessian at P
    f, P, _ = case
    _, _, rank = singular._milnor(f, P)
    assert rank == jacobian_rank(jacobian_ideal(f), P)


def test_milnor_non_isolated():
    assert isinstance(milnor_number(R2.parse("x^2"), ORIGIN2), Infinite)


@pytest.mark.parametrize("k", [64, 65, 100, 200, 500])
def test_milnor_a_k_past_degree_64(k):
    assert milnor_number(a_k(R2, k), ORIGIN2) == k


@pytest.mark.parametrize("a,b,c,d,mu", [(12, 13, 5, 5, 101), (40, 41, 15, 15, 1135)])
def test_milnor_matches_kouchnirenko(a, b, c, d, mu):
    f = R2.parse(f"x^{a} + y^{b} + x^{c}*y^{d}")
    assert kouchnirenko_mu(a, b, c, d) == mu
    assert milnor_number(f, ORIGIN2) == mu


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 30), st.integers(2, 30), st.integers(1, 15), st.integers(1, 15)
)
def test_milnor_matches_kouchnirenko_on_random_trinomials(a, b, c, d):
    f = R2.parse(f"x^{a} + y^{b} + x^{c}*y^{d}")
    assert milnor_number(f, ORIGIN2) == kouchnirenko_mu(a, b, c, d)


def test_milnor_away_from_origin():
    # critical point of (x-1)^2 + (y+2)^2 at (1, -2)
    f = R2.parse("(x - 1)^2 + (y + 2)^2")
    assert milnor_number(f, (1, -2)) == 1


@pytest.mark.parametrize("k", range(1, 9))
def test_milnor_a_k_family(k):
    assert milnor_number(a_k(R2, k), ORIGIN2) == k


# ------------------------------------------------------- Milnor fibre formula

def test_milnor_fibre_euler_examples():
    assert milnor_fibre_euler(R2.parse("x^2 + y^2"), ORIGIN2) == 0  # circle
    assert milnor_fibre_euler(R3.parse("x^2 + y^2 + z^2"), (0, 0, 0)) == 2  # sphere
    assert milnor_fibre_euler(R1.parse("x^3"), (0,)) == 3  # three points


def test_milnor_fibre_errors():
    with pytest.raises(NotCriticalPoint):
        milnor_fibre_euler(R1.parse("x^3"), (5,))
    with pytest.raises(NotCriticalPoint):
        milnor_fibre_euler(R2.parse("x^2 + y^2"), (0, Fraction(5, 3)))
    with pytest.raises(NonIsolatedCriticalPoint):
        milnor_fibre_euler(R2.parse("x^2") * R2.parse("x"), ORIGIN2)


# ------------------------------------------------------------------------ nu

def test_nu_nondegenerate_both_branches_agree():
    f = R2.parse("x^2 + y^2")
    report = behrend_report(f, ORIGIN2)
    assert report.nu == 1 and report.route == "milnor"
    # same scheme presented as an ideal is smooth of dimension 0
    smooth = behrend_report(Ideal.from_strings(R2, ["x", "y"]), ORIGIN2)
    assert smooth.nu == 1 and smooth.route == "smooth"


def test_nu_fat_point():
    report = behrend_report(R1.parse("x^3"), (0,))
    assert report.nu == 2 and report.mu == 2


def test_nu_smooth_curve_is_minus_one():
    assert behrend_at(Ideal.from_strings(R2, ["y - x^2"]), (1, 1)) == -1


def test_nu_point_must_be_on_critical_locus():
    with pytest.raises(PointNotOnVariety):
        behrend_at(R1.parse("x^3"), (5,))


def test_nu_refuses_non_isolated_non_smooth():
    # f = x^2*y^2: critical locus is the two axes, singular at the origin
    with pytest.raises(Unsupported):
        behrend_at(R2.parse("x^2*y^2"), ORIGIN2)


def test_nu_builds_one_local_basis_on_the_non_isolated_path(monkeypatch):
    # f = x^2*y^2 + z^2 is critical along the x- and y-axes: mu is INFINITE
    # at both points and the local dimension 1 comes from the same basis
    calls = []
    real = groebner._local_basis

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "_local_basis", counted)
    f = R3.parse("x^2*y^2 + z^2")
    report = behrend_report(f, (0, 1, 0))
    assert report == NuReport(nu=-1, route="smooth", mu=None, local_dim=1)
    assert len(calls) == 1
    calls.clear()
    with pytest.raises(Unsupported, match="no smooth chart"):
        behrend_report(f, (0, 0, 0))
    assert len(calls) == 1


def test_nu_ideal_presentation_refuses_singular_points():
    with pytest.raises(Unsupported):
        behrend_at(Ideal.from_strings(R2, ["x*y"]), ORIGIN2)


@pytest.mark.parametrize("k", range(1, 9))
def test_nu_equals_mu_on_a_k(k):
    f = a_k(R2, k)
    assert behrend_at(f, ORIGIN2) == milnor_number(f, ORIGIN2) == k


def test_nu_equals_mu_on_x3_plus_y3():
    f = R2.parse("x^3 + y^3")
    assert behrend_at(f, ORIGIN2) == milnor_number(f, ORIGIN2) == 4


def test_nu_multiplicative_on_disjoint_sums():
    # f(x1,x2) + g(x3,x4) in disjoint variables: nu multiplies
    for k, l in [(1, 1), (2, 3), (3, 2), (4, 5)]:
        f4 = R4.parse(f"x1^{k + 1} + x2^2 + x3^{l + 1} + x4^2")
        nu_product = behrend_at(a_k(R2, k), ORIGIN2) * behrend_at(a_k(R2, l), ORIGIN2)
        assert behrend_at(f4, (0, 0, 0, 0)) == nu_product == k * l


def _random_smooth_chart(rng, arity, codim):
    """A graph-style complete intersection through a random rational point.

    x_{free+j} = g_j(x_free) is globally smooth of dimension arity - codim.
    """
    ring = Ring(tuple(f"x{i + 1}" for i in range(arity)))
    free = arity - codim
    point = tuple(Fraction(rng.randint(-3, 3)) for _ in range(arity))
    gens = []
    for j in range(codim):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mono = [0] * arity
            for i in range(free):
                mono[i] = rng.randint(0, 2)
            coeff = rng.randint(-4, 4)
            if coeff:
                terms[tuple(mono)] = terms.get(tuple(mono), 0) + coeff
        g = Polynomial(ring, terms)
        graph = ring.variable(free + j) - g
        # translate so the chosen point lies on the graph
        offset = graph.evaluate(point)
        gens.append(graph - ring.constant(offset))
    return Ideal(ring, gens), point, arity - codim


def test_smooth_point_rule_randomized():
    rng = random.Random(2024)
    for trial in range(20):
        arity = rng.randint(2, 4)
        codim = rng.randint(1, arity - 1)
        I, point, dim = _random_smooth_chart(rng, arity, codim)
        report = behrend_report(I, point)
        assert report.route == "smooth"
        assert report.nu == (-1) ** dim


# ------------------------------------------------------------- almost closed

def test_exact_forms_are_almost_closed():
    for f in [R2.parse("x^3 + y^3"), R2.parse("x*y"), R3.parse("x*y*z - z^2")]:
        assert is_almost_closed(differential(f)).almost_closed


def test_almost_closed_but_not_closed_example():
    omega = OneForm.from_strings(R2, ["y", "x - x*y"])
    check = is_almost_closed(omega)
    assert check.almost_closed
    # the antisymmetry defect of the only pair is y, a member of the ideal
    (pair, witness), = check.certificates
    assert pair == (0, 1) and witness == R2.parse("y")


def test_not_almost_closed_negative_control():
    check = is_almost_closed(OneForm.from_strings(R2, ["y", "0"]))
    assert not check.almost_closed
    assert check.failing_pair == (0, 1)
    assert check.failing_normal_form == R2.parse("1")
