import random

import pytest

from nuchi.arcs import (
    INFINITE_WITHIN_TRUNCATION,
    ArcSeries,
    ParameterForm,
    arc_from_strings,
    arc_vanishing_order,
    compose_along_arc,
    lagrangian_obstruction,
    parse_arc,
    param_differential,
    TruncatedSeries,
    wedge,
    zero_form,
)
from nuchi.cli import run_job
from nuchi.errors import InputError, OrderTooLow
from nuchi.poly import GF, Polynomial, Ring
from nuchi.singular import OneForm, differential

from .oracles import (
    obstruction_via_exterior_derivative,
    pullback_dt_coefficient_direct,
    pullback_dt_coefficient_taylor,
)
from .test_cycles import time_limit

R2 = Ring(("x", "y"))
R3 = Ring(("x", "y", "z"))
UV = Ring(("u", "v"))


def du_wedge_dv():
    return ParameterForm(2, UV, {(0, 1): UV.one()})


# ------------------------------------------------------------------- parsing

def test_parse_arc_format():
    arc = parse_arc("order: 4\nx = u + v*t^2\ny = -v*t\n", R2)
    assert arc.order == 4
    assert arc.param_ring.variables == ("u", "v")
    assert str(arc.components[0]) == "(u)*t^0 + (v)*t^2"


def test_parse_arc_default_order_and_comments():
    arc = parse_arc("# a comment\nx = u\ny = v*t\n", R2)
    assert arc.order == 8


def test_parse_arc_errors():
    with pytest.raises(InputError):
        parse_arc("x = u\n", R2)  # y missing
    with pytest.raises(InputError):
        parse_arc("x = u\ny = v\nz = u\n", R2)  # z not a coordinate
    with pytest.raises(InputError):
        parse_arc("order: 2\nx = u*t^5\ny = v\n", R2)  # beyond truncation


# --------------------------------------------------------------- composition

def test_compose_monomial():
    arc = arc_from_strings(R2, ["t", "t^2"], order=5)
    s = compose_along_arc(R2.parse("x*y"), arc)
    assert str(s) == "(1)*t^3"


def test_compose_cancellation():
    arc = arc_from_strings(R2, ["s*t", "-s^2*t^2"], order=4, params=["s"])
    assert compose_along_arc(R2.parse("x^2 + y"), arc).is_zero()


def test_compose_constant_arc():
    arc = arc_from_strings(R2, ["2", "3"], order=3)
    s = compose_along_arc(R2.parse("x^2 + y"), arc)
    assert s.valuation() == 0 and s.coefficient(0) == arc.param_ring.constant(7)
    assert all(s.coefficient(p).is_zero() for p in range(1, s.order + 1))


def test_compose_high_power():
    # powers are taken by squaring, so a large exponent is a few products
    arc = arc_from_strings(R2, ["1 + u*t", "v*t"], order=3)
    s = compose_along_arc(R2.parse("x^5000*y"), arc)
    assert str(s) == "(v)*t^1 + (5000*u*v)*t^2 + (12497500*u^2*v)*t^3"


def _substituted(f, arc):
    """f(gamma) by Polynomial.substitute in the ring (parameters, t), with
    the powers of t above the truncation order dropped afterwards."""
    pr = arc.param_ring
    work = Ring(pr.variables + ("t",), pr.domain)
    t = work.variable(pr.arity)
    lift = list(range(pr.arity))
    values = [
        sum((s.coefficient(p).transport(work, lift) * t**p for p in range(s.order + 1)), work.zero())
        for s in arc.components
    ]
    terms = f.substitute(values).terms()
    return tuple(
        Polynomial(pr, [(m[:-1], c) for m, c in terms if m[-1] == p])
        for p in range(arc.order + 1)
    )


def _reduced_mod(arc, p):
    """The same arc with its coefficients in F_p."""
    pr = Ring(arc.param_ring.variables, GF(p))
    coerce = pr.domain.coerce
    series = [
        TruncatedSeries(pr, arc.order, {m: coerce(c) for m, c in s.terms.items() if coerce(c)})
        for s in arc.components
    ]
    return ArcSeries(arc.ambient_ring, pr, series, arc.order)


def test_compose_matches_substitution_randomized():
    rng = random.Random(7)
    nonzero = 0
    for k in range(150):
        ring = rng.choice([R2, R3, Ring(("x", "y"), GF(7))])
        omega = _random_one_form(rng, ring)
        arc = _random_arc(rng, ring, order=rng.choice([3, 4, 6]))
        if k % 3 == 0:
            arc = _reduced_mod(arc, 5)
        for f in omega.components:
            composed = compose_along_arc(f, arc)
            assert tuple(composed.coefficient(p) for p in range(arc.order + 1)) == _substituted(f, arc)
            nonzero += not composed.is_zero()
    assert nonzero > 100  # the agreement is not vacuous


def test_order_header_does_not_set_the_cost():
    # series store only their nonzero terms, so a huge truncation order costs
    # what the two terms cost; dense storage ran past the alarm
    spec = {"command": "arc-check", "ring": {"vars": ["x", "y"], "char": 0},
            "form": ["y", "0"], "arc": "order: 1000000\nx = u\ny = v*t"}
    with time_limit(2):
        payload = run_job(spec, use_cache=False)["payload"]
    assert payload["truncation_order"] == 1000000
    assert payload["vanishing_order"] == 1
    assert payload["obstruction"] == [{"form": "du^dv", "coefficient": "1"}]


# ----------------------------------------------------------- vanishing order

def test_vanishing_order_examples():
    omega = OneForm.from_strings(R2, ["y", "0"])
    arc = arc_from_strings(R2, ["u", "v*t"], order=6)
    assert arc_vanishing_order(omega, arc) == 1

    df = differential(R2.parse("x^3 + y^3"))
    through_noncritical = arc_from_strings(R2, ["1 + u*t", "v*t"], order=6)
    assert arc_vanishing_order(df, through_noncritical) == 0

    inside = OneForm.from_strings(R2, ["y", "y^2"])
    tangent = arc_from_strings(R2, ["u + v*t", "0"], order=6)
    assert arc_vanishing_order(inside, tangent) is INFINITE_WITHIN_TRUNCATION


# ---------------------------------------------------------------- obstruction

def test_obstruction_negative_control_exact_value():
    omega = OneForm.from_strings(R2, ["y", "0"])
    arc = arc_from_strings(R2, ["u", "v*t"], order=6)
    form = lagrangian_obstruction(omega, arc, 1)
    assert form == du_wedge_dv()
    assert not form.is_zero()


def test_obstruction_order_too_low():
    omega = OneForm.from_strings(R2, ["y", "x - x*y"])
    arc = arc_from_strings(R2, ["u", "v*t"], order=6)
    # f_2 along the arc has constant term u, so the vanishing order is 0
    assert arc_vanishing_order(omega, arc) == 0
    with pytest.raises(OrderTooLow):
        lagrangian_obstruction(omega, arc, 1)


def test_obstruction_truncation_must_cover_m():
    omega = OneForm.from_strings(R2, ["y", "0"])
    arc = arc_from_strings(R2, ["u", "v*t"], order=2)
    with pytest.raises(OrderTooLow):
        lagrangian_obstruction(omega, arc, 3)


def test_obstruction_zero_for_exact_form_at_fat_point():
    df = differential(R2.parse("x^3 + y^3"))
    arc = arc_from_strings(R2, ["u*t", "v*t"], order=6)
    assert lagrangian_obstruction(df, arc, 2).is_zero()


def test_obstruction_zero_with_nontrivial_cancellation():
    # X = Z(df) for f = (x - y^2)^2 / 2 contains the parabola; the arc is
    # based at the moving point (u^2, u) and both wedge factors are nonzero,
    # the two contributions cancel exactly
    df = differential(R2.parse("1/2*(x - y^2)^2"))
    arc = arc_from_strings(R2, ["u^2 + v*t", "u"], order=6)
    assert arc_vanishing_order(df, arc) == 1
    assert lagrangian_obstruction(df, arc, 1).is_zero()


def test_obstruction_zero_on_three_variable_surface():
    df = differential(R3.parse("1/2*(x - y*z)^2"))
    arc = arc_from_strings(R3, ["u*v + u*t", "u", "v + v^2*t"], order=6)
    assert arc_vanishing_order(df, arc) >= 1
    assert lagrangian_obstruction(df, arc, 1).is_zero()


def test_obstruction_two_routes_agree():
    cases = [
        (OneForm.from_strings(R2, ["y", "0"]), arc_from_strings(R2, ["u", "v*t"], order=6), 1),
        (
            differential(R2.parse("1/2*(x - y^2)^2")),
            arc_from_strings(R2, ["u^2 + v*t", "u"], order=6),
            1,
        ),
        (
            differential(R2.parse("x^3 + y^3")),
            arc_from_strings(R2, ["u*t", "v*t^2"], order=6),
            2,
        ),
    ]
    for omega, arc, m in cases:
        direct = lagrangian_obstruction(omega, arc, m)
        via_d = obstruction_via_exterior_derivative(omega, arc, m)
        assert direct == via_d


# ----------------------------------------- pullback coefficient, both routes

def _random_one_form(rng, ring):
    comps = []
    for _ in range(ring.arity):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            mono = tuple(rng.randint(0, 2) for _ in range(ring.arity))
            terms[mono] = terms.get(mono, 0) + rng.randint(-3, 3)
        comps.append(Polynomial(ring, terms))
    return OneForm(ring, comps)


def _random_arc(rng, ring, order):
    shapes = ["u", "v", "u + v*t", "u*t", "v*t^2", "u*v + v*t", "u - v*t^3", "0", "1 + u*t"]
    return arc_from_strings(
        ring, [rng.choice(shapes) for _ in range(ring.arity)], order=order
    )


def test_dt_coefficient_routes_agree_randomized():
    # the binomial triple-sum and the direct series expansion are two
    # independent evaluations of the same t^(m-1) dt coefficient
    rng = random.Random(99)
    checked_nonzero = 0
    for _ in range(60):
        ring = rng.choice([R2, R3])
        omega = _random_one_form(rng, ring)
        arc = _random_arc(rng, ring, order=6)
        for m in range(1, 5):
            direct = pullback_dt_coefficient_direct(omega, arc, m)
            taylor = pullback_dt_coefficient_taylor(omega, arc, m)
            assert direct == taylor
            if not direct.is_zero():
                checked_nonzero += 1
    assert checked_nonzero > 10  # the agreement is not vacuous


def test_dt_coefficient_negative_control_value():
    omega = OneForm.from_strings(R2, ["y", "0"])
    arc = arc_from_strings(R2, ["u", "v*t"], order=6)
    expected = ParameterForm(1, UV, {(0,): -UV.variable(1)})  # -v du
    assert pullback_dt_coefficient_direct(omega, arc, 1) == expected
    assert pullback_dt_coefficient_taylor(omega, arc, 1) == expected


# ------------------------------------------------------------ parameter forms

def test_wedge_antisymmetry_and_canonical_keys():
    a = param_differential(UV.variable(0))
    b = param_differential(UV.variable(1))
    assert wedge(a, b) == du_wedge_dv()
    assert wedge(b, a) == du_wedge_dv().scale(-1)
    assert wedge(a, a).is_zero()


def test_form_payload():
    form = du_wedge_dv()
    assert form.to_payload() == [{"form": "du^dv", "coefficient": "1"}]
    assert zero_form(2, UV).to_payload() == []
