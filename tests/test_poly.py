from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nuchi.errors import (
    ArityMismatch,
    ExponentOverflow,
    InputError,
    NegativeExponent,
    PolynomialSyntaxError,
    RingMismatch,
    UnknownVariable,
)
from nuchi import poly
from nuchi.groebner import Ideal, _packing, groebner_basis, normal_form, standard_basis
from nuchi.poly import (
    DEGREVLEX,
    GF,
    LEX,
    LOCAL_DEGREVLEX,
    MAX_EXPONENT,
    Polynomial,
    Ring,
    elimination_order,
    parse_point,
    parse_polynomial,
)

from .oracles import order_key, point_coordinate
from .strategies import RING_X, RING_XY, RING_XYZ, nonzero_polynomials, polynomials, rational_points


# ------------------------------------------------------------------ parsing

def test_parse_basic_terms():
    f = RING_XY.parse("x^2 + 2*x*y")
    assert dict(f.terms()) == {(2, 0): 1, (1, 1): 2}


def test_parse_zero():
    assert RING_XY.parse("0").is_zero()
    assert RING_XY.parse("x - x").is_zero()


def test_parse_unknown_variable():
    with pytest.raises(UnknownVariable) as err:
        RING_XY.parse("x + z")
    assert err.value.name == "z"


def test_parse_negative_exponent():
    with pytest.raises(NegativeExponent):
        RING_XY.parse("x^-1")


def test_parse_syntax_error_offset():
    with pytest.raises(PolynomialSyntaxError) as err:
        RING_XY.parse("x + + y")
    assert err.value.offset == 4


def test_parse_requires_explicit_multiplication():
    with pytest.raises(PolynomialSyntaxError):
        RING_XY.parse("2x")


def test_parse_rationals_and_unary_minus():
    f = RING_XY.parse("-1/2*x + 3/4")
    assert f.coefficient((1, 0)) == Fraction(-1, 2)
    assert f.constant_term() == Fraction(3, 4)
    assert RING_XY.parse("-x^2") == -(RING_XY.parse("x") ** 2)


def test_parse_parentheses():
    assert RING_XY.parse("(x+y)*(x-y)") == RING_XY.parse("x^2 - y^2")


def test_exponent_overflow():
    with pytest.raises(ExponentOverflow):
        RING_X.parse("x^2147483648")


@given(polynomials(RING_XY))
def test_print_parse_roundtrip(f):
    assert parse_polynomial(str(f), RING_XY) == f


@given(polynomials(RING_XYZ, max_terms=6))
def test_print_parse_roundtrip_three_vars(f):
    assert parse_polynomial(str(f), RING_XYZ) == f


def test_prime_field_roundtrip_and_reduction():
    ring = Ring(("x", "y"), GF(7))
    f = ring.parse("3/2*x + 10")
    assert f == ring.parse("5*x + 3")
    assert parse_polynomial(str(f), ring) == f


# The answers of the earlier recursive-descent parser to malformed input:
# the exception's exact type and its byte offset (None where it has none).
MALFORMED = [
    ("x + + y", PolynomialSyntaxError, 4),
    ("x^-1", NegativeExponent, 2),
    ("2x", PolynomialSyntaxError, 1),
    ("((x + y) * (x - 1", PolynomialSyntaxError, 17),
    ("x + 2*(y - )", PolynomialSyntaxError, 11),
    ("1/0*x", PolynomialSyntaxError, 2),
    ("x^ 2 + 3/", PolynomialSyntaxError, 9),
    ("x^y", PolynomialSyntaxError, 2),
    ("x^2^3", PolynomialSyntaxError, 3),
    ("-", PolynomialSyntaxError, 1),
    ("", PolynomialSyntaxError, 0),
    ("x + z", UnknownVariable, 4),
    ("x2*y", UnknownVariable, 0),
    ("\u00a0x + + y", PolynomialSyntaxError, 6),
    ("x*y \u2014 1", PolynomialSyntaxError, 4),
    ("x^2147483648", ExponentOverflow, None),
]


@pytest.mark.parametrize("text, error, offset", MALFORMED)
def test_malformed_input_errors_are_pinned(text, error, offset):
    with pytest.raises(InputError) as err:
        RING_XY.parse(text)
    assert type(err.value) is error
    assert getattr(err.value, "offset", None) == offset


def test_parse_accepts_ascii_digits_only():
    # str.isdigit accepts a superscript two, which int() refuses
    with pytest.raises(PolynomialSyntaxError) as err:
        RING_XY.parse("x^\u00b2")
    assert err.value.offset == 2
    with pytest.raises(PolynomialSyntaxError) as err:
        RING_XY.parse("y + \u0663*x")  # ARABIC-INDIC DIGIT THREE
    assert err.value.offset == 4


def test_parse_overlong_integer_is_a_syntax_error():
    # int() converts at most 4300 digits
    with pytest.raises(PolynomialSyntaxError) as err:
        RING_XY.parse("x + " + "1" * 5000)
    assert err.value.offset == 4
    with pytest.raises(PolynomialSyntaxError) as err:
        RING_XY.parse("x^" + "0" * 5000 + "1")
    assert err.value.offset == 2


def test_parse_bounds_numeric_powers():
    # 10^4299 has 4300 digits, the most that int() reads and str() prints
    assert RING_XY.parse("10^4299*x").terms() == (((1, 0), 10**4299),)
    assert RING_XY.parse("(1/10)^4299").terms() == (((0, 0), Fraction(1, 10**4299)),)
    assert RING_XY.parse("(-3*x)^9000").terms() == (((9000, 0), 3**9000),)
    for text, offset in [
        ("10^4300*x", 3),
        ("(1/10)^4300", 7),
        ("(-3*x)^9100", 7),
        ("y + 2^2147483647", 6),
        ("(2)^2147483647*x", 4),
    ]:
        with pytest.raises(PolynomialSyntaxError, match="power has more than 4300 digits") as err:
            RING_XY.parse(text)
        assert err.value.offset == offset
    # each power is short enough, their product is not
    with pytest.raises(PolynomialSyntaxError, match="coefficient has more than 4300 digits"):
        RING_XY.parse("x + 10^3000*10^3000*y")
    # over F_p the power is taken mod p
    ring = Ring(("x",), GF(7))
    assert ring.parse("2^2147483647*x") == ring.parse("2*x")


def test_parse_deep_nesting():
    depth = 5000
    assert RING_XY.parse("(" * depth + "x + y" + ")" * depth) == RING_XY.parse("x + y")
    assert RING_XY.parse("2*(" * depth + "x" + ")" * depth) == 2**depth * RING_XY.parse("x")
    assert RING_XY.parse("-" * (depth + 1) + "x") == RING_XY.parse("-x")
    text = "(" * depth + "x"
    with pytest.raises(PolynomialSyntaxError) as err:
        RING_XY.parse(text)
    assert err.value.offset == depth + 1


RING_XYZ_7 = Ring(("x", "y", "z"), GF(7))

# Expression trees: ("num", p, q) is p/q, ("var", i), ("neg", a),
# ("add" | "sub" | "mul", a, b) and ("pow", a, k).
expression_trees = st.recursive(
    st.one_of(
        st.tuples(st.just("num"), st.integers(0, 12), st.integers(1, 6)),
        st.tuples(st.just("var"), st.integers(0, 2)),
    ),
    lambda children: st.one_of(
        st.tuples(st.just("neg"), children),
        st.tuples(st.sampled_from(["add", "sub", "mul"]), children, children),
        st.tuples(st.just("pow"), children, st.integers(0, 3)),
    ),
    max_leaves=8,
)


def render(tree, sp: str) -> str:
    """The tree as an ``expr`` of the grammar, parenthesized only where needed."""
    kind = tree[0]
    if kind in ("add", "sub"):
        op = "+" if kind == "add" else "-"
        return f"{render(tree[1], sp)}{sp}{op}{sp}{render_term(tree[2], sp)}"
    return render_term(tree, sp)


def render_term(tree, sp: str) -> str:
    if tree[0] == "mul":
        return f"{render_term(tree[1], sp)}{sp}*{sp}{render_factor(tree[2], sp)}"
    return render_factor(tree, sp)


def render_factor(tree, sp: str) -> str:
    if tree[0] == "neg":
        return "-" + render_factor(tree[1], sp)
    if tree[0] == "pow":
        return f"{render_base(tree[1], sp)}{sp}^{sp}{tree[2]}"
    return render_base(tree, sp)


def render_base(tree, sp: str) -> str:
    if tree[0] == "num":
        return f"{tree[1]}/{tree[2]}" if tree[2] != 1 else str(tree[1])
    if tree[0] == "var":
        return "xyz"[tree[1]]
    return f"({sp}{render(tree, sp)}{sp})"


def evaluate(tree, ring):
    kind = tree[0]
    if kind == "num":
        return ring.constant(Fraction(tree[1], tree[2]))
    if kind == "var":
        return ring.variable(tree[1])
    if kind == "neg":
        return -evaluate(tree[1], ring)
    if kind == "pow":
        return evaluate(tree[1], ring) ** tree[2]
    a, b = evaluate(tree[1], ring), evaluate(tree[2], ring)
    return a + b if kind == "add" else a - b if kind == "sub" else a * b


@settings(max_examples=200)
@given(tree=expression_trees, sp=st.sampled_from(["", " "]), ring=st.sampled_from([RING_XYZ, RING_XYZ_7]))
def test_parse_matches_operator_evaluation(tree, sp, ring):
    text = render(tree, sp)
    assert parse_polynomial(text, ring) == evaluate(tree, ring), text


# --------------------------------------------------------------- arithmetic

def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        RING_XY.parse("x") + RING_X.parse("x")


def test_difference_of_squares():
    assert RING_XY.parse("(x+y)*(x-y)") == RING_XY.parse("x^2") - RING_XY.parse("y^2")


def test_binomial_square():
    assert RING_XY.parse("x+y") ** 2 == RING_XY.parse("x^2 + 2*x*y + y^2")


@given(polynomials(RING_XY))
def test_additive_identity(f):
    assert f + RING_XY.zero() == f


@given(polynomials(RING_XY, max_terms=4), polynomials(RING_XY, max_terms=4))
def test_multiplication_commutes(f, g):
    assert f * g == g * f


@settings(max_examples=120)
@given(
    polynomials(RING_XY, max_terms=3),
    polynomials(RING_XY, max_terms=3),
    polynomials(RING_XY, max_terms=3),
)
def test_distributivity(f, g, h):
    assert (f + g) * h == f * h + g * h


def test_pow_validation():
    with pytest.raises(Exception):
        RING_XY.parse("x") ** -1


# ----------------------------------------------------------------- calculus

def test_partial_derivative_examples():
    assert RING_XY.parse("x^3 + y^3").derivative(0) == RING_XY.parse("3*x^2")
    assert RING_XY.parse("x^2").derivative(1).is_zero()
    assert RING_XY.parse("x*y").derivative(0) == RING_XY.parse("y")


def test_derivative_index_out_of_range():
    with pytest.raises(IndexError):
        RING_XY.parse("x").derivative(2)


@given(
    st.sampled_from([0, 2, 3, 5]),
    st.lists(st.tuples(st.tuples(*[st.integers(0, 6)] * 3), st.integers(-9, 9)), max_size=8),
    st.integers(1, 4),
)
def test_derivative_matches_the_validated_constructor(char, terms, den):
    # the derivative is built in storage order without a sort; the validated
    # constructor merges, coerces and sorts the same terms itself, and over
    # F_p an exponent divisible by p drops its term
    ring = Ring(("x", "y", "z"), GF(char)) if char else RING_XYZ
    f = Polynomial(ring, [(m, c if char else Fraction(c, den)) for m, c in terms])
    for i in range(3):
        expected = Polynomial(
            ring, [(m[:i] + (m[i] - 1,) + m[i + 1 :], c * m[i]) for m, c in f.terms() if m[i]]
        )
        assert f.derivative(i).terms() == expected.terms()


@given(polynomials(RING_XYZ, max_terms=4))
def test_schwarz_symmetry(f):
    for i in range(3):
        for j in range(i + 1, 3):
            assert f.derivative(i).derivative(j) == f.derivative(j).derivative(i)


# --------------------------------------------------------------- evaluation

def test_evaluate_examples():
    assert RING_XY.parse("x^2 + y").evaluate([2, 1]) == 5
    f = RING_XY.parse("x^2 - 3*x*y + 1/2")
    assert f.evaluate([0, 0]) == f.constant_term()
    c = Fraction(7, 3)
    assert RING_XY.parse("x - y").evaluate([c, c]) == 0


def test_evaluate_arity_mismatch():
    with pytest.raises(ArityMismatch):
        RING_XY.parse("x").evaluate([1])


@given(
    polynomials(RING_XY, max_terms=3, max_exp=2),
    polynomials(RING_XY, max_terms=3, max_exp=2),
    rational_points(2, max_abs=3),
)
def test_evaluation_is_ring_morphism(f, g, point):
    assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
    assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)


def test_shift_translates_origin():
    f = RING_X.parse("x^2")
    assert f.shift([1]) == RING_X.parse("x^2 + 2*x + 1")
    # shifted polynomial evaluated at 0 equals original at the point
    g = RING_XY.parse("x^3 - 2*x*y + 5")
    point = (Fraction(1, 2), Fraction(-3))
    assert g.shift(point).evaluate((0, 0)) == g.evaluate(point)


RING_XYZ_F7 = Ring(("x", "y", "z"), GF(7))


@settings(max_examples=150)
@pytest.mark.parametrize("ring", [RING_XYZ, RING_XYZ_F7], ids=["QQ", "GF7"])
@given(data=st.data())
def test_shift_matches_substitution(ring, data):
    f = data.draw(polynomials(ring, max_terms=6, max_exp=4))
    point = data.draw(rational_points(3))
    values = [ring.variable(i) + ring.constant(p) for i, p in enumerate(point)]
    assert f.shift(point) == f.substitute(values)


@given(polynomials(RING_XYZ))
def test_shift_by_zero_is_identity(f):
    assert f.shift((0, 0, 0)) == f


# ------------------------------------------------------------ leading terms
#
# Monomials are compared only by groebner's packed keys; a leading term is
# the term whose packed monomial has the largest key.

def lead(p, order):
    pk = _packing(p.ring.arity)
    key = pk.key(order)
    return max(p.terms(), key=lambda mc: key(pk.pack(mc[0])))


def test_leading_term_degrevlex_prefers_degree():
    f = RING_XY.parse("x^2 + x*y + y^3")
    assert lead(f, DEGREVLEX) == ((0, 3), 1)


def test_leading_term_lex_ignores_degree():
    assert lead(RING_XY.parse("x^2 + y^3"), LEX) == ((2, 0), 1)


def test_leading_term_local_prefers_low_degree():
    assert lead(RING_X.parse("x + x^2"), LOCAL_DEGREVLEX) == ((1,), 1)


@pytest.mark.parametrize("order", [DEGREVLEX, LEX])
@given(f=nonzero_polynomials(RING_XY), g=nonzero_polynomials(RING_XY))
def test_leading_term_multiplicative_global(order, f, g):
    fm, fc = lead(f, order)
    gm, gc = lead(g, order)
    pm, pc = lead(f * g, order)
    assert pm == tuple(a + b for a, b in zip(fm, gm))
    assert pc == fc * gc


ORDERS = [LEX, DEGREVLEX, LOCAL_DEGREVLEX, elimination_order({0})]


@settings(max_examples=80)
@given(
    f=polynomials(RING_XYZ, max_terms=4),
    g=polynomials(RING_XYZ, max_terms=4),
    h=nonzero_polynomials(RING_XYZ, max_terms=4),
)
def test_leading_term_cache_follows_the_order(f, g, h):
    # arithmetic results, each asked for its leading term under every order
    # in turn, twice: the packing's cached key depends on the order asked
    # alone, and agrees with the tuple key
    for p in (f * g + h, h - f * h, -(h * h) + g, h._mul_term((1, 0, 2), 3, 1)):
        if p.is_zero():
            continue
        for _ in range(2):
            for order in ORDERS:
                expected = max(p.terms(), key=lambda mc: order_key(order, mc[0]))
                assert lead(p, order) == expected


def elim_key_formula(block, m):
    inb = [e for i, e in enumerate(m) if i in block]
    out = [e for i, e in enumerate(m) if i not in block]
    return (sum(inb), tuple(-e for e in reversed(inb)), sum(out), tuple(-e for e in reversed(out)))


@given(
    block=st.frozensets(st.integers(0, 5)),
    monos=st.lists(st.lists(st.integers(0, 9), max_size=5).map(tuple), min_size=1, max_size=8),
)
def test_elim_key_matches_the_block_formula(block, monos):
    order = elimination_order(block)
    for m in monos:  # monomials of several lengths through one order
        assert order_key(order, m) == elim_key_formula(block, m)
        pk = _packing(len(m))
        key = pk.key(order)
        for m2 in monos:
            if len(m2) == len(m):
                assert (key(pk.pack(m)) < key(pk.pack(m2))) == (
                    elim_key_formula(block, m) < elim_key_formula(block, m2)
                )
    assert order == elimination_order(sorted(block))
    assert hash(order) == hash(elimination_order(block))


def test_exponent_overflow_in_arithmetic():
    x = RING_X.variable(0)
    top = Polynomial(RING_X, {(MAX_EXPONENT,): 1})
    with pytest.raises(ExponentOverflow):
        top * x
    with pytest.raises(ExponentOverflow):
        top._mul_term((1,), 1, 1)
    with pytest.raises(ExponentOverflow):
        Polynomial(RING_X, {(2**30,): 1}) ** 2
    # a large total degree alone is no overflow
    y = RING_XY.variable(1)
    assert (Polynomial(RING_XY, {(MAX_EXPONENT, 0): 1}) * y).terms() == (((MAX_EXPONENT, 1), 1),)


def test_pow_of_a_single_term():
    assert RING_XY.parse("-2*x*y^3") ** 5 == RING_XY.parse("-32*x^5*y^15")
    f7 = Ring(("x",), GF(7)).parse("3*x^2")
    assert f7**6 == Ring(("x",), GF(7)).parse("x^12")


# ------------------------------------------------------------------- points

def test_parse_point():
    assert parse_point("0,1/2,-3", 3) == (0, Fraction(1, 2), -3)
    assert parse_point(" 0.5 ,-1.25", 2) == (Fraction(1, 2), Fraction(-5, 4))
    with pytest.raises(ArityMismatch):
        parse_point("1,2", 3)
    # exponent notation would let 1e1000000 build a million-digit integer
    for text in ("1e1000000", "0,2E3", "1.5e-2,0"):
        with pytest.raises(InputError, match="exponent"):
            parse_point(text, len(text.split(",")))


@given(st.text(st.sampled_from("0123456789-+/._ eE\u0663\t\u00a0"), max_size=8))
@example("+3")
@example("1_000")
@example("\u0663")  # ARABIC-INDIC DIGIT THREE
@example(" 3 ")
@example("3.")
@example(".5")
@example("1/-2")
@example("1 /2")
@example("1/0")
@example("")
@example("1e5")
def test_parse_point_matches_the_fraction_oracle(text):
    # plain integers and a/b are read with int(), every other spelling by
    # Fraction: either way the value, or the refusal, is Fraction(text)'s
    try:
        expected = point_coordinate(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InputError):
            parse_point(text, 1)
        return
    (got,) = parse_point(text, 1)
    assert type(got) is Fraction and got == expected


# -------------------------------------------------------------- stored form

def _built_along_every_path(ring):
    """(path, polynomial) for each way the package builds a Polynomial."""
    x, y = ring.variable(0), ring.variable(1)
    f = ring.parse("1/2*x^2 - 2/3*x*y + 3*y - 1/5")
    I = Ideal(ring, [ring.parse("x^2 - 1/2*y"), ring.parse("x*y^2 - 1/3*x - y")])
    basis = groebner_basis(I)
    built = [
        ("parse", f),
        ("parse with groups", ring.parse("(1/2*x - y)^2*(x + 1/3)")),
        ("constant", ring.constant(Fraction(3, 4))),
        ("integer constant", ring.constant(2)),
        ("variable", x),
        ("+", f + x),
        ("-", f - 2 * y),
        ("*", f * (x - Fraction(1, 3))),
        ("**", f**3),
        ("derivative", f.derivative(0)),
        ("shift", f.shift((Fraction(1, 2), -1))),
        ("normal_form", normal_form(x**3 * y, basis)),
    ]
    built += [("elements", g) for g in basis.elements]
    local = standard_basis(Ideal(ring, [f - 3 * y + Fraction(1, 5), y - x**2]))
    built += [("local elements", g) for g in local.elements]
    multivariate = basis.multivariate_elements()
    assert multivariate
    built += [("multivariate_elements", g) for g in multivariate]
    return built


def test_terms_yield_fractions_over_q():
    for path, f in _built_along_every_path(RING_XY):
        assert f.terms(), path
        assert all(type(c) is Fraction for _, c in f.terms()), path
        # the stored integers over one denominator are the same coefficients
        stored, den = f.numerators()
        assert den > 0, path
        assert [Fraction(c, den) for _, c in stored] == [c for _, c in f.terms()], path


def test_terms_yield_residues_over_a_prime_field():
    for path, f in _built_along_every_path(Ring(("x", "y"), GF(7))):
        assert f.terms(), path
        assert all(type(c) is int and 0 <= c < 7 for _, c in f.terms()), path
        assert f.numerators() == (f.terms(), 1), path


def test_equal_polynomials_have_one_stored_form():
    x, y = RING_XY.variable(0), RING_XY.variable(1)
    basis = groebner_basis(Ideal(RING_XY, [RING_XY.parse("2*x^2 - y")]))
    groups = [
        [x, RING_XY.parse("1/2*x + 1/2*x"), RING_XY.parse("2/4*x*2"),
         RING_XY.parse("1/2*x^2").derivative(0), (x + Fraction(1, 2)) * 2 - 1 - x,
         Polynomial(RING_XY, {(1, 0): Fraction(6, 6)})],
        [RING_XY.parse("1/6*x - 1/6*y"), RING_XY.parse("1/2*x - 1/3*x - 1/6*y"),
         (x - y) * Fraction(1, 6)],
        [RING_XY.constant(0), x - x, RING_XY.parse("1/3 - 1/3"), RING_XY.parse("y").derivative(0)],
        [normal_form(x**2, basis), RING_XY.parse("1/2*y"), y * Fraction(1, 2)],
        [RING_XY.parse("(x + 1/2)^2").shift((Fraction(-1, 2), 0)), x**2],
    ]
    for group in groups:
        first = group[0]
        for f in group[1:]:
            assert f == first and hash(f) == hash(first) and str(f) == str(first)
            assert f.numerators() == first.numerators()


@settings(max_examples=60, deadline=None)
@given(polynomials(RING_XY, max_terms=4), polynomials(RING_XY, max_terms=4))
def test_arithmetic_results_are_in_stored_form(f, g):
    # the validated constructor finds the least denominator itself; results
    # built from merged integers must land on the same stored form
    shifted = f.shift((Fraction(1, 2), Fraction(-2, 3)))
    for h in (f + g, f - g, f * g, f**2, f.derivative(1), shifted):
        again = Polynomial(RING_XY, h.terms())
        assert h.numerators() == again.numerators() and hash(h) == hash(again)
        assert RING_XY.parse(str(h)).numerators() == h.numerators()


def test_parser_builds_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("the parser built a Fraction")

    texts = [
        (RING_XY, "1/2*x^2 - (2/3*x + 1/5)^3*y + 7/4",
         "-8/27*x^3*y - 4/15*x^2*y + 1/2*x^2 - 2/25*x*y - 1/125*y + 7/4"),
        (RING_XY, "(1/2)^3*x + 2/4*(x*y)^2", "1/2*x^2*y^2 + 1/8*x"),
        (Ring(("x", "y"), GF(7)), "1/2*x - (3/5*y + 1)^2", "3*y^2 + 4*x + 3*y + 6"),
    ]
    parsed = []
    with monkeypatch.context() as m:
        m.setattr(poly, "Fraction", refuse)
        for ring, text, _ in texts:
            parsed.append(parse_polynomial(text, ring))
    for f, (_, _, expected) in zip(parsed, texts):
        assert str(f) == expected
