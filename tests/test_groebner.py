import ast
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nuchi
from nuchi.errors import ExponentOverflow, InputError, OriginNotOnVariety, RingMismatch
from nuchi.groebner import (
    DEGREVLEX,
    INFINITE,
    Ideal,
    LOCAL_DEGREVLEX,
    colength,
    eliminant,
    eliminate,
    groebner_basis,
    hs_multiplicity,
    ideal_membership,
    jacobian_basis,
    jacobian_groebner_basis,
    krull_dimension,
    normal_form,
    partial_term_counts,
    staircase_count,
    standard_basis,
    _hilbert,
    _minimal_packed,
    _packing,
)
from nuchi import groebner
from nuchi.poly import (
    GF,
    LEX,
    MAX_EXPONENT,
    QQ,
    Ring,
    Polynomial,
    elimination_order,
    mono_mul,
)

from .oracles import (
    assert_spolys_vanish,
    lazard_colength_local,
    macaulay_colength_global,
    macaulay_colength_local,
    monomial_degree,
    monomial_lattice_colength,
    monomial_subset_dimension,
    mono_divides,
    mono_lcm,
    order_key,
)
from .strategies import RING_XY, RING_XYZ, polynomials

RING_XY_GF5 = Ring(("x", "y"), GF(5))

R2 = Ring(("x", "y"))
R1 = Ring(("x",))


def ideal(*exprs, ring=R2):
    return Ideal.from_strings(ring, exprs)


def basis_strings(basis):
    return [str(g) for g in basis.elements]


def checked(basis):
    """The basis, after checking that every S-polynomial of its elements
    reduces to zero."""
    assert_spolys_vanish(basis)
    return basis


# ------------------------------------------------------------ Groebner bases

def test_groebner_lex_example():
    assert basis_strings(groebner_basis(ideal("x - y^2", "y"), LEX)) == ["y", "x"]


def test_groebner_containment():
    assert basis_strings(groebner_basis(ideal("x^2", "x"))) == ["x"]


def test_groebner_zero_ideal():
    assert basis_strings(groebner_basis(Ideal(R2, []))) == []


def test_groebner_in_no_variables():
    ring = Ring(())
    basis = groebner_basis(Ideal(ring, [ring.constant(2), ring.constant(3)]))
    assert basis_strings(basis) == ["1"] and basis.leading_monomials() == ((),)
    assert colength(Ideal(ring, [])) == 1


def test_groebner_verify_buchberger_criterion():
    # post-hoc S-pair check on a few nontrivial bases
    for gens in [("x^2 + y", "x*y - 1"), ("x^3 - 2*x*y", "x^2*y - 2*y^2 + x")]:
        checked(groebner_basis(ideal(*gens), DEGREVLEX))
        checked(groebner_basis(ideal(*gens), LEX))


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    polynomials(RING_XY),
    polynomials(RING_XYZ, max_terms=4),
    polynomials(RING_XY_GF5, max_exp=6),  # m_i = 5 vanishes in the field
))
def test_jacobian_entry_matches_the_ideal_of_the_partials(f):
    partials = [f.derivative(i) for i in range(f.ring.arity)]
    assert partial_term_counts(f) == tuple(len(d.terms()) for d in partials)
    assert jacobian_groebner_basis(f).entries == groebner_basis(Ideal(f.ring, partials)).entries


def test_reduced_basis_unique_under_representation_change():
    # sequential elementary operations g_i += c * mono * g_j preserve the
    # ideal; the reduced basis must not notice
    rng = random.Random(7)
    gens = [R2.parse(e) for e in ("x^2 + y^2 - 1", "x*y - 2", "x^3 - y")]
    reference = groebner_basis(Ideal(R2, gens)).elements
    for _ in range(10):
        new_gens = list(gens)
        for _ in range(rng.randint(2, 5)):
            i, j = rng.sample(range(len(new_gens)), 2)
            scale = rng.choice([-3, -2, -1, 1, 2, 3])
            mono = R2.parse(rng.choice(["1", "x", "y", "x*y"]))
            new_gens[i] = new_gens[i] + scale * mono * new_gens[j]
        assert groebner_basis(Ideal(R2, new_gens)).elements == reference


# ------------------------------------------------------------ standard bases

def test_standard_basis_unit_absorption():
    assert basis_strings(checked(standard_basis(ideal("x + x^2")))) == ["x"]


def test_standard_basis_unit_factor():
    assert basis_strings(standard_basis(ideal("x^2 - x^3"))) == ["x^2"]


def test_standard_basis_monic_monomials():
    assert basis_strings(standard_basis(ideal("3*x^2", "3*y^2"))) == ["y^2", "x^2"]


def test_standard_basis_keeps_mixed_element():
    # (x + y^2) is not a monomial times a unit; it must survive (printed in
    # canonical descending-degrevlex term order)
    assert basis_strings(standard_basis(ideal("x + y^2"))) == ["y^2 + x"]


def test_standard_basis_is_minimal():
    # a divisor's lead is the larger one under the local order, so
    # minimality must not depend on visiting entries in that order
    assert basis_strings(checked(standard_basis(ideal("x", "x^2 + y^3")))) == ["y^3", "x"]
    assert basis_strings(checked(standard_basis(ideal("x - 1", "y")))) == ["1"]


# -------------------------------------------------------------- normal forms

def test_normal_form_examples():
    B = groebner_basis(ideal("x"))
    assert normal_form(R2.parse("x^2"), B).is_zero()
    assert normal_form(R2.parse("y"), B) == R2.parse("y")
    B2 = groebner_basis(ideal("x^2"))
    assert normal_form(R2.parse("x^2*y + y"), B2) == R2.parse("y")


def test_normal_form_ring_mismatch():
    B = groebner_basis(ideal("x"))
    with pytest.raises(RingMismatch):
        normal_form(R1.parse("x"), B)


@settings(max_examples=60)
@given(f=polynomials(RING_XY, max_terms=4))
def test_normal_form_idempotent_global(f):
    B = groebner_basis(ideal("x^2 - y", "y^2 - 1"))
    r = normal_form(f, B)
    assert normal_form(r, B) == r
    # f - nf(f) is in the ideal
    assert ideal_membership(f - r, ideal("x^2 - y", "y^2 - 1"))


def test_normal_form_refuses_a_local_basis():
    # a local basis is read for invariants only: Mora's remainder is not unique
    B = standard_basis(ideal("x^2 + x^3", "y^3"))
    with pytest.raises(InputError):
        normal_form(R2.parse("x^2 + y"), B)


# --------------------------------------------------------------- membership

def test_membership_generator():
    assert ideal_membership(R2.parse("y"), ideal("y", "x - x*y"))


def test_membership_unit_not_in_proper_ideal():
    assert not ideal_membership(R2.parse("1"), ideal("x", "y"))


# -------------------------------------------------------------- elimination

def test_eliminate_substitution():
    r3 = Ring(("t", "x", "y"))
    E = eliminate(Ideal.from_strings(r3, ["t*x - 1", "y - t"]), {0})
    assert [str(g) for g in E.generators] == ["x*y - 1"]


def test_eliminate_graph_is_trivial():
    r3 = Ring(("t", "x", "y"))
    E = eliminate(Ideal.from_strings(r3, ["y - t*x"]), {0})
    assert E.generators == ()


def test_eliminate_nothing_gives_same_ideal():
    I = ideal("x^2 - y", "y^2")
    E = eliminate(I, set())
    assert set(E.generators) == set(groebner_basis(I).elements)


def test_eliminate_output_members_of_source():
    r3 = Ring(("t", "x", "y"))
    I = Ideal.from_strings(r3, ["t^2 - x", "t^3 - y"])
    E = eliminate(I, {0})
    assert [str(g) for g in E.generators] == ["x^3 - y^2"]
    # a membership certificate written out by hand, checked in plain
    # Polynomial arithmetic: no basis computation is involved
    cofactors = [r3.parse("-(t^4 + t^2*x + x^2)"), r3.parse("t^3 + y")]
    total = sum((c * g for c, g in zip(cofactors, I.generators)), r3.zero())
    assert total == E.generators[0]


# ------------------------------------------------------------------ colength

def test_colength_examples():
    assert colength(ideal("x", "y")) == 1
    assert colength(ideal("x^2", "y^2")) == 4
    assert colength(ideal("x")) == INFINITE


def test_colength_local_vs_global():
    # (x^2 - x^3) has colength 2 at the origin but 3 globally (extra point at 1)
    I = ideal("x^2 - x^3", "y")
    assert colength(I, LOCAL_DEGREVLEX) == 2
    assert colength(I, DEGREVLEX) == 3


def test_colength_past_degree_64():
    assert colength(ideal("x^70", "y")) == 70


def test_counts_at_exponents_up_to_the_limit():
    top = 2**31 - 1
    assert colength(ideal(f"x^{top}", "y^2")) == 2 * top
    assert colength(ideal(f"x^{top}", "x*y", f"y^{top}")) == 2 * top - 1
    assert staircase_count([(top, 0), (1, 1)], 2) == INFINITE
    assert staircase_count([(top, 0, 0), (0, top, 0), (0, 0, top)], 3) == top**3
    assert krull_dimension(ideal(f"x^{top}", f"x*y^{top}", ring=RING_XYZ)) == 2
    assert krull_dimension(ideal(f"x^{top}", f"y^{top}", ring=RING_XYZ)) == 1
    assert hs_multiplicity(ideal(f"x^{top}", f"y^{top}")) == top**2
    assert hs_multiplicity(ideal(f"x^{top}*y")) == top + 1


@pytest.mark.parametrize(
    "gens",
    [("x", "y"), ("x^2", "y^2"), ("x^3", "x*y", "y^2"), ("x^4", "y"), ("x^2", "x*y^3", "y^4")],
)
def test_colength_matches_lattice_oracle_on_monomial_ideals(gens):
    I = ideal(*gens)
    monos = [g.terms()[0][0] for g in I.generators]
    assert colength(I) == monomial_lattice_colength(monos, 2)


@pytest.mark.parametrize(
    "gens,arity",
    [
        (("x^2", "y^2"), 2),
        (("x^2 - y", "y^2"), 2),
        (("x^3 - y", "x*y - 1"), 2),
        (("x^2 - 1", "y - x"), 2),
        (("x^2", "y^2", "z^2"), 3),
    ],
)
def test_colength_matches_macaulay_oracle(gens, arity):
    ring = Ring(tuple("xyz"[:arity]))
    I = Ideal.from_strings(ring, gens)
    assert colength(I, DEGREVLEX) == macaulay_colength_global(I)


@st.composite
def local_ideals(draw):
    """Pure powers x_i^a_i (a_i <= 4), which keep the local colength finite,
    plus one or two random generators vanishing at the origin."""
    ring = draw(st.sampled_from([RING_XY, RING_XYZ]))
    gens = [ring.variable(i) ** draw(st.integers(1, 4)) for i in range(ring.arity)]
    for _ in range(draw(st.integers(1, 2))):
        g = draw(polynomials(ring, max_terms=3))
        gens.append(g - g.constant_term())
    return Ideal(ring, gens)


@settings(max_examples=60, deadline=None)
@given(local_ideals())
@example(ideal("x^2", "y^2"))
@example(ideal("x^2 - x^3", "y"))
@example(ideal("y^2 - x^3", "x^2*y"))
@example(ideal("x^2 + y^3", "x*y"))
@example(ideal("3*x^2 - y^2", "-2*x*y"))  # Jacobian of the D4 singularity
# the highest corner: with the pure-power leads x and y^3 every monomial of
# degree 3 lies in the ideal, and the pairs of lcm degree 2 still give y^2
@example(ideal("x^2", "y^3", "x - y"))
@example(ideal("x^3 + 3*x*y^3", "y^4", "3*x^2 - 3*x^3*y^3 - 3*x^3"))
def test_local_colength_matches_macaulay_oracle(I):
    assert colength(I, LOCAL_DEGREVLEX) == macaulay_colength_local(I) == lazard_colength_local(I)


def test_lazard_oracle_answers_where_mora_stalls():
    # the two-term Brieskorn-Pham: x^5 + y^6 + z^2 has weights (1/5, 1/6,
    # 1/2) and both extra terms have weight above 1, so mu = 4*5*1 = 20
    R3 = Ring(("x", "y", "z"))
    f = R3.parse("x^5 + y^6 + z^2 + x*y^2*z - x^4*y*z")
    jacobian = Ideal(R3, [f.derivative(i) for i in range(3)])
    assert lazard_colength_local(jacobian) == 20


# ----------------------------------------------------------------- dimension

def test_krull_dimension_examples():
    assert krull_dimension(ideal("x")) == 1
    assert krull_dimension(ideal("x", "y")) == 0
    assert krull_dimension(Ideal(R2, [])) == 2
    assert krull_dimension(ideal("x", "x - 1")) == -1  # unit ideal


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=6),
        )
    )
)
def test_monomial_ideal_dimension_matches_subset_oracle(case):
    arity, gens = case
    ring = Ring(tuple(f"x{i}" for i in range(arity)))
    I = Ideal(ring, [Polynomial(ring, {g: 1}) for g in gens])
    assert krull_dimension(I) == monomial_subset_dimension(gens, arity)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=6),
        )
    )
)
@example((2, [(2, 0), (1, 1), (0, 2)]))  # both of Bigatti's branches at one k
@example((3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)]))  # three lines: degree 3
@example((3, [(2, 0, 0), (0, 2, 0), (1, 1, 1)]))  # a triple line with an embedded point
def test_hilbert_counter_matches_the_oracles(case):
    arity, gens = case
    pk = _packing(arity)
    length, dim, degree = _hilbert(_minimal_packed(map(pk.pack, gens), pk.guard), pk)
    box = monomial_lattice_colength(gens, arity)
    assert (length == INFINITE) == (box is None)
    assert box is None or length == box
    assert dim == monomial_subset_dimension(gens, arity)
    assert degree == monomial_degree(gens, arity)


# -------------------------------------------------------------- multiplicity

def test_hs_multiplicity_examples():
    assert hs_multiplicity(ideal("y^2 - x^3")) == 2
    assert hs_multiplicity(ideal("y - x^2")) == 1
    assert hs_multiplicity(ideal("x*y")) == 2


def test_hs_multiplicity_requires_origin():
    with pytest.raises(OriginNotOnVariety):
        hs_multiplicity(ideal("x - 1"))


def test_hs_multiplicity_many_generators():
    # (x, y)^21 has 22 minimal generators; its multiplicity is binom(22, 2)
    power = Ideal(R2, [R2.parse(f"x^{21 - i}*y^{i}") for i in range(22)])
    assert hs_multiplicity(power) == 231


def test_hs_multiplicity_higher_cusp():
    # y^2 = x^5 has multiplicity 2; y^3 = x^5 has multiplicity 3
    assert hs_multiplicity(ideal("y^2 - x^5")) == 2
    assert hs_multiplicity(ideal("y^3 - x^5")) == 3


# ----------------------------------------------------- prime-field pre-check

def test_groebner_over_prime_field_advisory_mode():
    # the F_p engine is an advisory pre-check; its leading ideal matches the
    # rational computation here because no coefficient collapses mod 7
    ring_p = Ring(("x", "y"), GF(7))
    I_p = Ideal.from_strings(ring_p, ["x^2 - y", "y^2 - 1"])
    I_q = ideal("x^2 - y", "y^2 - 1")
    basis_p = checked(groebner_basis(I_p))
    basis_q = groebner_basis(I_q)
    assert basis_p.leading_monomials() == basis_q.leading_monomials()
    assert colength(I_p) == colength(I_q) == 4


def test_colength_unit_ideal_is_zero():
    assert colength(ideal("x", "x - 1")) == 0


# --------------------------------------------------------- exponent overflow
#
# Verdicts recorded before monomials were packed into ints: ExponentOverflow
# is raised exactly where a result would hold an exponent past MAX_EXPONENT,
# and only there.

M = MAX_EXPONENT


def test_lex_basis_past_max_exponent_overflows():
    with pytest.raises(ExponentOverflow):
        groebner_basis(ideal(f"x - y^{M}", "x^2"), LEX)


def test_local_basis_past_max_exponent_overflows():
    with pytest.raises(ExponentOverflow):
        standard_basis(ideal(f"x*y + x^{M}", f"x*y + y^{M}"))


def test_normal_form_past_max_exponent_overflows():
    basis = groebner_basis(ideal(f"x - y^{M}"), LEX)
    with pytest.raises(ExponentOverflow):
        normal_form(R2.parse("x^3"), basis)


def test_basis_at_max_exponent_is_no_overflow():
    basis = groebner_basis(ideal(f"x^{M} + y", f"y^{M} + x"))
    assert basis_strings(basis) == [f"y^{M} + x", f"x^{M} + y"]


def test_division_may_pass_max_exponent_on_the_way():
    # z*x^5*y -> x^(M+5)*y -> x^5: only the remainder is checked
    ring = Ring(("z", "x", "y"))
    basis = groebner_basis(ideal(f"z - x^{M}", f"x^{M}*y - 1", ring=ring), LEX)
    assert str(normal_form(ring.parse("z*x^5*y"), basis)) == "x^5"


def test_overflow_mask_covers_every_bit_past_the_limit():
    pk = _packing(2)
    for field in (M + 1, 2**32, 2**62, 2**63):
        for shift in (0, 64):
            with pytest.raises(ExponentOverflow):
                pk.check([field << shift])
    pk.check([pk.pack((M, M))])


# ---------------------------------------------------------- packed monomials

exponent = st.one_of(st.integers(0, 5), st.integers(0, M))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.tuples(*[exponent] * n), st.tuples(*[exponent] * n), st.sets(st.integers(0, n - 1)))))
def test_packed_monomials_match_tuples(case):
    a, b, block = case
    pk = _packing(len(a))
    pa, pb = pk.pack(a), pk.pack(b)
    assert pk.unpack(pa) == a and pa >> pk.shift == sum(a)
    assert pk.unpack(pa + pb) == mono_mul(a, b)
    assert pk.unpack(pk.lcm(pa, pb)) == mono_lcm(a, b)
    assert pk.lcm(pa, pb) == pk.pack(mono_lcm(a, b))
    guard = pk.guard
    assert (((pb | guard) - pa) & guard == guard) == mono_divides(a, b)
    for order in (LEX, DEGREVLEX, LOCAL_DEGREVLEX, elimination_order(block)):
        key = pk.key(order)
        assert (key(pa) < key(pb)) == (order_key(order, a) < order_key(order, b))
        assert (key(pa) == key(pb)) == (a == b)


# ------------------------------------------------- outputs pinned to strings
#
# Recorded from the Fraction-based engine that preceded the integer one; the
# bases, normal forms and the FGLM eliminant must not change by a character.

PINNED_ORDERS = {
    "lex": LEX,
    "degrevlex": DEGREVLEX,
    "elim": elimination_order({0}),
}

# (variables, characteristic, generators, order, str of each basis element)
PINNED_BASES = [
    (
        "x,y", 0, "lex",
        ["x^2 + y", "x*y - 1"],
        ["y^3 + 1", "y^2 + x"],
    ),
    (
        "x,y", 0, "degrevlex",
        ["x^2 + y", "x*y - 1"],
        ["y^2 + x", "x*y - 1", "x^2 + y"],
    ),
    (
        "x,y,z", 0, "lex",
        ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1"],  # cyclic-3
        ["z^3 - 1", "y^2 + y*z + z^2", "x + y + z"],
    ),
    (
        "x,y,z", 0, "degrevlex",
        ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1"],  # cyclic-3
        ["x + y + z", "y^2 + y*z + z^2", "z^3 - 1"],
    ),
    (
        "a,b,c,d", 0, "degrevlex",
        [  # katsura-3
            "a + 2*b + 2*c + 2*d - 1",
            "a^2 + 2*b^2 + 2*c^2 + 2*d^2 - a",
            "2*a*b + 2*b*c + 2*c*d - b",
            "b^2 + 2*a*c + 2*b*d - c",
        ],
        [
            "a + 2*b + 2*c + 2*d - 1",
            "c^2 + 2*b*d + 32/7*c*d + 27/7*d^2 - 1/7*b - 4/7*c - 9/7*d",
            "b*c - 2*b*d - 23/7*c*d - 24/7*d^2 + 1/14*b + 2/7*c + 8/7*d",
            "b^2 + 2*b*d + 8/7*c*d + 12/7*d^2 - 2/7*b - 1/7*c - 4/7*d",
            "c*d^2 + 10/9*d^3 - 1/18*b*d - 17/81*c*d - 13/27*d^2 + 1/54*b + 5/162*c + 1/27*d",
            "b*d^2 - 1/3*d^3 - 1/9*b*d + 1/54*c*d + 1/9*d^2 - 1/36*b - 1/27*c",
            "d^4 - 362/891*d^3 + 37/891*b*d + 1841/16038*c*d + 206/2673*d^2 - 13/10692*b - 389/32076*c - 47/2673*d",
        ],
    ),
    (
        "x,y", 0, "lex",
        ["1/2*x^2 - 3/4*y^2 + x", "2/3*x*y + 5/2*y^2 - x"],
        ["y^4 - 16/67*y^3 + 42/67*y^2", "-67/45*y^3 - 169/90*y^2 + x"],
    ),
    (
        "x,y", 0, "degrevlex",
        ["1/2*x^2 - 3/4*y^2 + x", "2/3*x*y + 5/2*y^2 - x"],
        [
            "x*y + 15/4*y^2 - 3/2*x",
            "x^2 - 3/2*y^2 + 2*x",
            "y^3 + 169/134*y^2 - 45/67*x",
        ],
    ),
    (
        "t,x,y", 0, "elim",
        ["t^2 - x", "t^3 - y"],
        ["x^3 - y^2", "-x^2 + t*y", "t*x - y", "t^2 - x"],
    ),
    (
        "t,x,y", 0, "elim",
        ["t*x - 1/3", "y - 2*t + x^2"],
        ["x^3 + x*y - 2/3", "-1/2*x^2 + t - 1/2*y"],
    ),
    (
        "x,y", 7, "degrevlex",
        ["x^2 - y", "y^2 - 1"],
        ["y^2 + 6", "x^2 + 6*y"],
    ),
    (
        "x,y", 7, "lex",
        ["3*x^2*y + 2*x", "5*y^2 - x"],
        ["y^5 + 2*y^2", "2*y^2 + x"],
    ),
    (
        "x,y,z", 7, "degrevlex",
        ["x + y + z", "x*y + y*z + z*x", "x*y*z - 1"],  # cyclic-3
        ["x + y + z", "y^2 + y*z + z^2", "z^3 + 6"],
    ),
    (
        "x,y", 0, "local",
        ["3*x^2 - y^2", "-2*x*y"],
        ["y^3", "x*y", "x^2 - 1/3*y^2"],
    ),
    (
        "x,y", 0, "local",
        ["x^2 - x^3", "y"],
        ["x^2", "y"],
    ),
    (
        "x,y", 0, "local",
        ["5*x^4 + 1/2*y^3", "6*y^5 + 3/2*x*y^2"],
        ["-2/5*y^6 + x^5", "10*x^4 + y^3", "4*y^5 + x*y^2"],
    ),
    (
        "x,y,z", 0, "local",
        ["3*x^2 + y*z", "4*y^3 + x*z", "2*z + x*y"],
        ["y^3 + 1/24*y^2*z", "x^2 + 1/3*y*z", "1/2*x*y + z"],
    ),
    (
        "x,y", 0, "local",
        ["y^2 - x^3 + 1/3*x^4", "x^2*y"],
        ["x^5", "x^2*y", "1/3*x^4 - x^3 + y^2"],
    ),
    (
        "x,y", 7, "local",
        ["x^2 + 3*y^3", "x*y + 2*x^3"],
        ["2*x^2*y^3 + y^4", "2*x^3 + x*y", "3*y^3 + x^2"],
    ),
    (
        # recorded before monomials were packed: Mora meets reducers of
        # equal ecart here, and takes the one of least order key
        "x,y", 0, "local",
        ["4*x*y^3 + y^3", "x^3 + y^2"],
        ["x^6 - 16*x^2*y^4", "x^3*y - 4*x*y^3", "x^3 + y^2"],
    ),
]

# (index into PINNED_BASES, f, str of normal_form(f, basis))
PINNED_NORMAL_FORMS = [
    (6, "x^3*y - 1/2*x*y^2 + 7*y^3 + 2/3*x", "-294329/17956*y^2 + 214957/26934*x"),
    (9, "x^3*y + 4*x*y^2 + 5", "5*x + 5"),
]


def pinned_basis(case):
    names, char, order, gens, _ = case
    ring = Ring(tuple(names.split(",")), GF(char) if char else QQ)
    I = Ideal.from_strings(ring, gens)
    return checked(standard_basis(I) if order == "local" else groebner_basis(I, PINNED_ORDERS[order]))


@pytest.mark.parametrize("case", PINNED_BASES)
def test_bases_are_pinned(case):
    assert basis_strings(pinned_basis(case)) == case[4]


@pytest.mark.parametrize("index,f,expected", PINNED_NORMAL_FORMS)
def test_normal_forms_are_pinned(index, f, expected):
    basis = pinned_basis(PINNED_BASES[index])
    assert str(normal_form(basis.ring.parse(f), basis)) == expected


def test_fglm_eliminant_is_pinned():
    # no element of this basis is univariate in x, so the eliminant is FGLM's
    basis = groebner_basis(ideal("x^2 + 1/2*y - 1", "y^2 - 3*x*y + 2/3"))
    assert not any(all(m[1] == 0 for m, _ in g.terms()) for g in basis.elements)
    # the monic x^4 + 3/2*x^3 - 2*x^2 - 3/2*x + 7/6 with content 1 and a
    # positive lead: times 6, in integers
    coefficients = eliminant(basis, 0)
    assert coefficients == {0: 7, 1: -9, 2: -12, 3: 9, 4: 6}
    assert all(type(c) is int for c in coefficients.values())
    # the eliminant is read in integers over Q: a basis over F_p is refused
    basis_p = groebner_basis(Ideal.from_strings(Ring(("x", "y"), GF(7)), ["x^2 + y", "y^2 - 3*x*y"]))
    with pytest.raises(InputError):
        eliminant(basis_p, 0)


# ------------------------------------------------- invariants and the boundary

@st.composite
def small_ideals(draw, global_orders=(DEGREVLEX, LEX)):
    """(I, order): up to three small random generators in two or three
    variables under a global order, or under the local order up to two
    random generators in two variables or a ``local_ideals`` ideal.  (Mora
    runs past 20 s on some ideals of three random generators in three
    variables.)"""
    if draw(st.booleans()):
        ring = draw(st.sampled_from([RING_XY, RING_XYZ]))
        gens = draw(st.lists(polynomials(ring, max_terms=3, max_exp=2), max_size=3))
        return Ideal(ring, gens), draw(st.sampled_from(global_orders))
    if draw(st.booleans()):
        return draw(local_ideals()), LOCAL_DEGREVLEX
    gens = draw(st.lists(polynomials(RING_XY, max_terms=3, max_exp=3), max_size=2))
    return Ideal(RING_XY, gens), LOCAL_DEGREVLEX


def basis_of(case):
    I, order = case
    return groebner_basis(I, order) if order.is_global else standard_basis(I)


@settings(max_examples=80, deadline=None)
@given(small_ideals().map(basis_of))
@example(groebner_basis(ideal()))  # the zero ideal
@example(standard_basis(ideal()))
@example(groebner_basis(ideal("x", "x - 1")))  # the unit ideal
@example(standard_basis(ideal("1 + x", "y")))
@example(groebner_basis(Ideal(Ring(()), [])))
def test_invariants_read_the_leading_term_ideal(basis):
    # the packed leads of the entries against the public counters on the
    # unpacked leads, which minimalize them again
    n = basis.ring.arity
    leads = basis.leading_monomials()
    length, dim, degree = basis.invariants()
    assert length == staircase_count(leads, n)
    assert dim == monomial_subset_dimension(leads, n)
    if dim < 0:
        assert (length, degree) == (0, 0)
    else:
        assert degree > 0 and (length == INFINITE) == (dim > 0)
        assert dim > 0 or degree == length


@settings(max_examples=120, deadline=None)
@given(small_ideals(global_orders=(DEGREVLEX, LEX, elimination_order({0}))))
# a chain criterion that drops a pair without testing the lcm loses an
# element on each of these
@example((ideal("x*y^2 + 2*x^2 - 3*y", "-2*x^2*y^2 + 3*x*y"), LEX))
@example((ideal("-3*x^2 + 3", "-x*y*z^2 + 3*y", ring=RING_XYZ), elimination_order({0})))
@example((ideal("x^2", "y^4", "z^4", "z^3 - 3*x*y", ring=RING_XYZ), LOCAL_DEGREVLEX))
def test_driver_bases_pass_the_s_polynomial_check(case):
    # the product and chain criteria drop pairs; the oracle reduces every
    # S-polynomial of the output elements, under each order's own reduction
    checked(basis_of(case))


@st.composite
def sharing_ideals(draw):
    """(I, order): three or four nonzero generators of up to three terms,
    with exponents up to 2, in two or three variables, under a global
    order.  Their leads share variables, so the chain criterion has pairs to
    drop, which the draws of ``small_ideals`` almost never need."""
    ring = draw(st.sampled_from([RING_XY, RING_XYZ]))
    terms = polynomials(ring, max_terms=3, max_exp=2, allow_zero=False)
    gens = draw(st.lists(terms, min_size=3, max_size=4))
    return Ideal(ring, gens), draw(st.sampled_from((DEGREVLEX, LEX, elimination_order({0}))))


@settings(max_examples=100, deadline=None)
@given(sharing_ideals())
def test_chain_criterion_keeps_the_pairs_it_needs(case):
    # a chain criterion that drops a pair without testing the lcm against the
    # lead they share loses an element in about one random draw in eight
    checked(basis_of(case))


@pytest.mark.parametrize(
    "f,mu,most",
    [
        ("x^3 + y^4 + z^5", 24, 0),
        ("x^4 + y^5 + z^6 + x*y*z", 14, 8),
        ("x^3 + y^3 + z^4 + x*y*z", 9, 8),
        ("x^3 + y^4 + z^5 + x*y^2*z", 24, 12),
    ],
)
def test_jacobian_basis_reduces_few_s_polynomials(monkeypatch, f, mu, most):
    # every pair the criteria keep costs one S-polynomial
    made = []
    s_poly = groebner._s_poly
    monkeypatch.setattr(groebner, "_s_poly", lambda *args: made.append(args) or s_poly(*args))
    basis = jacobian_basis(RING_XYZ.parse(f))
    assert basis.invariants()[0] == mu
    assert len(made) <= most


def test_only_groebner_reads_its_internals():
    # the packing and the driver's helpers stay behind groebner's public
    # names: no other module imports or reads an underscore name of it
    offenders = []
    for path in sorted(Path(nuchi.__file__).parent.glob("*.py")):
        if path.name == "groebner.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("groebner", "nuchi.groebner"):
                offenders += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "groebner"
                and node.attr.startswith("_")
            ):
                offenders.append(f"{path.name}: groebner.{node.attr}")
    assert offenders == []
