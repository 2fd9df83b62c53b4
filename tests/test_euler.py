import random

import pytest

from nuchi.errors import BoundExceeded, InputError, MissingValue, NoPolynomialFit, TooLarge
from nuchi.groebner import Ideal
from nuchi.poly import GF, Ring
from nuchi.singular import behrend_at
from nuchi.euler import (
    ConstructibleFunction,
    Stratification,
    Stratum,
    chi_combine,
    has_heuristic_inputs,
    hilbert_demo,
    macmahon_coefficients,
    plane_partition_counts,
    point_count_chi,
    weighted_euler,
)

R1 = Ring(("x",))
R2 = Ring(("x", "y"))


# ------------------------------------------------------------ weighted euler

def test_weighted_euler_fat_point():
    strat = Stratification([Stratum("pt", chi=1, dim=0)])
    func = ConstructibleFunction({"pt": 2})
    assert weighted_euler(strat, func) == 2


def test_weighted_euler_smooth_proper_curve():
    g = 3
    strat = Stratification([Stratum("curve", chi=2 - 2 * g, dim=1)])
    assert weighted_euler(strat, ConstructibleFunction({"curve": -1})) == -(2 - 2 * g)


def test_weighted_euler_zero_function():
    strat = Stratification(
        [Stratum("a", chi=5, dim=1), Stratum("b", chi=-2, dim=0)]
    )
    assert weighted_euler(strat, ConstructibleFunction({"a": 0, "b": 0})) == 0


def test_weighted_euler_missing_value():
    strat = Stratification([Stratum("a", chi=1), Stratum("b", chi=1)])
    with pytest.raises(MissingValue):
        weighted_euler(strat, ConstructibleFunction({"a": 1}))


def test_duplicate_labels_rejected():
    with pytest.raises(InputError):
        Stratification([Stratum("a", chi=1), Stratum("a", chi=2)])


@pytest.mark.parametrize(
    "data",
    [
        [{"label": "a"}],  # no chi
        {"a": 1},  # not an array
        [("a", 1)],  # not an object
        [{"label": "a", "chi": "one"}],
        [{"label": "a", "chi": 2.5}],
        [{"label": "a", "chi": 1, "dim": True}],
        [{"label": "a", "chi": 1, "heuristic": "false"}],
    ],
)
def test_malformed_strata_are_input_errors(data):
    with pytest.raises(InputError):
        Stratification.from_json(data)


@pytest.mark.parametrize("values", [5, [("a", 1)], {"a": "one"}, {"a": None}])
def test_malformed_function_values_are_input_errors(values):
    with pytest.raises(InputError):
        ConstructibleFunction(values)


def test_heuristic_flag_parsing():
    strat = Stratification.from_json(
        [
            {"label": "u", "chi": 0, "dim": 1, "how": "declared"},
            {"label": "z", "chi": 1, "dim": 0, "how": "heuristic point count"},
        ]
    )
    assert has_heuristic_inputs(strat)


# ----------------------------------------------------------------- chi algebra

def test_chi_combine_examples():
    assert chi_combine("complement", [1, 1]) == 0  # chi(Gm)
    assert chi_combine("product", [0, 0]) == 0  # chi(Gm x Gm)
    assert chi_combine("disjoint-union", [1, 1]) == 2  # chi(P1)


def test_chi_additive_under_refinement_randomized():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 5)
        strata = [Stratum(f"s{i}", chi=rng.randint(-6, 6), dim=rng.randint(0, 2)) for i in range(n)]
        values = {f"s{i}": rng.randint(-4, 4) for i in range(n)}
        coarse = weighted_euler(Stratification(strata), ConstructibleFunction(values))
        # refine one stratum into two pieces respecting the complement rule
        target = rng.randrange(n)
        refined, refined_values = [], {}
        for i, s in enumerate(strata):
            if i == target:
                chi_part = rng.randint(-6, 6)
                refined.append(Stratum(f"s{i}a", chi=chi_part, dim=s.dim))
                refined.append(Stratum(f"s{i}b", chi=s.chi - chi_part, dim=s.dim))
                refined_values[f"s{i}a"] = values[s.label]
                refined_values[f"s{i}b"] = values[s.label]
            else:
                refined.append(s)
                refined_values[s.label] = values[s.label]
        fine = weighted_euler(Stratification(refined), ConstructibleFunction(refined_values))
        assert fine == coarse


def test_chi_multiplicative_on_products_randomized():
    rng = random.Random(12)
    for _ in range(50):
        a = [(f"a{i}", rng.randint(-4, 4), rng.randint(-3, 3)) for i in range(rng.randint(1, 4))]
        b = [(f"b{j}", rng.randint(-4, 4), rng.randint(-3, 3)) for j in range(rng.randint(1, 4))]
        chi_a = weighted_euler(
            Stratification([Stratum(l, chi=c) for l, c, _ in a]),
            ConstructibleFunction({l: v for l, _, v in a}),
        )
        chi_b = weighted_euler(
            Stratification([Stratum(l, chi=c) for l, c, _ in b]),
            ConstructibleFunction({l: v for l, _, v in b}),
        )
        product_strata = [
            Stratum(f"{la}*{lb}", chi=ca * cb) for la, ca, _ in a for lb, cb, _ in b
        ]
        product_values = {
            f"{la}*{lb}": va * vb for la, _, va in a for lb, _, vb in b
        }
        chi_ab = weighted_euler(
            Stratification(product_strata), ConstructibleFunction(product_values)
        )
        assert chi_ab == chi_a * chi_b


def test_non_additivity_witness_fat_point_in_line():
    # X = A^1 = U  union  Z, with Z = Z(x^2) the fat point at the origin.
    # Weighting Z by nu of the ambient line gives additivity; weighting Z by
    # nu of its own scheme structure (computed from f = x^3) breaks it.
    nu_line = behrend_at(Ideal(R1, []), (1,))  # -1 at any smooth point
    chi_X = 1 * nu_line
    chi_U = 0 * nu_line  # chi(A^1 minus a point) = 0
    chi_Z_in_X = 1 * nu_line
    assert chi_X == chi_U + chi_Z_in_X  # the honest decomposition
    nu_fat = behrend_at(R1.parse("x^3"), (0,))
    chi_Z_intrinsic = 1 * nu_fat
    assert chi_Z_intrinsic == 2
    assert chi_X != chi_U + chi_Z_intrinsic  # -1 vs 2: strict inequality


# ---------------------------------------------------------------- point counts

def test_point_count_affine_line():
    result = point_count_chi(Ideal(R1, []), [2, 3, 5])
    assert result.chi == 1 and result.fit == (0, 1)
    assert result.flag == "heuristic"


def test_point_count_hyperbola():
    result = point_count_chi(Ideal.from_strings(R2, ["x*y - 1"]), [2, 3, 5])
    assert result.chi == 0 and result.fit == (-1, 1)
    assert result.counts == ((2, 1), (3, 2), (5, 4))


def test_point_count_two_lines():
    result = point_count_chi(Ideal.from_strings(R2, ["x*y"]), [2, 3, 5])
    assert result.chi == 1 and result.fit == (-1, 2)


def test_point_count_no_polynomial_fit():
    with pytest.raises(NoPolynomialFit):
        point_count_chi(Ideal.from_strings(R2, ["y^2 - x^3 + x"]), [3, 5, 7])


def test_point_count_limits():
    big = Ring(("a", "b", "c", "d", "e"))
    with pytest.raises(TooLarge):
        point_count_chi(Ideal(big, []), [2, 3])
    with pytest.raises(TooLarge):
        point_count_chi(Ideal(R1, []), [2, 17])
    with pytest.raises(InputError):
        point_count_chi(Ideal(R1, []), [5])


@pytest.mark.parametrize("primes", [[0, 2, 3], [2, 1], [2, 4]])
def test_point_count_rejects_non_primes(primes):
    # GF(0) is Q, where range(0) would count no points: malformed, not a "no"
    with pytest.raises(InputError, match="not a prime"):
        point_count_chi(Ideal.from_strings(R2, ["x*y"]), primes)


# ----------------------------------------------------------------- hilb demo

def test_plane_partition_counts_small():
    assert plane_partition_counts(4) == [1, 1, 3, 6, 13]


def test_hilbert_demo_matches_macmahon():
    demo = hilbert_demo(10)
    assert demo.match
    assert [row[1] for row in demo.rows] == list(demo.macmahon)
    assert [row[2] for row in demo.rows][:4] == [1, -1, 3, -6]


def test_hilbert_demo_empty_partition():
    demo = hilbert_demo(0)
    assert demo.rows == ((0, 1, 1),)


def test_hilbert_demo_bound():
    with pytest.raises(BoundExceeded):
        hilbert_demo(13)


def test_hilbert_demo_negative_size():
    with pytest.raises(InputError, match="n_max must be at least 0"):
        hilbert_demo(-1)


def test_macmahon_independent_of_enumeration():
    # sanity: the expansion is computed from the product, not the counts
    assert macmahon_coefficients(6) == [1, 1, 3, 6, 13, 24, 48]


def test_point_count_needs_characteristic_zero():
    # over GF(7), x^2 - 1 is stored as x^2 + 6; reduced mod 3 that would count
    # x^2 (one point) and fit no polynomial, a refusal nothing verified
    F7 = Ring(("x",), GF(7))
    with pytest.raises(InputError, match="characteristic 0"):
        point_count_chi(Ideal.from_strings(F7, ["x^2 - 1"]), [2, 3, 5])
    assert point_count_chi(Ideal.from_strings(R1, ["x^2 - 1"]), [3, 5, 7]).chi == 2
