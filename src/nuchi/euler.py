"""Weighted Euler characteristics over declared stratifications.

chi is always the compactly supported Euler characteristic, and every
declared stratum value must use that convention.  The point-count oracle is
explicitly heuristic (counting F_q points and fitting an integer polynomial
N(q), then reading off N(1)); its outputs carry a flag that propagates into
weighted results and never feeds acceptance checks silently.

The Hilbert-scheme demo enumerates monomial ideals of colength n in three
variables (torus-fixed points, equivalently plane partitions of n) and
cross-checks the counts against an independent expansion of the generating
function prod_k (1 - q^k)^(-k).  The weight (-1)^n applied to the counts is
an external input and is labelled as such in the output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import BoundExceeded, InputError, MissingValue, NoPolynomialFit, TooLarge
from .groebner import Ideal
from .poly import GF, Polynomial, Ring, _is_prime


# ------------------------------------------------------------ stratifications

def as_integer(value, field: str) -> int:
    """An integer given in JSON: an int, an integral float or integer text.

    int() alone would truncate 2.5, read true as 1 and raise OverflowError
    on inf, so anything else raises InputError naming the field.
    """
    if isinstance(value, str) or type(value) is int or isinstance(value, float) and value.is_integer():
        try:
            return int(value)
        except ValueError:
            pass
    raise InputError(f"{field!r} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Stratum:
    """A declared locally closed piece with its compactly supported chi."""

    label: str
    chi: int
    dim: int = 0
    how: str = "declared"
    heuristic: bool = False


@dataclass(frozen=True)
class Stratification:
    strata: tuple

    def __init__(self, strata: Iterable[Stratum]):
        strata = tuple(strata)
        labels = [s.label for s in strata]
        if len(set(labels)) != len(labels):
            raise InputError("stratum labels must be unique")
        object.__setattr__(self, "strata", strata)

    @staticmethod
    def from_json(data) -> "Stratification":
        """Strata from a JSON array of objects, each with a label and a chi
        and optionally a dim, a how and a heuristic flag.

        Any other shape, a chi or dim that is not an integer, or a heuristic
        flag that is not a boolean raises InputError.
        """
        if not isinstance(data, (list, tuple)) or not all(
            isinstance(e, Mapping) and "label" in e and "chi" in e for e in data
        ):
            raise InputError("'strata' must be an array of objects with a label and a chi")

        def stratum(e) -> Stratum:
            how = str(e.get("how", "declared"))
            heuristic = e.get("heuristic", "heuristic" in how.lower())
            if not isinstance(heuristic, bool):
                raise InputError(f"'heuristic' must be true or false, got {heuristic!r}")
            chi, dim = as_integer(e["chi"], "chi"), as_integer(e.get("dim", 0), "dim")
            return Stratum(str(e["label"]), chi, dim, how, heuristic)

        return Stratification(stratum(e) for e in data)


@dataclass(frozen=True)
class ConstructibleFunction:
    """Integer values on the strata of a declared stratification."""

    values: tuple

    def __init__(self, values: Mapping):
        if not isinstance(values, Mapping):
            raise InputError(
                f"a constructible function must map stratum labels to integers, got {values!r}"
            )
        pairs = ((str(k), as_integer(v, "function value")) for k, v in values.items())
        object.__setattr__(self, "values", tuple(sorted(pairs)))

    def value(self, label: str) -> int:
        for k, v in self.values:
            if k == label:
                return v
        raise MissingValue(f"no value declared on stratum {label!r}")

    def as_dict(self):
        return dict(self.values)


def weighted_euler(strat: Stratification, func: ConstructibleFunction) -> int:
    """sum over strata of f * chi; additivity makes this sum_n n*chi{f = n}."""
    return sum(func.value(s.label) * s.chi for s in strat.strata)


def has_heuristic_inputs(strat: Stratification) -> bool:
    return any(s.heuristic for s in strat.strata)


def chi_combine(op: str, args: Sequence[int]) -> int:
    """The chi algebra: additivity for disjoint unions and complements,
    multiplicativity for products."""
    if op == "disjoint-union":
        return sum(args)
    if op == "product":
        out = 1
        for a in args:
            out *= a
        return out
    if op == "complement":
        if len(args) != 2:
            raise InputError("complement expects (chi(X), chi(Z))")
        return args[0] - args[1]
    raise InputError(f"unknown chi combination {op!r}")


# ------------------------------------------------------- point-count oracle

@dataclass(frozen=True)
class PointCountResult:
    chi: int
    flag: str  # always "heuristic"
    counts: tuple  # (q, count) pairs
    fit: tuple  # integer coefficients of N(q), ascending


def point_count_chi(equations: Ideal, primes: Sequence[int]) -> PointCountResult:
    """Heuristic chi via exhaustive F_q point counts.

    Requires a ring over Q (the equations are reduced mod each q, which a
    prime field's residues do not survive), arity <= 4 and every q <= 16 and
    prime; the caller asserts the variety is polynomial-count.  A coefficient
    whose denominator q divides has no reduction mod q and raises
    InputError.  Counts are interpolated by an integer polynomial N(q)
    (degree < number of primes); a non-integral fit refuses with
    NoPolynomialFit.  The value is N(1), flagged heuristic.
    """
    ring = equations.ring
    if ring.domain.char:
        raise InputError("point counting needs characteristic 0")
    if ring.arity > 4:
        raise TooLarge(f"point counting supports arity <= 4, got {ring.arity}")
    primes = list(primes)
    if len(primes) < 2:
        raise InputError("need at least two primes to interpolate")
    if len(set(primes)) != len(primes):
        raise InputError("primes must be distinct")
    counts = []
    for q in primes:
        if q > 16:
            raise TooLarge(f"q = {q} exceeds the supported bound 16")
        if not _is_prime(q):  # GF(0) would be Q, with no points to count
            raise InputError(f"q = {q} is not a prime")
        field_ring = Ring(ring.variables, GF(q))
        gens = [Polynomial(field_ring, g.terms()) for g in equations.generators]
        count = 0
        for point in itertools.product(range(q), repeat=ring.arity):
            if all(g.evaluate(point) == 0 for g in gens):
                count += 1
        counts.append((q, count))
    # Newton divided differences through all (q, count) pairs, exact arithmetic
    xs = [q for q, _ in counts]
    dd = [Fraction(c) for _, c in counts]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - k])
    # expand by Horner's rule: N = dd[0] + (q - xs[0]) * (dd[1] + (q - xs[1]) * ...)
    coeffs = [dd[-1]]
    for x, d in zip(xs[-2::-1], dd[-2::-1]):
        coeffs = [a - x * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += d
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if any(c.denominator != 1 for c in coeffs):
        raise NoPolynomialFit(
            "point counts do not fit an integer polynomial in q: "
            + ", ".join(f"N({q})={c}" for q, c in counts)
        )
    fit = tuple(int(c) for c in coeffs)
    chi = sum(fit)
    return PointCountResult(chi=chi, flag="heuristic", counts=tuple(counts), fit=fit)


# --------------------------------------------------------- Hilbert demo

MAX_DEMO_SIZE = 12


def plane_partition_counts(n_max: int) -> list:
    """Counts of monomial ideals of colength n in 3 variables, n = 0..n_max.

    Enumerates finite order ideals (downsets) of the N^3 lattice by size:
    these are the standard-monomial complements of the monomial ideals, also
    known as plane partitions.  Independent of any generating function.
    """
    if n_max > MAX_DEMO_SIZE:
        raise BoundExceeded(f"n_max must be at most {MAX_DEMO_SIZE}")
    counts = [1]
    layer = {frozenset()}
    for n in range(1, n_max + 1):
        new: set = set()
        for down in layer:
            for cell in _addable_cells(down):
                new.add(down | {cell})
        layer = new
        counts.append(len(layer))
    return counts


def _addable_cells(down: frozenset):
    """Cells whose lattice predecessors all lie in the downset."""
    candidates = {(0, 0, 0)}
    for (a, b, c) in down:
        candidates.update({(a + 1, b, c), (a, b + 1, c), (a, b, c + 1)})
    out = []
    for cell in candidates:
        if cell in down:
            continue
        a, b, c = cell
        preds = [(a - 1, b, c), (a, b - 1, c), (a, b, c - 1)]
        if all(p in down for p in preds if all(x >= 0 for x in p)):
            out.append(cell)
    return out


def macmahon_coefficients(n_max: int) -> list:
    """Taylor coefficients of prod_{k>=1} (1 - q^k)^(-k) through q^n_max."""
    coeffs = [0] * (n_max + 1)
    coeffs[0] = 1
    for k in range(1, n_max + 1):
        for _ in range(k):
            # multiply by the geometric series 1/(1 - q^k)
            for i in range(k, n_max + 1):
                coeffs[i] += coeffs[i - k]
    return coeffs


@dataclass(frozen=True)
class HilbertDemo:
    rows: tuple  # (n, count, signed) triples
    macmahon: tuple
    match: bool
    weight_note: str = field(
        default="the weight (-1)^n on the fixed-point counts is an external input"
    )


def hilbert_demo(n_max: int) -> HilbertDemo:
    """Torus-fixed-point counts for the Hilbert scheme of points of affine
    3-space, with the MacMahon generating function as an independent oracle."""
    if n_max < 0:
        raise InputError(f"n_max must be at least 0, got {n_max}")
    counts = plane_partition_counts(n_max)
    mac = macmahon_coefficients(n_max)
    rows = tuple((n, counts[n], (-1) ** n * counts[n]) for n in range(n_max + 1))
    return HilbertDemo(rows=rows, macmahon=tuple(mac), match=counts == mac)
