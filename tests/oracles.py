"""Independent reference implementations used to cross-check the engine.

Colengths come from exact linear algebra on Macaulay-style multiplication
matrices, monomial-ideal counts from direct lattice enumeration, and
Jacobian ranks from partials evaluated at the point and row-reduced over the
ring's field.  The one exception is :func:`lazard_colength_local`, which
reaches the local colength through the global Buchberger driver, so it
shares no code with Mora's normal form.  :func:`assert_spolys_vanish`
rechecks a finished basis on its output polynomials, and
:func:`dict_merged_terms` is the dict merge that ``Cycle`` replaced by a
sort.  The arc obstruction and the pulled-back d(omega) coefficient each
have a second evaluation here, and the conormal correspondence L / pi lives
here as a tag layer over cycle descriptors, which no command builds, with
its own refusal :class:`KindMismatch`.  Divisibility, lcm and every monomial
order's sort key on exponent tuples are the references for groebner's packed
monomials.  The oracles are intentionally slow and simple.
"""

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from nuchi.arcs import (
    ArcSeries,
    ParameterForm,
    _certify_order,
    compose_along_arc,
    param_differential,
    zero_form,
)
from nuchi.cycles import ConeIdealReport, Cycle
from nuchi.errors import InputError, Refusal
from nuchi.groebner import (
    Ideal,
    StandardBasis,
    _division,
    _mora_nf,
    _packing,
    _s_poly,
    _to_entries,
    groebner_basis,
    staircase_count,
)
from nuchi.poly import MonomialOrder, Polynomial, Ring, elimination_order
from nuchi.singular import OneForm


# ------------------------------------------------------ monomials as tuples

def mono_divides(a, b) -> bool:
    """True when x^a divides x^b."""
    return all(map(operator.le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def order_key(order: MonomialOrder, m):
    """Sort key of an exponent tuple under an order, as tuples: a larger
    key is a larger monomial.  The reference for groebner's packed keys."""
    rev = tuple(-e for e in reversed(m))
    if order.kind == "lex":
        return m
    if order.kind == "degrevlex":
        return (sum(m), rev)
    if order.kind == "local_degrevlex":
        return (-sum(m), rev)
    # elim: degrevlex on the block first, then degrevlex on the rest
    inb = tuple(-m[i] for i in reversed(range(len(m))) if i in order.block)
    out = tuple(-m[i] for i in reversed(range(len(m))) if i not in order.block)
    return (-sum(inb), inb, -sum(out), out)


def sparse_pivots(rows):
    """Pivot columns of a list of {column: Fraction} rows, eliminating toward
    the smallest column key first."""
    pivots = {}
    for row in rows:
        r = dict(row)
        while r:
            col = min(r)
            if col not in pivots:
                pivots[col] = r
                break
            pivot = pivots[col]
            factor = r[col] / pivot[col]
            for c, v in pivot.items():
                new = r.get(c, Fraction(0)) - factor * v
                if new == 0:
                    r.pop(c, None)
                else:
                    r[c] = new
        # empty r: linearly dependent row
    return set(pivots)


def sparse_rank(rows):
    return len(sparse_pivots(rows))


def _monomials_up_to(arity, bound, strict):
    limit = bound if strict else bound + 1
    for total in range(limit):
        for m in _compositions(total, arity):
            yield m


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _window_dim_global(I: Ideal, window: int, bound: int):
    """Dimension of the degree <= window part of ring/I, using multiplier
    rows of degree up to ``bound``.

    Columns are keyed high-degree-first, so echelon pivots landing in the
    window count exactly the window part of the row space: elements of I of
    low degree produced by high-degree cancellation are captured once the
    bound is large enough.
    """
    arity = I.ring.arity
    rows = []
    for g in I.generators:
        gdeg = g.total_degree()
        for m in _monomials_up_to(arity, bound - gdeg, strict=False):
            row = {}
            for gm, gc in g.terms():
                prod = tuple(a + b for a, b in zip(m, gm))
                key = (-sum(prod), prod)
                row[key] = row.get(key, Fraction(0)) + Fraction(gc)
            rows.append({c: v for c, v in row.items() if v != 0})
    pivots = sparse_pivots(rows)
    in_window = sum(1 for (negdeg, _) in pivots if -negdeg <= window)
    n_window_monomials = sum(1 for _ in _monomials_up_to(arity, window, strict=False))
    return n_window_monomials - in_window


def macaulay_colength_global(I: Ideal, max_degree=24):
    """dim_Q of ring/I by window-dimension stabilization.

    For each measurement window the multiplier bound grows until the window
    dimension stops moving; the window then grows until two consecutive
    windows agree.  Returns None through ``max_degree`` when the quotient is
    positive-dimensional.
    """
    previous = None
    start = max(2, max((g.total_degree() for g in I.generators), default=1))
    for window in range(start, max_degree + 1):
        value = None
        for slack in range(2, 13, 2):
            dim = _window_dim_global(I, window, window + slack)
            if value == dim:
                break
            value = dim
        if previous is not None and value == previous:
            return value
        previous = value
    return None


def macaulay_colength_local(I: Ideal, max_degree=24):
    """Length of the localization at the origin: dimension of
    Q[x]/(I + m^D) once D stabilizes.  Generators must vanish at 0."""
    arity = I.ring.arity
    previous = None
    start = max(2, max((g.total_degree() for g in I.generators), default=1) + 2)
    for bound in range(start, max_degree + 1):
        cols = {m: k for k, m in enumerate(_monomials_up_to(arity, bound, strict=True))}
        rows = []
        for g in I.generators:
            for m in _monomials_up_to(arity, bound, strict=True):
                row = {}
                for gm, gc in g.terms():
                    prod = tuple(a + b for a, b in zip(m, gm))
                    if sum(prod) >= bound:
                        continue  # lies in m^D
                    row[cols[prod]] = row.get(cols[prod], Fraction(0)) + Fraction(gc)
                row = {c: v for c, v in row.items() if v != 0}
                if row:
                    rows.append(row)
        dim = len(cols) - sparse_rank(rows)
        if previous is not None and dim == previous:
            return dim
        previous = dim
    return None


def lazard_colength_local(I: Ideal):
    """Length of the localization at the origin by Lazard's homogenization
    (Lazard, EUROCAL 1983; Greuel-Pfister, Singular Introduction, 1.7).

    Homogenize with a new last variable t and take a global Groebner basis
    under the block order that compares the t power first: on forms of one
    degree it ranks the higher t power, that is the lower degree in x, first,
    which is the local degrevlex order.  Setting t = 1 in the leads gives the
    local leading-term ideal, so no bound on the degree is needed.
    """
    ring = I.ring
    t = "t" + "_" * max((len(v) for v in ring.variables), default=0)  # a fresh name
    homogeneous = Ring(ring.variables + (t,), ring.domain)
    gens = []
    for g in I.generators:
        d = g.total_degree()
        gens.append(Polynomial(homogeneous, [(m + (d - sum(m),), c) for m, c in g.terms()]))
    basis = groebner_basis(Ideal(homogeneous, gens), elimination_order({ring.arity}))
    return staircase_count([m[:-1] for m in basis.leading_monomials()], ring.arity)


def monomial_lattice_colength(gens, arity):
    """Standard-monomial count of a monomial ideal by box enumeration.

    Returns None when some variable has no pure power (infinite staircase).
    """
    bounds = []
    for i in range(arity):
        powers = [
            m[i] for m in gens if all(e == 0 for k, e in enumerate(m) if k != i)
        ]
        if not powers:
            return None
        bounds.append(min(powers))
    count = 0
    for cell in itertools.product(*[range(b) for b in bounds]):
        if not any(mono_divides(g, cell) for g in gens):
            count += 1
    return count


def monomial_subset_dimension(gens, arity):
    """Krull dimension of R/(monomial ideal) by maximal independent sets.

    A variable subset S is independent when no generator is supported inside
    S; the dimension is the largest such |S|, and -1 for the unit ideal.
    """
    if any(not any(g) for g in gens):
        return -1
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in gens]
    for size in range(arity, -1, -1):
        for S in itertools.combinations(range(arity), size):
            if all(not sup <= set(S) for sup in supports):
                return size
    return 0


def jacobian_rank(I: Ideal, point):
    """Rank of the Jacobian matrix of the generators of I at a point, over
    the ring's field: each partial is differentiated and evaluated there,
    and the rows are row-reduced as Fractions over Q and as residues mod p
    over F_p."""
    n, p = I.ring.arity, I.ring.domain.char
    rows = [[g.derivative(i).evaluate(point) for i in range(n)] for g in I.generators]
    rank = 0
    for col in range(n):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inv = pow(top[col], -1, p) if p else 1 / top[col]
        for k in range(rank + 1, len(rows)):
            f = rows[k][col] * inv
            if f:
                rows[k] = [(a - f * b) % p if p else a - f * b for a, b in zip(rows[k], top)]
        rank += 1
    return rank


def kouchnirenko_mu(a, b, c, d):
    """Milnor number of x^a + y^b + x^c*y^d at the origin (c, d >= 1).

    Kouchnirenko (Invent. Math. 32, 1976) for a convenient Newton-nondegenerate
    f in two variables: mu = 2*Area - a - b + 1, where Area lies under the
    Newton boundary.  The boundary bends at (c, d) when that point lies below
    the segment from (a, 0) to (0, b); its two edges are binomial faces, which
    are always nondegenerate.
    """
    twice_area = a * d + b * c if c * b + d * a < a * b else a * b
    return twice_area - a - b + 1


def assert_spolys_vanish(basis: StandardBasis) -> None:
    """Check the output polynomials themselves, not the driver's entries."""
    order, p = basis.order, basis.ring.domain.char
    pk = _packing(basis.ring.arity)
    elems = _to_entries(basis.elements, pk, order)
    for i in range(len(elems)):
        for j in range(i):
            s = _s_poly(elems[i], elems[j], pk, p)
            if order.is_global:
                rem, _ = _division(s, elems, pk, order, p)
            else:
                rem, _ = _mora_nf(s, elems, pk, p)
            if rem:
                raise AssertionError(
                    f"S-polynomial of elements {j},{i} does not reduce to zero"
                )


# ------------------------------------------------- arcs: second evaluations

def exterior_derivative(a: ParameterForm) -> ParameterForm:
    """d of a 1-form in the parameters."""
    if a.degree != 1:
        raise InputError("exterior_derivative expects a 1-form")
    out: list = []
    for (j,), c in a.terms:
        for k in range(a.param_ring.arity):
            dc = c.derivative(k)
            if dc.is_zero() or k == j:
                continue
            if k < j:
                out.append(((k, j), dc))
            else:
                out.append(((j, k), -dc))
    return ParameterForm(2, a.param_ring, out)


def obstruction_via_exterior_derivative(
    omega: OneForm, arc: ArcSeries, m: int
) -> ParameterForm:
    """The Lagrangian obstruction as -(1/m!) d( sum_i F_i^(m) d c_i^(0) ).

    Here c_i^(p) and F_i^(p) are the factorial-normalized coefficients of
    gamma_i and f_i(gamma).
    """
    composed = [compose_along_arc(f, arc) for f in omega.components]
    _certify_order(composed, arc, m)
    one_form = zero_form(1, arc.param_ring)
    fact_m = factorial(m)
    for gamma, series in zip(arc.components, composed):
        dc0 = param_differential(gamma.coefficient(0))
        one_form = one_form + dc0.scale(series.coefficient(m) * fact_m)
    return exterior_derivative(one_form).scale(Fraction(-1, fact_m))


def _component_differential_series(arc: ArcSeries, i: int):
    """d(gamma_i) as a t-series valued 1-form.

    Returns (ds_part, dt_part): ds_part[p] is the parameter 1-form
    coefficient of t^p, dt_part[p] the scalar coefficient of t^p dt.
    """
    N = arc.order
    coeffs = [arc.components[i].coefficient(p) for p in range(N + 1)]
    ds_part = [param_differential(c) for c in coeffs]
    dt_part = [
        coeffs[p + 1] * (p + 1) if p + 1 <= N else arc.param_ring.zero()
        for p in range(N + 1)
    ]
    return ds_part, dt_part


def pullback_dt_coefficient_direct(omega: OneForm, arc: ArcSeries, m: int) -> ParameterForm:
    """Coefficient of t^(m-1) dt in the arc pullback of d(omega).

    Direct expansion: compose the antisymmetrized Jacobian coefficients of
    d(omega) along the arc and wedge the coordinate differentials as
    truncated series.
    """
    if not 1 <= m <= arc.order:
        raise InputError("need 1 <= m <= truncation order")
    ring = omega.ring
    n = ring.arity
    N = arc.order
    pr = arc.param_ring
    diff_series = [_component_differential_series(arc, i) for i in range(n)]
    acc = zero_form(1, pr)
    for i in range(n):
        for j in range(i + 1, n):
            # d(omega) = sum_{i<j} (d f_j / d x_i - d f_i / d x_j) dx_i ^ dx_j
            a_ij = omega.components[j].derivative(i) - omega.components[i].derivative(j)
            if a_ij.is_zero():
                continue
            A = compose_along_arc(a_ij, arc)
            (xs, xt), (ys, yt) = diff_series[i], diff_series[j]
            # ds^dt part of dgamma_i ^ dgamma_j at t-degree p
            st = [zero_form(1, pr) for _ in range(N + 1)]
            for a in range(N + 1):
                for b in range(N + 1 - a):
                    st[a + b] = st[a + b] + xs[a].scale(yt[b]) - ys[b].scale(xt[a])
            # multiply by the scalar series A and read off t^(m-1)
            for a in range(m):
                c = A.coefficient(a)
                if not c.is_zero():
                    acc = acc + st[m - 1 - a].scale(c)
    return acc


def pullback_dt_coefficient_taylor(omega: OneForm, arc: ArcSeries, m: int) -> ParameterForm:
    """Same coefficient via the binomial sums over factorial-normalized
    coefficients:

        (1/(m-1)!) sum_{k=0}^{m-1} C(m-1, k) sum_i
            [ c_i^(m-k) dF_i^(k)  -  F_i^(k+1) dc_i^(m-k-1) ]
    """
    if not 1 <= m <= arc.order:
        raise InputError("need 1 <= m <= truncation order")
    pr = arc.param_ring
    n = omega.ring.arity
    composed = [compose_along_arc(f, arc) for f in omega.components]

    def c_coeff(i, p):
        return arc.components[i].coefficient(p) * factorial(p)

    def F_coeff(i, p):
        return composed[i].coefficient(p) * factorial(p)

    acc = zero_form(1, pr)
    for k in range(m):
        binom = comb(m - 1, k)
        for i in range(n):
            first = param_differential(F_coeff(i, k)).scale(c_coeff(i, m - k) * binom)
            second = param_differential(c_coeff(i, m - k - 1)).scale(F_coeff(i, k + 1) * binom)
            acc = acc + first - second
    return acc.scale(Fraction(1, factorial(m - 1)))


# ---------------------------------------------------------- cycle merging

def dict_merged_terms(terms) -> tuple:
    """The terms of ``Cycle(terms)`` by the first construction: merge equal
    descriptors in a dict (first occurrence first), drop zero coefficients,
    then sort stably by ``sort_key()``."""
    merged: dict = {}
    for coeff, d in terms:
        merged[d] = merged.get(d, 0) + coeff
    return tuple(
        sorted(((c, d) for d, c in merged.items() if c != 0), key=lambda cd: cd[1].sort_key())
    )


# ------------------------------------------------- conormal correspondence

class KindMismatch(Refusal):
    code = "KIND_MISMATCH"


@dataclass(frozen=True)
class ConormalCycle:
    """Closure of the conormal bundle of a base cycle, in the doubled ring."""

    base: object  # a cycle descriptor of nuchi.cycles

    def sort_key(self):
        return (4,) + self.base.sort_key()

    def to_payload(self):
        return {"kind": "conormal", "data": {"base": self.base.to_payload()}}


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


def is_conic(J: Ideal, fiber_indices) -> bool:
    """Certify invariance under fiber scaling: a reduced basis must be
    homogeneous in the fiber variables."""
    fibers = set(fiber_indices)
    return all(
        len({sum(m[i] for i in fibers) for m, _ in g.terms()}) <= 1
        for g in groebner_basis(J).elements
    )
