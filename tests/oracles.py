"""Independent brute-force oracles used to cross-check the engine.

Colengths come from exact linear algebra on Macaulay-style multiplication
matrices, and monomial-ideal counts from direct lattice enumeration.  The one
exception is :func:`lazard_colength_local`, which reaches the local colength
through the global Buchberger driver, so it shares no code with Mora's
normal form.  The oracles are intentionally slow and simple.
"""

import itertools
from fractions import Fraction

from nuchi.groebner import Ideal, groebner_basis, staircase_count
from nuchi.poly import Polynomial, Ring, elimination_order, mono_divides


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
