"""Groebner bases (Buchberger) and local standard bases (Mora).

This module supplies the ideal-theoretic queries that the pointwise and
cycle-level formulas reduce to: normal forms, membership with certificates,
elimination, colength, Krull dimension and Hilbert-Samuel multiplicity.

Conventions.  A basis under a global order is the unique reduced Groebner
basis.  Under a local order we return a minimal monic standard basis computed
with Mora's tangent-cone normal form; elements generate the ideal in the
localization at the origin, and full tail reduction is not attempted (it does
not terminate in polynomial arithmetic when a reducer has a unit cofactor).
Basis elements that are a monomial times a local unit are normalized to the
bare monomial, which is an equality of localized ideals.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError, OriginNotOnVariety, RingMismatch
from .poly import (
    DEGREVLEX,
    LOCAL_DEGREVLEX,
    MonomialOrder,
    Polynomial,
    Ring,
    _check_exponents,
    elimination_order,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)


class Infinite:
    """Marker value for an infinite colength or vanishing order.

    It is always an exact verdict, never the result of a cut-off.
    """

    __slots__ = ()

    def __repr__(self):
        return "INFINITE"

    def __eq__(self, other):
        return isinstance(other, Infinite)

    def __hash__(self):
        return hash("Infinite")


INFINITE = Infinite()


@dataclass(frozen=True)
class Ideal:
    """A finitely generated ideal: a ring plus generators (zeros dropped)."""

    ring: Ring
    generators: tuple

    def __init__(self, ring: Ring, generators: Iterable[Polynomial]):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingMismatch("generator not in the declared ring")
            if not g.is_zero():
                gens.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", tuple(gens))

    @staticmethod
    def from_strings(ring: Ring, exprs: Iterable[str]) -> "Ideal":
        return Ideal(ring, [ring.parse(e) for e in exprs])

    def __repr__(self):
        return f"Ideal({', '.join(str(g) for g in self.generators) or '0'})"


@dataclass(frozen=True)
class StandardBasis:
    """A Groebner basis (global order) or Mora standard basis (local order)."""

    order: MonomialOrder
    elements: tuple
    source: Ideal

    @property
    def ring(self) -> Ring:
        return self.source.ring

    def leading_monomials(self) -> tuple:
        return tuple(g.leading_term(self.order)[0] for g in self.elements)

    def __iter__(self):
        return iter(self.elements)


# ------------------------------------------------------------------ division

class _RevKey:
    """Comparison-inverting wrapper so heapq acts as a max-heap."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return self.key == other.key


def _division(f: Polynomial, reducers: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Remainder of full multivariate division for a global order.

    Deterministic: reducers are tried in list order.  The working support is
    kept in a lazy max-heap so each step costs log of the support size.
    """
    ring = f.ring
    dom = ring.domain
    key = order.key
    leads = [g.leading_term(order) for g in reducers]
    h = dict(f.terms())
    heap = [(_RevKey(key(m)), m) for m in h]
    heapq.heapify(heap)
    rem: dict = {}
    while heap:
        _, m = heapq.heappop(heap)
        if m not in h:
            continue  # stale entry
        c = h.pop(m)
        for g, (gm, gc) in zip(reducers, leads):
            if mono_divides(gm, m):
                qm = mono_div(m, gm)
                qc = dom.div(c, gc)
                for m2, c2 in g.terms():
                    if m2 == gm:
                        continue
                    mm = mono_mul(qm, m2)
                    v = dom.mul(qc, c2)
                    if mm in h:
                        s = dom.sub(h[mm], v)
                        if s == 0:
                            del h[mm]
                        else:
                            h[mm] = s
                    else:
                        h[mm] = dom.neg(v)
                        heapq.heappush(heap, (_RevKey(key(mm)), mm))
                break
        else:
            rem[m] = c
    _check_exponents(rem)  # lex reduction can raise exponents past any input's
    return Polynomial(ring, rem, _merged=True)


def _ecart(f: Polynomial, order: MonomialOrder) -> int:
    return f.total_degree() - mono_degree(f.leading_term(order)[0])


def _mora_nf(f: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Mora's weak normal form for a local order.

    Reduces the leading term only, selecting a reducer of minimal ecart and
    allowing previously produced partial remainders as reducers; this is the
    standard termination device for local orders.  The result h satisfies
    u*f = sum q_i*g_i + h for some local unit u, and its leading term is not
    divisible by any basis leading term.
    """
    ring = f.ring
    dom = ring.domain
    pool = [(g, g.leading_term(order), _ecart(g, order)) for g in basis]
    h = f
    while not h.is_zero():
        hm, hc = h.leading_term(order)
        candidates = [entry for entry in pool if mono_divides(entry[1][0], hm)]
        if not candidates:
            break
        g, (gm, gc), eg = min(
            candidates, key=lambda entry: (entry[2], order.key(entry[1][0]))
        )
        if eg > _ecart(h, order):
            pool.append((h, (hm, hc), _ecart(h, order)))
        h = h - g.mul_term(mono_div(hm, gm), dom.div(hc, gc))
    return h


def _tail_clean_local(h: Polynomial, basis: Sequence[Polynomial], order: MonomialOrder) -> Polynomial:
    """Remove tail terms divisible by a *monomial* basis element.

    Sound (subtracts ideal members) and terminating (monomial reducers add no
    new terms); non-monomial reducers are left alone.
    """
    mono_leads = [
        g.leading_term(order)[0] for g in basis if len(g.terms()) == 1
    ]
    if not mono_leads or h.is_zero():
        return h
    lead = h.leading_term(order)[0]
    kept = [
        (m, c)
        for m, c in h.terms()
        if m == lead or not any(mono_divides(g, m) for g in mono_leads)
    ]
    return Polynomial(h.ring, kept)


def normal_form(f: Polynomial, basis: StandardBasis) -> Polynomial:
    """Remainder of f modulo the basis.

    Global order: the unique fully reduced normal form (no term divisible by
    a basis leading term).  Local order: Mora weak normal form, followed by
    removal of tail terms under monomial basis elements.  Both are idempotent
    and satisfy f - normal_form(f) in the (localized) ideal, up to a local
    unit in the local case.
    """
    if f.ring != basis.ring:
        raise RingMismatch("polynomial and basis rings differ")
    if not basis.elements:
        return f
    if basis.order.is_global:
        return _division(f, basis.elements, basis.order)
    h = _mora_nf(f, basis.elements, basis.order)
    return _tail_clean_local(h, basis.elements, basis.order)


# ---------------------------------------------------------------- buchberger

def _s_poly(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    dom = f.ring.domain
    fm, fc = f.leading_term(order)
    gm, gc = g.leading_term(order)
    lcm = mono_lcm(fm, gm)
    one = dom.coerce(1)
    return f.mul_term(mono_div(lcm, fm), dom.div(one, fc)) - g.mul_term(
        mono_div(lcm, gm), dom.div(one, gc)
    )


def _pair_key(i: int, j: int, leads, order: MonomialOrder):
    lcm = mono_lcm(leads[i], leads[j])
    return (mono_degree(lcm), order.key(lcm), i, j)


def _buchberger_loop(gens: Sequence[Polynomial], order: MonomialOrder):
    """Shared Buchberger driver; the normal form is Mora for local orders.

    Pair selection follows the normal strategy (minimal lcm degree first)
    with the product and chain criteria for pair elimination.
    """
    ring = gens[0].ring
    basis = [g.monic(order) for g in gens if not g.is_zero()]
    leads = [g.leading_term(order)[0] for g in basis]
    queue = [
        _pair_key(i, j, leads, order) for j in range(len(basis)) for i in range(j)
    ]
    heapq.heapify(queue)
    done: set = set()

    def reduce_spoly(s: Polynomial) -> Polynomial:
        if order.is_global:
            return _division(s, basis, order)
        return _mora_nf(s, basis, order)

    while queue:
        _, _, i, j = heapq.heappop(queue)
        done.add((i, j))
        lcm = mono_lcm(leads[i], leads[j])
        if lcm == mono_mul(leads[i], leads[j]):
            continue  # product criterion
        chain = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if (
                mono_divides(leads[k], lcm)
                and (min(i, k), max(i, k)) in done
                and (min(j, k), max(j, k)) in done
            ):
                chain = True
                break
        if chain:
            continue
        r = reduce_spoly(_s_poly(basis[i], basis[j], order))
        if not r.is_zero():
            r = r.monic(order)
            basis.append(r)
            leads.append(r.leading_term(order)[0])
            new = len(basis) - 1
            for k in range(new):
                heapq.heappush(queue, _pair_key(k, new, leads, order))
    return basis


def _minimalize(basis: Sequence[Polynomial], order: MonomialOrder):
    """Drop elements whose leading monomial is divisible by another's."""
    entries = sorted(basis, key=lambda g: order.key(g.leading_term(order)[0]))
    kept: list = []
    for g in entries:
        gm = g.leading_term(order)[0]
        if not any(mono_divides(h.leading_term(order)[0], gm) for h in kept):
            kept.append(g)
    return kept


def groebner_basis(I: Ideal, order: MonomialOrder = DEGREVLEX, verify: bool = False) -> StandardBasis:
    """The reduced Groebner basis of I under a global order.

    Unique for (I, order); elements are monic, fully inter-reduced and sorted
    by ascending leading monomial.  With ``verify`` every S-polynomial of the
    result is checked to reduce to zero.
    """
    if not order.is_global:
        raise InputError("groebner_basis requires a global order")
    if not I.generators:
        return StandardBasis(order, (), I)
    basis = _buchberger_loop(I.generators, order)
    basis = _minimalize(basis, order)
    reduced = []
    for idx, g in enumerate(basis):
        others = basis[:idx] + basis[idx + 1 :]
        rem = _division(g, others, order) if others else g
        reduced.append(rem.monic(order))
    reduced.sort(key=lambda g: order.key(g.leading_term(order)[0]))
    result = StandardBasis(order, tuple(reduced), I)
    if verify:
        _assert_spolys_vanish(result)
    return result


def standard_basis(I: Ideal, order: MonomialOrder = LOCAL_DEGREVLEX, verify: bool = False) -> StandardBasis:
    """A minimal monic standard basis of I under a local order.

    Uses Mora's normal form with ecart-minimizing reducer selection; the
    leading-term ideal equals that of I in the localization at the origin.
    """
    if not order.is_local:
        raise InputError("standard_basis requires a local order")
    if not I.generators:
        return StandardBasis(order, (), I)
    basis = _buchberger_loop(I.generators, order)
    basis = _minimalize(basis, order)
    normalized = []
    for g in basis:
        gm = g.leading_term(order)[0]
        if all(mono_divides(gm, m) for m, _ in g.terms()):
            # g = x^gm * (local unit): the localized ideal member is x^gm
            g = Polynomial(g.ring, [(gm, 1)])
        normalized.append(g.monic(order))
    normalized.sort(key=lambda g: order.key(g.leading_term(order)[0]))
    result = StandardBasis(order, tuple(normalized), I)
    if verify:
        _assert_spolys_vanish(result)
    return result


def _assert_spolys_vanish(basis: StandardBasis) -> None:
    elems = basis.elements
    for i in range(len(elems)):
        for j in range(i):
            s = _s_poly(elems[i], elems[j], basis.order)
            if basis.order.is_global:
                rem = _division(s, list(elems), basis.order)
            else:
                rem = _mora_nf(s, list(elems), basis.order)
            if not rem.is_zero():
                raise AssertionError(
                    f"S-polynomial of elements {j},{i} does not reduce to zero"
                )


def basis_for(I: Ideal, order: MonomialOrder) -> StandardBasis:
    """Groebner or Mora basis depending on whether the order is global."""
    return groebner_basis(I, order) if order.is_global else standard_basis(I, order)


# ----------------------------------------------------- membership with proof

def _divide_tracked(f: Polynomial, items, order: MonomialOrder):
    """Full division of f by tracked basis elements, (g, rep) pairs.

    Returns (remainder, cofactors) with f - remainder = sum cofactors[k] *
    gens[k], for the generators the reps are written in; ``items`` is
    nonempty.
    """
    ring, dom = f.ring, f.ring.domain
    h = f
    cof = tuple(ring.zero() for _ in items[0][1])
    rem_terms: list = []
    while not h.is_zero():
        hm, hc = h.leading_term(order)
        for g, grep in items:
            gm, gc = g.leading_term(order)
            if mono_divides(gm, hm):
                qm, qc = mono_div(hm, gm), dom.div(hc, gc)
                h = h - g.mul_term(qm, qc)
                cof = tuple(c + p.mul_term(qm, qc) for c, p in zip(cof, grep))
                break
        else:
            rem_terms.append((hm, hc))
            h = h - Polynomial(ring, [(hm, hc)])
    return Polynomial(ring, rem_terms), cof


def _tracked_buchberger(gens: Sequence[Polynomial], order: MonomialOrder):
    """Buchberger with representation tracking.

    Returns a list of (g, rep) with g = sum rep[k] * gens[k].  No pair
    criteria here; the tracked variant is only used on demand for
    certificates, where simplicity beats speed.
    """
    ring = gens[0].ring
    dom = ring.domain
    one = dom.coerce(1)

    def unit_rep(k: int):
        return tuple(ring.one() if t == k else ring.zero() for t in range(len(gens)))

    def rep_term(rep, mono, coeff):
        return tuple(p.mul_term(mono, coeff) for p in rep)

    def rep_sub(a, b):
        return tuple(p - q for p, q in zip(a, b))

    def rep_scale(rep, coeff):
        zerom = (0,) * ring.arity
        return tuple(p.mul_term(zerom, coeff) for p in rep)

    items = []
    for k, g in enumerate(gens):
        if g.is_zero():
            continue
        _, lc = g.leading_term(order)
        items.append((g.monic(order), rep_scale(unit_rep(k), dom.div(one, lc))))

    pairs = {(i, j) for j in range(len(items)) for i in range(j)}
    while pairs:
        i, j = min(pairs)
        pairs.remove((i, j))
        f, frep = items[i]
        g, grep = items[j]
        fm, fc = f.leading_term(order)
        gm, gc = g.leading_term(order)
        lcm = mono_lcm(fm, gm)
        mf, mg = mono_div(lcm, fm), mono_div(lcm, gm)
        s = f.mul_term(mf, dom.div(one, fc)) - g.mul_term(mg, dom.div(one, gc))
        srep = rep_sub(
            rep_term(frep, mf, dom.div(one, fc)), rep_term(grep, mg, dom.div(one, gc))
        )
        rem, qrep = _divide_tracked(s, items, order)
        rem_rep = rep_sub(srep, qrep)
        if not rem.is_zero():
            _, lc = rem.leading_term(order)
            items.append((rem.monic(order), rep_scale(rem_rep, dom.div(one, lc))))
            new = len(items) - 1
            pairs.update((k, new) for k in range(new))
    return items


def ideal_membership(f: Polynomial, I: Ideal, certificate: bool = False):
    """Decide f in I via a global-order normal form.

    With ``certificate`` returns (bool, cofactors) where cofactors is a tuple
    c with f = sum c[k] * I.generators[k] (None when f is not a member).  The
    identity is verified before returning.
    """
    if f.ring != I.ring:
        raise RingMismatch("polynomial and ideal rings differ")
    if not certificate:
        basis = groebner_basis(I, DEGREVLEX)
        return normal_form(f, basis).is_zero()
    if not I.generators:
        if f.is_zero():
            return True, ()
        return False, None
    items = _tracked_buchberger(I.generators, DEGREVLEX)
    rem, cof = _divide_tracked(f, items, DEGREVLEX)
    if not rem.is_zero():
        return False, None
    check = f.ring.zero()
    for c, g in zip(cof, I.generators):
        check = check + c * g
    if check != f:
        raise AssertionError("membership certificate failed verification")
    return True, cof


# ---------------------------------------------------------------- elimination

def eliminate(I: Ideal, drop: Iterable[int]) -> Ideal:
    """Generators of I intersected with the subring omitting ``drop``.

    Computed with a block elimination order whose leading block is the
    dropped variables; the returned ideal lives in the original ring but its
    generators only involve the kept variables.
    """
    drop = frozenset(drop)
    n = I.ring.arity
    if any(not 0 <= i < n for i in drop):
        raise InputError("drop indices out of range")
    if len(drop) >= n and drop:
        raise InputError("drop must be a proper subset of the variables")
    if not drop:
        return Ideal(I.ring, tuple(groebner_basis(I, DEGREVLEX).elements))
    basis = groebner_basis(I, elimination_order(drop))
    kept = [
        g
        for g in basis.elements
        if all(all(m[i] == 0 for i in drop) for m, _ in g.terms())
    ]
    return Ideal(I.ring, kept)


# --------------------------------------------------- staircase combinatorics

def monomial_minimal_generators(monos: Iterable[tuple]) -> list:
    """Inclusion-minimal generators of the monomial ideal they span."""
    ms = sorted(set(monos), key=mono_degree)
    minimal: list = []
    for m in ms:
        if not any(mono_divides(g, m) for g in minimal):
            minimal.append(m)
    return minimal


def _k_numerator(gens: Sequence[tuple]) -> list:
    """Coefficients of the K-polynomial N(t), with HS(R/I) = N(t)/(1-t)^n.

    Bigatti's pivot recursion ("Computation of Hilbert-Poincare series",
    JPAA 119, 1997): for a monomial p, N(I) = N(I + (p)) + t^deg(p) N(I : p).
    The pivot is a power of a variable shared by the most generators, at the
    lower median of its exponents; both branches strictly enlarge I, so the
    recursion ends, at pairwise-coprime generators with N = prod (1 - t^deg).
    """
    gens = monomial_minimal_generators(gens)
    if any(mono_degree(g) == 0 for g in gens):
        return [0]  # unit ideal
    counts = Counter(i for g in gens for i, e in enumerate(g) if e)
    shared = [i for i, c in counts.items() if c > 1]
    if not shared:
        num = [1]
        for g in gens:
            shifted = [0] * mono_degree(g) + num
            num = [a - b for a, b in itertools.zip_longest(num, shifted, fillvalue=0)]
        return num
    x = max(shared, key=lambda i: (counts[i], -i))
    exps = sorted(g[x] for g in gens if g[x])
    e = exps[(len(exps) - 1) // 2]
    pivot = tuple(e if i == x else 0 for i in range(len(gens[0])))
    plus = _k_numerator(gens + [pivot])
    colon = [0] * e + _k_numerator(
        [tuple(max(a - e, 0) if i == x else a for i, a in enumerate(g)) for g in gens]
    )
    return [a + b for a, b in itertools.zip_longest(plus, colon, fillvalue=0)]


def _strip_one_minus_t(num: list):
    """(Q, k) with N(t) = (1-t)^k Q(t) and Q(1) != 0, for a nonzero N."""
    k = 0
    while sum(num) == 0:
        num = list(itertools.accumulate(num[:-1]))  # q_j = n_0 + ... + n_j
        k += 1
    return num, k


def staircase_count(lead_monos: Sequence[tuple], arity: int):
    """Number of monomials outside the monomial ideal, or INFINITE.

    Read off the exact K-polynomial N(t): the count is finite iff (1-t)^arity
    divides N, and then it is Q(1) for Q = N/(1-t)^arity, the Hilbert series
    of the quotient as a polynomial.  INFINITE is always a verified infinity.
    """
    num = _k_numerator(lead_monos)
    if not any(num):
        return 0  # unit ideal
    q, k = _strip_one_minus_t(num)
    return sum(q) if k == arity else INFINITE


def monomial_ideal_dimension(lead_monos: Sequence[tuple], arity: int) -> int:
    """Krull dimension of R / (monomial ideal); -1 for the unit ideal.

    It is the pole order of the Hilbert series at t = 1: arity minus the
    number of (1-t) factors of the K-polynomial.
    """
    num = _k_numerator(lead_monos)
    if not any(num):
        return -1
    return arity - _strip_one_minus_t(num)[1]


# -------------------------------------------------------------- measurements

def colength(I: Ideal, order: MonomialOrder = DEGREVLEX):
    """Vector-space dimension of (local) ring modulo I, or INFINITE.

    This is the number of standard monomials: monomials outside the
    leading-term ideal of a basis under ``order``, counted exactly from the
    K-polynomial of that ideal (see :func:`staircase_count`).  A local order
    measures the localization at the origin, a global one the full quotient
    ring.
    """
    basis = basis_for(I, order)
    if not basis.elements:
        return INFINITE if I.ring.arity > 0 else 1
    return staircase_count(basis.leading_monomials(), I.ring.arity)


def krull_dimension(I: Ideal) -> int:
    """Krull dimension of ring/I from the leading-term ideal; -1 if I = (1)."""
    basis = groebner_basis(I, DEGREVLEX)
    if not basis.elements:
        return I.ring.arity
    return monomial_ideal_dimension(basis.leading_monomials(), I.ring.arity)


def hs_multiplicity(I: Ideal) -> int:
    """Hilbert-Samuel multiplicity of the local ring at the origin.

    Computed from the tangent cone: the Hilbert series of the associated
    graded ring is N(t)/(1-t)^n with N the exact K-polynomial of the local
    leading-term ideal, and the multiplicity is Q(1) for Q the quotient of N
    by every (1-t) factor (equivalently the normalized leading Hilbert
    coefficient).
    """
    if not I.generators:
        raise InputError("multiplicity of the zero ideal is not defined")
    for g in I.generators:
        if g.constant_term() != 0:
            raise OriginNotOnVariety(f"generator {g} does not vanish at the origin")
    basis = standard_basis(I, LOCAL_DEGREVLEX)
    q, _ = _strip_one_minus_t(_k_numerator(basis.leading_monomials()))
    e = sum(q)
    if e <= 0:
        raise AssertionError("Hilbert-Samuel multiplicity must be positive")
    return e
