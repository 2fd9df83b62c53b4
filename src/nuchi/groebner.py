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

Coefficients.  The one Buchberger driver and both normal forms (``_division``
for global orders, ``_mora_nf`` for local ones) work on plain
{monomial: coefficient} dicts, never on :class:`Polynomial`.  Over Q the
coefficients are integers: each basis element is kept primitive (content 1,
positive leading coefficient), an S-polynomial is
(gc/d)*x^(l-fm)*f - (fc/d)*x^(l-gm)*g with d = gcd(fc, gc), and a reduction
step is a*h - b*x^q*g with a, b the same cofactors of the two leading
coefficients, so no Fraction is built.  Over F_p the coefficients are
residues and basis elements are kept monic.  Every step only multiplies the
field computation by a nonzero scalar, so leading monomials, zero tests and
reducer choices are those of the monic algorithm.  Fractions appear at
output only: one monic Polynomial per basis element, and :func:`normal_form`
divides out the scalar its remainder was multiplied by, which gives exactly
the monic algorithm's remainder.  The membership certificates
(``_tracked_buchberger``) stay on Polynomial arithmetic.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import InputError, OriginNotOnVariety, RingMismatch
from .poly import (
    DEGREVLEX,
    LOCAL_DEGREVLEX,
    MAX_EXPONENT,
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
    # the driver's integer entries of the elements, filled when first needed
    _entries: tuple = field(default=None, repr=False, compare=False)

    @property
    def ring(self) -> Ring:
        return self.source.ring

    @property
    def entries(self) -> tuple:
        """The elements as integer term entries (see ``_entry``), in order."""
        if self._entries is None:
            object.__setattr__(self, "_entries", tuple(_to_entries(self.elements, self.order)))
        return self._entries

    def leading_monomials(self) -> tuple:
        return tuple(g.leading_term(self.order)[0] for g in self.elements)

    def __iter__(self):
        return iter(self.elements)


# ------------------------------------------------------------ term entries
#
# An entry is (terms, lm, lc, deg): a {monomial: coefficient} dict with its
# leading monomial, leading coefficient and total degree.  Over Q the
# coefficients are integers of content 1 with lc > 0, over F_p residues
# with lc = 1.

def _lead(terms: dict, order: MonomialOrder) -> tuple:
    """Leading monomial of a nonzero term dict."""
    if order.kind == "degrevlex":
        return min(terms, key=lambda m: (-sum(m), m[::-1]))
    if order.kind == "local_degrevlex":
        return min(terms, key=lambda m: (sum(m), m[::-1]))
    return max(terms, key=order.key)


def _integer_terms(f: Polynomial):
    """(terms, L): L*f as a dict of integer coefficients, L = 1 over F_p."""
    if f.ring.domain.char:
        return dict(f.terms()), 1
    den = math.lcm(*(c.denominator for _, c in f.terms()))
    return {m: c.numerator * (den // c.denominator) for m, c in f.terms()}, den


def _entry(terms: dict, order: MonomialOrder, p: int, lm=None) -> tuple:
    """The entry of a nonzero term dict, which is scaled in place."""
    if lm is None:
        lm = _lead(terms, order)
    lc = terms[lm]
    if p:
        if lc != 1:
            inv = pow(lc, -1, p)
            for m in terms:
                terms[m] = terms[m] * inv % p
            lc = 1
    else:
        content = gcd(*terms.values())
        if lc < 0:
            content = -content
        if content != 1:
            for m in terms:
                terms[m] //= content
            lc //= content
    return terms, lm, lc, max(map(sum, terms))


def _to_entries(gens: Iterable[Polynomial], order: MonomialOrder) -> list:
    return [
        _entry(_integer_terms(g)[0], order, g.ring.domain.char)
        for g in gens
        if not g.is_zero()
    ]


def _output(ring: Ring, entry) -> Polynomial:
    """The monic polynomial of an entry."""
    terms, _, lc, _ = entry
    if lc != 1:
        terms = {m: Fraction(c, lc) for m, c in terms.items()}
    elif not ring.domain.char:
        terms = {m: Fraction(c) for m, c in terms.items()}
    return Polynomial(ring, terms, _merged=True)


def _cofactors(hc: int, gc: int, p: int):
    """(a, b) with a*hc = b*gc: a*h - b*x^q*g cancels the leading term of h.

    Over Q a = gc/d and b = hc/d with d = gcd(hc, gc) signed so that a > 0;
    over F_p a = 1.
    """
    if p:
        return 1, hc * pow(gc, -1, p) % p
    d = gcd(hc, gc)
    if gc < 0:
        d = -d
    return gc // d, hc // d


def _sub_multiple(h: dict, b: int, q: tuple, g: dict, p: int) -> None:
    """h -= b * x^q * g, in place."""
    for m, c in g.items():
        mm = mono_mul(q, m)
        v = h.pop(mm, 0) - b * c
        if p:
            v %= p
        if v:
            h[mm] = v


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


def _division(h: dict, reducers: Sequence[tuple], order: MonomialOrder, p: int):
    """Full multivariate division of the term dict h (consumed) for a global
    order: returns (remainder, s) with s*h - remainder in the ideal.

    Deterministic: reducers are tried in list order.  A step is
    h := a*h - b*x^q*g, which also multiplies the remainder so far and s by
    a.  The working support is kept in a lazy max-heap, so the remainder
    receives its terms in descending order and its first key is its leading
    monomial.
    """
    key = order.key
    heap = [(_RevKey(key(m)), m) for m in h]
    heapq.heapify(heap)
    rem: dict = {}
    scale = 1
    while heap:
        _, m = heapq.heappop(heap)
        if m not in h:
            continue  # stale entry
        c = h.pop(m)
        for g, gm, gc, _ in reducers:
            if mono_divides(gm, m):
                a, b = _cofactors(c, gc, p)
                if a != 1:
                    scale *= a
                    for t in h:
                        h[t] *= a
                    for t in rem:
                        rem[t] *= a
                qm = mono_div(m, gm)
                for m2, c2 in g.items():
                    if m2 == gm:
                        continue
                    mm = mono_mul(qm, m2)
                    if mm in h:
                        v = h[mm] - b * c2
                        if p:
                            v %= p
                        if v:
                            h[mm] = v
                        else:
                            del h[mm]
                    else:
                        h[mm] = -b * c2 % p if p else -b * c2
                        heapq.heappush(heap, (_RevKey(key(mm)), mm))
                break
        else:
            rem[m] = c
    _check_exponents(rem)  # lex reduction can raise exponents past any input's
    return rem, scale


def _mora_nf(h: dict, basis: Sequence[tuple], order: MonomialOrder, p: int):
    """Mora's weak normal form of the term dict h for a local order: returns
    (h', s) with s*h - h' in the ideal up to a local unit.

    Reduces the leading term only, selecting a reducer of minimal ecart and
    allowing previously produced partial remainders as reducers; this is the
    standard termination device for local orders.  The leading monomial of
    h' is not divisible by any basis leading monomial.  A step is
    h := a*h - b*x^q*g and multiplies s by a.
    """
    key = order.key
    pool = [(g, gm, gc, deg - sum(gm)) for g, gm, gc, deg in basis]
    scale = 1
    while h:
        hm = _lead(h, order)
        candidates = [entry for entry in pool if mono_divides(entry[1], hm)]
        if not candidates:
            break
        g, gm, gc, eg = min(candidates, key=lambda entry: (entry[3], key(entry[1])))
        hc = h[hm]
        eh = max(map(sum, h)) - sum(hm)
        if eg > eh:
            pool.append((h, hm, hc, eh))
            h = dict(h)  # the pool keeps this partial remainder
        a, b = _cofactors(hc, gc, p)
        if a != 1:
            scale *= a
            for t in h:
                h[t] *= a
        _sub_multiple(h, b, mono_div(hm, gm), g, p)
        if eg + sum(hm) > MAX_EXPONENT:  # the degree bound of x^q * g
            _check_exponents(h)
    return h, scale


def _tail_clean_local(h: dict, basis: Sequence[tuple], order: MonomialOrder) -> dict:
    """Remove tail terms divisible by a *monomial* basis element.

    Sound (subtracts ideal members) and terminating (monomial reducers add no
    new terms); non-monomial reducers are left alone.
    """
    mono_leads = [gm for g, gm, _, _ in basis if len(g) == 1]
    if not mono_leads or not h:
        return h
    lead = _lead(h, order)
    return {
        m: c
        for m, c in h.items()
        if m == lead or not any(mono_divides(g, m) for g in mono_leads)
    }


def normal_form(f: Polynomial, basis: StandardBasis) -> Polynomial:
    """Remainder of f modulo the basis.

    Global order: the unique fully reduced normal form (no term divisible by
    a basis leading term).  Local order: Mora weak normal form, followed by
    removal of tail terms under monomial basis elements.  Both are idempotent
    and satisfy f - normal_form(f) in the (localized) ideal, up to a local
    unit in the local case.  The reduction runs on integer terms; the scalar
    it multiplied f by is divided out once at the end.
    """
    if f.ring != basis.ring:
        raise RingMismatch("polynomial and basis rings differ")
    if not basis.elements:
        return f
    order, p = basis.order, f.ring.domain.char
    h, den = _integer_terms(f)
    if order.is_global:
        h, scale = _division(h, basis.entries, order, p)
    else:
        h, scale = _mora_nf(h, basis.entries, order, p)
        h = _tail_clean_local(h, basis.entries, order)
    if not p:
        scale *= den
        h = {m: Fraction(c, scale) for m, c in h.items()}
    return Polynomial(f.ring, h, _merged=True)


# ---------------------------------------------------------------- buchberger

def _s_poly(f: tuple, g: tuple, p: int) -> dict:
    """a*x^(l-fm)*f - b*x^(l-gm)*g with l = lcm(fm, gm) and a*fc = b*gc,
    made primitive over Q."""
    fterms, fm, fc, fdeg = f
    gterms, gm, gc, gdeg = g
    lcm = mono_lcm(fm, gm)
    qf, qg = mono_div(lcm, fm), mono_div(lcm, gm)
    a, b = _cofactors(fc, gc, p)
    s = {mono_mul(m, qf): a * c for m, c in fterms.items()}
    _sub_multiple(s, b, qg, gterms, p)
    if max(fdeg + sum(qf), gdeg + sum(qg)) > MAX_EXPONENT:
        _check_exponents(s)
    if s and not p:
        content = gcd(*s.values())
        if content != 1:
            s = {m: c // content for m, c in s.items()}
    return s


def _pair_key(i: int, j: int, leads, order: MonomialOrder):
    lcm = mono_lcm(leads[i], leads[j])
    return (mono_degree(lcm), order.key(lcm), i, j)


def _buchberger_loop(gens: Sequence[Polynomial], order: MonomialOrder) -> list:
    """Shared Buchberger driver on entries; the normal form is Mora for local
    orders.

    Pair selection follows the normal strategy (minimal lcm degree first)
    with the product and chain criteria for pair elimination.
    """
    p = gens[0].ring.domain.char
    basis = _to_entries(gens, order)
    leads = [g[1] for g in basis]
    queue = [
        _pair_key(i, j, leads, order) for j in range(len(basis)) for i in range(j)
    ]
    heapq.heapify(queue)
    done: set = set()

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
        s = _s_poly(basis[i], basis[j], p)
        if order.is_global:
            r, _ = _division(s, basis, order, p)
            lm = next(iter(r), None)
        else:
            r, _ = _mora_nf(s, basis, order, p)
            lm = None
        if r:
            basis.append(_entry(r, order, p, lm))
            leads.append(basis[-1][1])
            new = len(basis) - 1
            for k in range(new):
                heapq.heappush(queue, _pair_key(k, new, leads, order))
    return basis


def _minimalize(basis: Sequence[tuple]) -> list:
    """Drop entries whose leading monomial is divisible by another's; a
    divisor has the lower total degree, so it comes first under every order."""
    entries = sorted(basis, key=lambda g: sum(g[1]))
    kept: list = []
    for g in entries:
        if not any(mono_divides(h[1], g[1]) for h in kept):
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
    p = I.ring.domain.char
    basis = _minimalize(_buchberger_loop(I.generators, order))
    reduced = []
    for idx, g in enumerate(basis):
        others = basis[:idx] + basis[idx + 1 :]
        if others:
            rem, _ = _division(dict(g[0]), others, order, p)
            g = _entry(rem, order, p, g[1])
        reduced.append(g)
    reduced.sort(key=lambda g: order.key(g[1]))
    result = _result(I, order, reduced)
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
    normalized = []
    for g in _minimalize(_buchberger_loop(I.generators, order)):
        gm = g[1]
        if all(mono_divides(gm, m) for m in g[0]):
            # g = x^gm * (local unit): the localized ideal member is x^gm
            g = ({gm: 1}, gm, 1, sum(gm))
        normalized.append(g)
    normalized.sort(key=lambda g: order.key(g[1]))
    result = _result(I, order, normalized)
    if verify:
        _assert_spolys_vanish(result)
    return result


def _result(I: Ideal, order: MonomialOrder, entries: list) -> StandardBasis:
    elements = tuple(_output(I.ring, g) for g in entries)
    return StandardBasis(order, elements, I, tuple(entries))


def _assert_spolys_vanish(basis: StandardBasis) -> None:
    """Check the output polynomials themselves, not the driver's entries."""
    order, p = basis.order, basis.ring.domain.char
    elems = _to_entries(basis.elements, order)
    for i in range(len(elems)):
        for j in range(i):
            s = _s_poly(elems[i], elems[j], p)
            if order.is_global:
                rem, _ = _division(s, elems, order, p)
            else:
                rem, _ = _mora_nf(s, elems, order, p)
            if rem:
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
    return staircase_count(basis_for(I, order).leading_monomials(), I.ring.arity)


def krull_dimension(I: Ideal) -> int:
    """Krull dimension of ring/I from the leading-term ideal; -1 if I = (1)."""
    leads = groebner_basis(I, DEGREVLEX).leading_monomials()
    return monomial_ideal_dimension(leads, I.ring.arity)


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
