"""Groebner bases (Buchberger) and local standard bases (Mora).

This module supplies the ideal-theoretic queries that the pointwise and
cycle-level formulas reduce to: normal forms, membership, elimination,
colength, Krull dimension and Hilbert-Samuel multiplicity.

Conventions.  A basis under a global order is the unique reduced Groebner
basis.  Under a local order we return a minimal monic standard basis computed
with Mora's tangent-cone normal form; elements generate the ideal in the
localization at the origin, and full tail reduction is not attempted (it does
not terminate in polynomial arithmetic when a reducer has a unit cofactor).
Once the leads hold a pure power of every variable, the local driver works
below the highest corner, modulo a power of the maximal ideal that lies in
the localized ideal (see ``_buchberger_loop``).
Basis elements that are a monomial times a local unit are normalized to the
bare monomial, which is an equality of localized ideals.  A local basis is
read for invariants only: Mora's remainder is not unique, so
:func:`normal_form` takes a global basis only.

Coefficients.  The one Buchberger driver and its two reductions
(``_division`` for global orders, ``_mora_nf`` for the local one) work on
plain {monomial: coefficient} dicts, never on :class:`Polynomial`.  Over Q the
coefficients are integers: each basis element is kept primitive (content 1,
positive leading coefficient), an S-polynomial is
(gc/d)*x^(l-fm)*f - (fc/d)*x^(l-gm)*g with d = gcd(fc, gc), and a reduction
step is a*h - b*x^q*g with a, b the same cofactors of the two leading
coefficients, so no Fraction is built.  Over F_p the coefficients are
residues and basis elements are kept monic.  Every step only multiplies the
field computation by a nonzero scalar, so leading monomials, zero tests and
reducer choices are those of the monic algorithm.  A Polynomial over Q
stores integers over one denominator
(:meth:`~nuchi.poly.Polynomial.numerators`), so the way in packs them as
they are (``_integer_terms``) and the way out
builds no Fraction either: a monic basis element is its entry's integers
over the leading coefficient, and :func:`normal_form` puts its remainder
over the scalar it multiplied f by, which gives exactly the monic
algorithm's remainder.  This is the one Buchberger driver: every basis,
membership test, eliminant and colength comes from it.  It forms each pair
once, as its later entry is inserted, with a bitmask of taken pairs per
entry; under the local order it keeps Mora's pool and reads pure-power
leads at insertion.

Entries.  ``_buchberger_loop`` takes a list of entries (see ``_entry``), not
polynomials: :func:`groebner_basis` and :func:`standard_basis` convert their
generators with ``_to_entries``, and :func:`jacobian_basis` and
:func:`jacobian_groebner_basis` pack f once and take its partials in the
packing (``_partials``); :func:`partial_term_counts` reads the partials'
numbers of terms off f's exponents by ``_partial``'s rule.  Both local bases come from ``_local_basis``, the
one local-basis core, and both reduced global bases from ``_reduced``, the
driver followed by the one global finish.  A :class:`StandardBasis` keeps
the entries, and no other module reads the packing: the basis reads the
Hilbert invariants of its leading-term ideal off the packed leads
(:meth:`StandardBasis.invariants`, the one ``_hilbert``) and, under the
local order, the Jacobian rank at the origin as its number of leads of
degree 1 (:meth:`StandardBasis.linear_leads`), and
:func:`eliminant` reads primitive integer eliminants off the entries.  So
the Milnor route (``singular``) and the cycle route (``cycles``) build no
basis Polynomial but the cycle route's elements in more than one variable
(:meth:`StandardBasis.multivariate_elements`); the monic ``elements`` are
built only when asked for.

Monomials.  In ``_buchberger_loop``, the normal forms and the Hilbert
counter a monomial x^e in n variables is one int (``_Packing``; Monagan and
Pearce, "Sparse polynomial division using a heap", JSC 2011): e_i sits in a
64-bit field at bit 64*(i-1), so e_n is the most significant field, and the
total degree D sits above the fields at bit 64*n.  A monomial is packed once
per term on the way in and unpacked once per term on the way out; public
functions take and return exponent tuples.  Multiplying monomials is +, the
quotient is -, and with G the mask of bit 63 of every field, x^a divides x^b
iff ((b | G) - a) & G == G.  The local degrevlex lead is the least int; the
degrevlex key is (D << 64n) - R for R the fields, and lex and ``elim`` get a
key function per (arity, order).

Overflow.  ExponentOverflow is raised on a division remainder, and on an
S-polynomial or Mora step whose degree bound passes MAX_EXPONENT, when one
of bits 31..63 of a field is set.  Basis entries are in range, so a product
of two in-range monomials cannot carry into the next field; only a
division's working terms grow past the range, by less than 2^31 a step, and
``_division`` tests bit 63 of each term it adds, which would take about 2^32
steps to reach.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import struct
from dataclasses import FrozenInstanceError, dataclass
from math import gcd
from typing import Iterable, Sequence

from .errors import ExponentOverflow, InputError, OriginNotOnVariety, RingMismatch
from .poly import (
    DEGREVLEX,
    LOCAL_DEGREVLEX,
    MAX_EXPONENT,
    MonomialOrder,
    Polynomial,
    Ring,
    elimination_order,
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


class StandardBasis:
    """A Groebner basis (global order) or Mora standard basis (local order).

    ``StandardBasis(order, ring, entries)``: a basis holds the driver's
    integer entries (see ``_entry``), whose leading monomials are the minimal
    generators of the leading-term ideal.  :meth:`invariants` reads that
    ideal's Hilbert invariants off the packed leads, :meth:`linear_leads`
    counts its generators of degree 1, and the monic
    ``elements`` are built from the entries on first access.  A basis is
    immutable.
    """

    __slots__ = ("order", "ring", "entries", "_elements")

    def __init__(self, order: MonomialOrder, ring: Ring, entries: tuple):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_elements", None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def elements(self) -> tuple:
        if self._elements is None:
            ring = self.ring
            unpack = _packing(ring.arity).unpack
            elements = tuple(_output(ring, unpack, g) for g in self.entries)
            object.__setattr__(self, "_elements", elements)
        return self._elements

    def leading_monomials(self) -> tuple:
        unpack = _packing(self.ring.arity).unpack
        return tuple(unpack(g[1]) for g in self.entries)

    def multivariate_elements(self) -> tuple:
        """The elements in more than one variable, in basis order, each with
        its entry's coefficients: over Q the integer multiple of the monic
        element with content 1 and a positive leading coefficient.  Only
        these Polynomials are built."""
        ring = self.ring
        pk = _packing(ring.arity)
        out = []
        for terms, _, _, _ in self.entries:
            support = 0
            for m in terms:
                support |= m
            if sum(1 for s in range(0, pk.shift, _W) if (support >> s) & _FIELD) > 1:
                terms = {pk.unpack(m): c for m, c in terms.items()}
                out.append(Polynomial(ring, terms, _merged=True))
        return tuple(out)

    def invariants(self) -> tuple:
        """(length, dim, degree) of the quotient by the leading-term ideal:
        length is the colength or INFINITE, dim the Krull dimension (-1 for
        the unit ideal) and degree the multiplicity (0 for the unit ideal).

        Length and dim are those of ring/I under a global order, and those of
        the localization at the origin under the local order, where degree
        is the Hilbert-Samuel multiplicity; under degrevlex degree is that
        of ring/I.  See ``_hilbert``.
        """
        pk = _packing(self.ring.arity)
        return _hilbert([g[1] for g in self.entries], pk)

    def linear_leads(self) -> int:
        """The number of leading monomials of degree 1.

        Under the local order, for generators that vanish at the origin, it
        is the rank of their Jacobian matrix there, over the ring's field
        (the tangent-cone reading of a standard basis; Greuel and Pfister,
        "A Singular Introduction to Commutative Algebra", 1.7).  An element
        of the localized ideal sum u_i*g_i has linear part
        sum u_i(0)*lin(g_i), so the linear parts of its elements of order 1
        are the span of the lin(g_i), and a space of linear forms has as
        many distinct leads as its dimension.  Each is a minimal generator
        of the leading-term ideal, so it leads exactly one basis element.
        """
        shift = _packing(self.ring.arity).shift
        return sum(1 for g in self.entries if g[1] >> shift == 1)


# -------------------------------------------------------- packed monomials

_W = 64  # bits per exponent field
_FIELD = (1 << _W) - 1


class _Packing:
    """Packed monomials of one arity n (the layout is in the module docstring).

    Exponent e_i sits in the field at bit 64*(i-1), so e_n is the most
    significant field, and the total degree sits above them at bit 64*n.
    """

    def __init__(self, n: int):
        ones = sum(1 << (_W * i) for i in range(n))
        self.n = n
        self.shift = _W * n  # the degree field
        self.fields = (1 << self.shift) - 1  # every exponent field
        self.ones = ones
        self.guard = ones << (_W - 1)  # bit 63 of every field
        self.over = ones * (_FIELD ^ MAX_EXPONENT)  # bits 31..63 of every field
        self.top = _W * max(n - 1, 0)  # the last field
        self._struct = struct.Struct(f"<{n}Q")
        self._keys: dict = {}

    def pack(self, m: tuple) -> int:
        r = 0
        for e in reversed(m):
            r = (r << _W) | e
        return r | (sum(m) << self.shift)

    def unpack(self, t: int) -> tuple:
        return self._struct.unpack((t & self.fields).to_bytes(8 * self.n, "little"))

    def lcm(self, a: int, b: int) -> int:
        """Fieldwise maximum of two in-range monomials."""
        guard = self.guard
        ge = (((a | guard) - b) & guard) >> (_W - 1)  # 1 where a_i >= b_i
        take_a = (ge << (_W - 1)) - ge  # bits 0..62 of those fields
        r = (a & take_a) | (b & (self.fields ^ take_a))
        # fields below 2^31 sum without carries: field n-1 of r*ones is the degree
        deg = (r * self.ones >> self.top) & _FIELD
        return r | (deg << self.shift)

    def check(self, terms) -> None:
        """ExponentOverflow when a monomial has an exponent past MAX_EXPONENT."""
        over = self.over
        for t in terms:
            if t & over:
                top = max((t >> s) & _FIELD for s in range(0, self.shift, _W))
                raise ExponentOverflow(f"exponent {top} exceeds 32-bit range")

    def key(self, order: MonomialOrder):
        """Order key on packed monomials, an int: a larger key is a larger
        monomial."""
        key = self._keys.get(order)
        if key is None:
            key = self._keys[order] = self._make_key(order)
        return key

    def _make_key(self, order: MonomialOrder):
        if order.kind == "local_degrevlex":
            return operator.neg
        if order.kind == "degrevlex":
            rest = self.fields
            return lambda t: t - ((t & rest) << 1)  # (degree << 64n) - fields
        if order.kind == "lex":
            offsets = range(0, self.shift, _W)

            def lex(t):
                k = 0
                for s in offsets:  # e_1 ends most significant
                    k = (k << _W) | ((t >> s) & _FIELD)
                return k

            return lex
        # elim: degrevlex on the block, then degrevlex on the rest
        block = [_W * i for i in range(self.n) if i in order.block]
        rest = [_W * i for i in range(self.n) if i not in order.block]
        width = _W * (len(rest) + 2)  # above the rest's key, whose degree is below 2^128

        def degrevlex(t, offsets):
            r = d = 0
            for s in reversed(offsets):  # the highest index ends most significant
                e = (t >> s) & _FIELD
                r = (r << _W) | e
                d += e
            return (d << (_W * len(offsets))) - r

        return lambda t: (degrevlex(t, block) << width) + degrevlex(t, rest)


@functools.cache
def _packing(n: int) -> _Packing:
    return _Packing(n)


# ------------------------------------------------------------ term entries
#
# An entry is (terms, lm, lc, deg): a {packed monomial: coefficient} dict
# with its leading monomial, leading coefficient and total degree.  Over Q
# the coefficients are integers of content 1 with lc > 0, over F_p residues
# with lc = 1.

def _integer_terms(f: Polynomial, pack):
    """(terms, L): L*f as a packed dict of integer coefficients, for L the
    one denominator f stores (1 over F_p), so its integers are packed as
    they are (see :meth:`~nuchi.poly.Polynomial.numerators`)."""
    terms, den = f.numerators()
    return {pack(m): c for m, c in terms}, den


def _partial(terms: dict, i: int, pk: _Packing, p: int) -> dict:
    """The partial derivative in variable i of a packed term dict: c*x^m
    goes to c*m_i * x^(m - unit_i), and terms that vanish are dropped."""
    s = _W * i
    unit = (1 << s) | (1 << pk.shift)
    out = {}
    for m, c in terms.items():
        e = (m >> s) & _FIELD
        if e:
            c = c * e % p if p else c * e
            if c:
                out[m - unit] = c
    return out


def _entry(terms: dict, pk: _Packing, order: MonomialOrder, p: int, lm=None) -> tuple:
    """The entry of a nonzero term dict, which is scaled in place."""
    if lm is None:  # the local lead is the least packed int
        lm = min(terms) if order.is_local else max(terms, key=pk.key(order))
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
    return terms, lm, lc, max(terms) >> pk.shift


def _to_entries(gens: Iterable[Polynomial], pk: _Packing, order: MonomialOrder) -> list:
    return [
        _entry(_integer_terms(g, pk.pack)[0], pk, order, g.ring.domain.char)
        for g in gens
        if not g.is_zero()
    ]


def _output(ring: Ring, unpack, entry) -> Polynomial:
    """The monic polynomial of an entry: its integers over its leading
    coefficient, which is positive (1 over F_p)."""
    terms, _, lc, _ = entry
    return Polynomial(ring, {unpack(m): c for m, c in terms.items()}, _den=lc, _merged=True)


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


def _sub_multiple(h: dict, b: int, q: int, g: dict, p: int) -> None:
    """h -= b * x^q * g, in place."""
    for m, c in g.items():
        mm = q + m
        v = h.pop(mm, 0) - b * c
        if p:
            v %= p
        if v:
            h[mm] = v


# ------------------------------------------------------------------ division

def _division(h: dict, reducers: Sequence[tuple], pk: _Packing, order: MonomialOrder, p: int):
    """Full multivariate division of the term dict h (consumed) for a global
    order: returns (remainder, s) with s*h - remainder in the ideal.

    Deterministic: reducers are tried in list order.  A step is
    h := a*h - b*x^q*g, which also multiplies the remainder so far and s by
    a.  The working support is kept in a lazy heap of negated order keys, so
    the remainder receives its terms in descending order and its first key
    is its leading monomial.
    """
    key = pk.key(order)
    guard = pk.guard
    heap = [(-key(m), m) for m in h]
    heapq.heapify(heap)
    rem: dict = {}
    scale = 1
    while heap:
        _, m = heapq.heappop(heap)
        if m not in h:
            continue  # stale entry
        c = h.pop(m)
        mg = m | guard
        for g, gm, gc, _ in reducers:
            if (mg - gm) & guard == guard:  # x^gm divides x^m
                a, b = _cofactors(c, gc, p)
                if a != 1:
                    scale *= a
                    for t in h:
                        h[t] *= a
                    for t in rem:
                        rem[t] *= a
                qm = m - gm
                for m2, c2 in g.items():
                    if m2 == gm:
                        continue
                    mm = qm + m2
                    if mm in h:
                        v = h[mm] - b * c2
                        if p:
                            v %= p
                        if v:
                            h[mm] = v
                        else:
                            del h[mm]
                    else:
                        if mm & guard:  # a field reached 2^63; see the module docstring
                            pk.check((mm,))
                        h[mm] = -b * c2 % p if p else -b * c2
                        heapq.heappush(heap, (-key(mm), mm))
                break
        else:
            rem[m] = c
    pk.check(rem)  # lex reduction can raise exponents past any input's
    return rem, scale


def _mora_nf(h: dict, pool: Sequence[tuple], pk: _Packing, p: int, corner) -> dict:
    """Mora's weak normal form h' of the term dict h for the local order:
    u*h - h' is in the ideal for a local unit u, which takes in the scalar a
    of each step h := a*h - b*x^q*g.

    Reduces the leading term only, selecting a reducer of minimal ecart and
    allowing previously produced partial remainders as reducers; this is the
    standard termination device for local orders.  ``pool`` holds the
    reducers with their ecarts, (terms, lm, lc, ecart), as the driver keeps
    them; it is copied, never changed.  The leading monomial of h' is not
    divisible by any basis leading monomial.  With a ``corner`` D such that
    m^D lies in the localized ideal (see ``_buchberger_loop``), terms of
    degree D or more are dropped before each step, which changes h only by
    an ideal member; with None nothing is dropped.
    """
    shift, guard = pk.shift, pk.guard
    pool = list(pool)
    while h:
        hm = min(h)  # the local leading monomial
        hg = hm | guard
        best = None  # least ecart, then the least order key, which is the largest packed lead
        for entry in pool:
            if (hg - entry[1]) & guard == guard and (
                best is None or entry[3] < best[3] or entry[3] == best[3] and entry[1] > best[1]
            ):
                best = entry
        if best is None:
            break
        top = max(h) >> shift
        if corner is not None and top >= corner:
            # the lead stays unless every term has degree corner or more
            h = {m: c for m, c in h.items() if m >> shift < corner}
            if not h:
                break
            top = max(h) >> shift
        g, gm, gc, eg = best
        hc = h[hm]
        hdeg = hm >> shift
        eh = top - hdeg
        if eg > eh:
            pool.append((h, hm, hc, eh))
            h = dict(h)  # the pool keeps this partial remainder
        a, b = _cofactors(hc, gc, p)
        if a != 1:
            for t in h:
                h[t] *= a
        _sub_multiple(h, b, hm - gm, g, p)
        if eg + hdeg > MAX_EXPONENT:  # the degree bound of x^q * g
            pk.check(h)
    return h


def normal_form(f: Polynomial, basis: StandardBasis) -> Polynomial:
    """Remainder of f modulo a basis under a global order: the unique fully
    reduced normal form (no term divisible by a basis leading term), so it
    is idempotent and f - normal_form(f) lies in the ideal.  The reduction
    runs on integer terms; the scalar it multiplied f by is divided out once
    at the end.  A local basis, read for invariants only, raises InputError.
    """
    if f.ring != basis.ring:
        raise RingMismatch("polynomial and basis rings differ")
    if not basis.order.is_global:
        raise InputError("normal_form requires a basis under a global order")
    if f.is_zero() or not basis.entries:
        return f
    p = f.ring.domain.char
    pk = _packing(f.ring.arity)
    h, den = _integer_terms(f, pk.pack)
    h, scale = _division(h, basis.entries, pk, basis.order, p)
    unpack = pk.unpack  # the remainder of scale*den*f, with scale > 0 (1 over F_p)
    return Polynomial(f.ring, {unpack(m): c for m, c in h.items()}, _den=scale * den, _merged=True)


def eliminant(basis: StandardBasis, var: int) -> dict:
    """The generator of I meet Q[x_var] with content 1 and a positive leading
    coefficient, as {exponent: coefficient} over its nonzero terms, read off
    the integer entries of a reduced degrevlex basis of a zero-dimensional I
    over Q.

    Such a basis holds at most one element whose leading monomial is a power
    of x_var; when that element is univariate it lies in I meet Q[x_var] and
    has the least degree there, so its entry, which is primitive, is the
    generator.  Otherwise FGLM (Faugere-Gianni-Lazard-Mora, JSC 16, 1993):
    the generator is the first linear dependency among the normal forms of
    1, x, x^2, ... modulo the basis, so the loop ends within colength + 1
    steps.  It runs in integers: s_k * x^k reduces to nf_k, and each row is
    a reduced nf (packed monomial keys) with the combination of powers it
    stands for (exponent keys), reduced against the earlier rows in order by
    cross-multiplication and kept primitive.
    """
    if basis.ring.domain.char:
        raise InputError("eliminants are read over Q only")
    pk = _packing(basis.ring.arity)
    s = _W * var
    others = pk.fields ^ (_FIELD << s)
    for terms, _, _, _ in basis.entries:
        if not any(m & others for m in terms):
            return {m >> pk.shift: c for m, c in terms.items()}
    step = (1 << s) | (1 << pk.shift)  # x_var, packed
    rows = []
    nf, scale = {0: 1}, 1
    for k in itertools.count():
        vec, combo = dict(nf), {k: scale}
        for pivot, rvec, rcombo in rows:
            c = vec.get(pivot)
            if c:
                d = gcd(rvec[pivot], c)
                a, b = rvec[pivot] // d, c // d
                for t in vec:
                    vec[t] *= a
                for t in combo:
                    combo[t] *= a
                _sub_multiple(vec, b, 0, rvec, 0)
                _sub_multiple(combo, b, 0, rcombo, 0)
        if not vec:
            content = gcd(*combo.values())
            if combo[max(combo)] < 0:
                content = -content
            return {j: combo[j] // content for j in sorted(combo)}
        content = gcd(*vec.values(), *combo.values())
        rows.append((
            next(iter(vec)),
            {m: v // content for m, v in vec.items()},
            {j: v // content for j, v in combo.items()},
        ))
        nf, a = _division({m + step: c for m, c in nf.items()}, basis.entries, pk, basis.order, 0)
        scale *= a
        content = gcd(scale, *nf.values())
        nf, scale = {m: c // content for m, c in nf.items()}, scale // content


# ---------------------------------------------------------------- buchberger

def _s_poly(f: tuple, g: tuple, pk: _Packing, p: int) -> dict:
    """a*x^(l-fm)*f - b*x^(l-gm)*g with l = lcm(fm, gm) and a*fc = b*gc,
    made primitive over Q."""
    fterms, fm, fc, fdeg = f
    gterms, gm, gc, gdeg = g
    lcm = pk.lcm(fm, gm)
    qf, qg = lcm - fm, lcm - gm
    a, b = _cofactors(fc, gc, p)
    s = {m + qf: a * c for m, c in fterms.items()}
    _sub_multiple(s, b, qg, gterms, p)
    shift = pk.shift
    if max(fdeg + (qf >> shift), gdeg + (qg >> shift)) > MAX_EXPONENT:
        pk.check(s)
    if s and not p:
        content = gcd(*s.values())
        if content != 1:
            s = {m: c // content for m, c in s.items()}
    return s


def _buchberger_loop(basis: list, pk: _Packing, order: MonomialOrder, p: int) -> list:
    """The one Buchberger driver: returns the entries followed by the new
    ones.  The normal form is Mora's under the local order.

    Each pair is formed once, when its later entry is inserted (Gebauer and
    Moeller, JSC 6, 1988).  A pair of coprime leads is taken at once and
    never queued: the product criterion.  Each entry keeps an int bitmask of
    its taken partners, so the chain criterion tests the pair's lcm against
    the leads of the entries in both masks only.  Pair selection follows
    the normal strategy (minimal lcm degree first) under the degree orders,
    and the sugar strategy (Giovini, Mora, Niesi, Robbiano and Traverso,
    ISSAC 1991) under ``lex`` and ``elim``, where the normal strategy lets
    coefficients swell: an entry's sugar is its degree, or that of the pair
    it came from, whichever is larger.  An entry whose lead is the constant
    monomial (packed 0) generates (1) under either kind of order, so the
    first such entry is returned alone.

    Under the local order the driver keeps Mora's pool, its entries with
    their ecarts, which ``_mora_nf`` copies, and reads each lead for a pure
    power as it is inserted.  Once the leads hold a pure power x_i^a_i of
    every variable the leading-term ideal contains every monomial of degree
    D = sum(a_i - 1) + 1, so the ideal's tangent cone contains m^D and, by
    Nakayama, m^D lies in the localized ideal.  From then on the normal
    forms drop terms of degree D or more, and the pairs whose lcm has
    degree D or more are dropped: their S-polynomials lie in m^D.  This is
    exact; the leading-term ideal is unchanged.
    """
    key, guard, shift, fields, n = pk.key(order), pk.guard, pk.shift, pk.fields, pk.n
    low = guard - pk.ones  # adding it to a field sets its bit 63 iff the field is nonzero
    local, lexical = not order.is_global, order.kind in ("lex", "elim")
    leads, supports, excess, done, queue = [], [], [], [], []
    pool, least, corner = [], {}, None  # local only: support bit -> least pure power
    todo, basis = [(g, g[3]) for g in basis], []  # entries to insert, with their sugar
    while todo:
        for g, sugar in todo:
            lm = g[1]
            if lm == 0:
                return [g]
            j = len(basis)
            support = ((lm & fields) + low) & guard  # bit 63 of each nonzero field
            ex = sugar - (lm >> shift)
            mask = 0
            for k in range(j):
                if not support & supports[k]:  # coprime leads: the product criterion
                    mask |= 1 << k
                    done[k] |= 1 << j
                    continue
                lcm = pk.lcm(leads[k], lm)
                deg = lcm >> shift
                if lexical:
                    deg += max(excess[k], ex)
                heapq.heappush(queue, (deg, key(lcm), k, j, lcm))
            basis.append(g)
            leads.append(lm)
            supports.append(support)
            excess.append(ex)
            done.append(mask)
            if local:
                pool.append((g[0], lm, g[2], g[3] - (lm >> shift)))
                # a pure power: one nonzero field, and so one bit of support
                if support.bit_count() == 1 and lm < least.get(support, lm + 1):
                    least[support] = lm
                    if len(least) == n:  # distinct fields: the sum's degree is sum(a_i)
                        corner = (sum(least.values()) >> shift) - n + 1
        todo = []
        while queue:
            deg, _, i, j, lcm = heapq.heappop(queue)
            if corner is not None and lcm >> shift >= corner:
                return basis  # the queue's least lcm degree: no pair left is below the corner
            done[i] |= 1 << j
            done[j] |= 1 << i
            common, lg = done[i] & done[j], lcm | guard
            while common:  # the chain criterion
                bit = common & -common
                if (lg - leads[bit.bit_length() - 1]) & guard == guard:
                    break
                common ^= bit
            if common:
                continue
            if local:
                r = _mora_nf(_s_poly(basis[i], basis[j], pk, p), pool, pk, p, corner)
            else:
                r, _ = _division(_s_poly(basis[i], basis[j], pk, p), basis, pk, order, p)
            if r:  # a division remainder's first key is its lead
                g = _entry(r, pk, order, p, None if local else next(iter(r)))
                todo.append((g, max(deg, g[3])))
                break
    return basis


def _minimalize(basis: Sequence[tuple], pk: _Packing) -> list:
    """Drop entries whose leading monomial is divisible by another's; a
    divisor has the lower total degree, so it comes first under every order."""
    shift, guard = pk.shift, pk.guard
    entries = sorted(basis, key=lambda g: g[1] >> shift)
    kept: list = []
    for g in entries:
        lg = g[1] | guard
        if not any((lg - h[1]) & guard == guard for h in kept):
            kept.append(g)
    return kept


def _reduced(entries: list, ring: Ring, order: MonomialOrder) -> StandardBasis:
    """The reduced Groebner basis, under a global order, of the ideal of a
    list of entries: the driver's basis made minimal, inter-reduced and
    sorted by ascending leading monomial.

    The leads of a minimal basis divide no other lead, so only tail terms
    can be reducible; an element none of whose terms is divisible by
    another's lead is already reduced, and it is kept as it is.
    """
    if not entries:
        return StandardBasis(order, ring, ())
    p, pk = ring.domain.char, _packing(ring.arity)
    basis = _minimalize(_buchberger_loop(entries, pk, order, p), pk)
    guard = pk.guard
    leads = [g[1] for g in basis]
    reduced = []
    for idx, g in enumerate(basis):
        # a tail term lies below its own lead, so its own lead divides none
        if any(((m | guard) - lead) & guard == guard for m in g[0] if m != g[1] for lead in leads):
            rem, _ = _division(dict(g[0]), basis[:idx] + basis[idx + 1 :], pk, order, p)
            g = _entry(rem, pk, order, p, g[1])
        reduced.append(g)
    key = pk.key(order)
    reduced.sort(key=lambda g: key(g[1]))
    return StandardBasis(order, ring, tuple(reduced))


def groebner_basis(I: Ideal, order: MonomialOrder = DEGREVLEX) -> StandardBasis:
    """The reduced Groebner basis of I under a global order.

    Unique for (I, order); elements are monic, fully inter-reduced and sorted
    by ascending leading monomial.
    """
    if not order.is_global:
        raise InputError("groebner_basis requires a global order")
    return _reduced(_to_entries(I.generators, _packing(I.ring.arity), order), I.ring, order)


def standard_basis(I: Ideal) -> StandardBasis:
    """A minimal monic standard basis of I under ``LOCAL_DEGREVLEX``.

    Uses Mora's normal form with ecart-minimizing reducer selection; the
    leading-term ideal equals that of I in the localization at the origin.
    """
    pk = _packing(I.ring.arity)
    entries = _to_entries(I.generators, pk, LOCAL_DEGREVLEX)
    return StandardBasis(LOCAL_DEGREVLEX, I.ring, _local_basis(entries, pk, I.ring.domain.char))


def _partials(f: Polynomial) -> tuple:
    """(pk, p, partials): f packed once, with integer coefficients, and its
    nonzero partial derivatives taken in the packing, as term dicts in
    variable order.  A zero partial vanishes everywhere and adds nothing to
    the Jacobian ideal."""
    n, p = f.ring.arity, f.ring.domain.char
    pk = _packing(n)
    terms, _ = _integer_terms(f, pk.pack)
    return pk, p, [d for d in [_partial(terms, i, pk, p) for i in range(n)] if d]


def partial_term_counts(f: Polynomial) -> tuple:
    """The number of terms of each partial derivative of f, in variable
    order, read off f's exponents by ``_partial``'s rule: a term c*x^m of f
    gives a term of d_i f exactly when m_i is nonzero in the field."""
    p, monos = f.ring.domain.char, f.monomials()
    return tuple(sum(1 for m in monos if (m[i] % p if p else m[i])) for i in range(f.ring.arity))


def jacobian_groebner_basis(f: Polynomial) -> StandardBasis:
    """The reduced degrevlex Groebner basis of the Jacobian ideal of f: the
    basis :func:`groebner_basis` gives for the ideal of the partials, built
    without a Polynomial for any partial (see ``_partials``)."""
    pk, p, partials = _partials(f)
    return _reduced([_entry(d, pk, DEGREVLEX, p) for d in partials], f.ring, DEGREVLEX)


def jacobian_basis(f: Polynomial):
    """The minimal local standard basis of the Jacobian ideal of f at the
    origin, or None when df(0) != 0.

    Runs on packed integer terms and builds no Polynomial (see
    ``_partials``); df(0) = 0 is read off the constant terms of the
    partials, the packed key 0.
    """
    pk, p, partials = _partials(f)
    if any(0 in d for d in partials):
        return None
    entries = [_entry(d, pk, LOCAL_DEGREVLEX, p) for d in partials]
    return StandardBasis(LOCAL_DEGREVLEX, f.ring, _local_basis(entries, pk, p))


def _local_basis(entries: list, pk: _Packing, p: int) -> tuple:
    """The entries of the minimal local standard basis of a list of entries,
    sorted by ascending local order.

    Its leading monomials are the minimal generators of the local
    leading-term ideal.  This is the one local-basis core: behind
    :func:`standard_basis` and :func:`jacobian_basis`.
    """
    shift, guard = pk.shift, pk.guard
    normalized = []
    for g in _minimalize(_buchberger_loop(entries, pk, LOCAL_DEGREVLEX, p), pk):
        gm = g[1]
        if all(((m | guard) - gm) & guard == guard for m in g[0]):
            # g = x^gm * (local unit): the localized ideal member is x^gm
            g = ({gm: 1}, gm, 1, gm >> shift)
        normalized.append(g)
    normalized.sort(key=lambda g: -g[1])  # the local order key is the negated int
    return tuple(normalized)


def ideal_membership(f: Polynomial, I: Ideal) -> bool:
    """Decide f in I via a global-order normal form."""
    if f.ring != I.ring:
        raise RingMismatch("polynomial and ideal rings differ")
    return normal_form(f, groebner_basis(I, DEGREVLEX)).is_zero()


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
        if all(all(m[i] == 0 for i in drop) for m in g.monomials())
    ]
    return Ideal(I.ring, kept)


# --------------------------------------------------- staircase combinatorics

def _minimal_packed(monos: Iterable[int], guard: int) -> list:
    """Inclusion-minimal packed generators, by ascending degree."""
    minimal: list = []
    for m in sorted(set(monos)):  # the degree field is the most significant
        mg = m | guard
        for g in minimal:
            if (mg - g) & guard == guard:
                break
        else:
            minimal.append(m)
    return minimal


def _lowest_term(gens: list, pk: _Packing):
    """(k, c) with N(t) = c*(1-t)^k + (higher powers of 1-t) for the
    K-polynomial N of the monomial ideal I of packed generators, where
    HS(R/I) = N(t)/(1-t)^n; None for the unit ideal, whose N is 0.  R/I has
    dimension n - k and degree (multiplicity) c > 0.

    Bigatti's pivot recursion ("Computation of Hilbert-Poincare series",
    JPAA 119, 1997): for a monomial p of degree e,
    N(I) = N(I + (p)) + t^e N(I : p).  The pivot is a power of a variable
    shared by the most generators, at the lower median of its exponents;
    both branches strictly enlarge I, so the recursion ends, at m
    pairwise-coprime generators, a regular sequence with
    N = prod (1 - t^deg) = prod(deg) * (1-t)^m + ....  Only lowest terms
    are carried: t^e is 1 plus multiples of 1-t, so it keeps the lowest
    term of N(I : p), and the two lowest terms cannot cancel, since both c
    are positive; the sum's lowest term is the one of lower k, or their sum
    at equal k.  So no step's work grows with the degrees.  ``gens`` are
    minimal generators, so a unit ideal has only 1.
    """
    shift, guard = pk.shift, pk.guard
    if gens and gens[0] >> shift == 0:
        return None
    # SWAR count: adding 2^63 - 1 to a field sets its bit 63 iff it is nonzero
    low, fields, packed = guard - pk.ones, pk.fields, 0
    for g in gens:
        packed += (((g & fields) + low) & guard) >> (_W - 1)
    most = s = 0  # the first variable of the most generators
    for t in range(0, shift, _W):
        count = (packed >> t) & _FIELD
        if count > most:
            most, s = count, t
    if most < 2:  # pairwise coprime
        c = 1
        for g in gens:
            c *= g >> shift
        return len(gens), c
    exps = []
    for g in gens:
        e = (g >> s) & _FIELD
        if e:
            exps.append(e)
    exps.sort()
    e = exps[(len(exps) - 1) // 2]
    # no generator divides the pivot: only a power x^a could, and a minimal
    # x^a alone has the largest exponent of x, above the median
    unit = (1 << s) | (1 << shift)
    plus, colon = [e * unit], []
    for g in gens:
        d = (g >> s) & _FIELD
        if d < e:  # the pivot x^e does not divide g
            plus.append(g)
            colon.append(g - d * unit)
        else:
            colon.append(g - e * unit)
    (k, c), (kc, cc) = _lowest_term(plus, pk), _lowest_term(_minimal_packed(colon, guard), pk)
    if k != kc:
        return min((k, c), (kc, cc))
    return k, c + cc


def _hilbert(gens: list, pk: _Packing) -> tuple:
    """(length, dim, degree) of R/I for the monomial ideal I of minimal packed
    generators, read off the lowest term c*(1-t)^k of its exact K-polynomial
    N (see ``_lowest_term``): R/I has dimension n - k and degree c.  Its
    length, the number of monomials outside I, is finite iff (1-t)^n divides
    N, that is k = n, and then it is the value at t = 1 of N/(1-t)^n, the
    Hilbert series of R/I as a polynomial, which is c.  INFINITE is always a
    verified infinity.  The unit ideal gives (0, -1, 0).
    """
    lowest = _lowest_term(gens, pk)
    if lowest is None:
        return 0, -1, 0
    k, c = lowest
    return (c if k == pk.n else INFINITE), pk.n - k, c


def staircase_count(lead_monos: Sequence[tuple], arity: int):
    """Number of monomials outside the monomial ideal, or INFINITE (see
    ``_hilbert``)."""
    pk = _packing(arity)
    return _hilbert(_minimal_packed(map(pk.pack, lead_monos), pk.guard), pk)[0]


# -------------------------------------------------------------- measurements

def colength(I: Ideal, order: MonomialOrder = DEGREVLEX):
    """Vector-space dimension of (local) ring modulo I, or INFINITE.

    This is the number of standard monomials: monomials outside the
    leading-term ideal of a basis under ``order``, counted exactly from the
    K-polynomial of that ideal (see :meth:`StandardBasis.invariants`).  A
    local order measures the localization at the origin, a global one the
    full quotient ring.
    """
    basis = groebner_basis(I, order) if order.is_global else standard_basis(I)
    return basis.invariants()[0]


def krull_dimension(I: Ideal) -> int:
    """Krull dimension of ring/I from the leading-term ideal; -1 if I = (1)."""
    return groebner_basis(I, DEGREVLEX).invariants()[1]


def hs_multiplicity(I: Ideal) -> int:
    """Hilbert-Samuel multiplicity of the local ring at the origin.

    Computed from the tangent cone: the Hilbert series of the associated
    graded ring is N(t)/(1-t)^n with N the exact K-polynomial of the local
    leading-term ideal, and the multiplicity is Q(1) for Q the quotient of N
    by every (1-t) factor (equivalently the normalized leading Hilbert
    coefficient): the c of N's lowest term c*(1-t)^k.
    """
    if not I.generators:
        raise InputError("multiplicity of the zero ideal is not defined")
    for g in I.generators:
        if g.constant_term() != 0:
            raise OriginNotOnVariety(f"generator {g} does not vanish at the origin")
    _, _, e = standard_basis(I).invariants()
    if e <= 0:
        raise AssertionError("Hilbert-Samuel multiplicity must be positive")
    return e
