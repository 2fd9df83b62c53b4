"""Exact sparse multivariate polynomial arithmetic.

Coefficients are exact rationals or elements of a prime field F_p with
p < 2^31, tagged by the ring's :class:`Domain`.  A :class:`Polynomial` is
immutable: terms are stored as a tuple of (exponent tuple, integer) pairs
sorted in descending degrevlex order, over one positive denominator.  Over Q
the integers are numerators and the denominator is their least common one
(no factor divides it and every numerator), so the stored form is unique
and equality, hashing and printing are canonical; over F_p the integers are
residues in [0, p) and the denominator is 1.  Arithmetic, the calculus,
:meth:`~Polynomial.shift`, :meth:`~Polynomial.evaluate` and the parser run
on these integers and build no Fraction per term; groebner packs them as
they are (:meth:`~Polynomial.numerators`).  The public
:meth:`~Polynomial.terms` yields the coefficients as domain scalars,
Fractions over Q, built on its first call.  All operations are pure
functions and values can be shared freely across threads.

Monomials are plain exponent tuples; variables are positionally indexed and
names are display metadata only.  Exponents are restricted to 32-bit
non-negative integers, overflow raises instead of wrapping.

The expression grammar accepted by :func:`parse_polynomial`::

    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := ident | rational | '(' expr ')'
    ident    := [A-Za-z_][A-Za-z0-9_]*
    rational := int ('/' uint)?
    int      := [0-9]+                  (uint likewise)

Names and digits are ASCII, whitespace is insignificant and multiplication
is always explicit (``2*x``, never ``2x``).  The parser reads the tokens
once, keeping open parentheses on an explicit stack, so nesting depth is not
bounded by recursion.  A term of numbers and powers of variables is one
exponent list and one integer numerator and denominator, updated in place
and merged into one {monomial: integer} dict over the expression's running
common denominator; only parenthesized groups go through
:class:`Polynomial` arithmetic, and the result is built once at the end.
Over Q no numerator or denominator may pass MAX_DIGITS digits: a power of a
number or of a one-term group is checked from bit lengths before it is
taken, and the parsed coefficients, in lowest terms, are checked once at
the end.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm, prod
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    ArityMismatch,
    ExponentOverflow,
    InputError,
    NegativeExponent,
    PolynomialSyntaxError,
    RingMismatch,
    UnknownVariable,
)

MAX_EXPONENT = 2**31 - 1

Monomial = tuple  # exponent vector, one entry per ring variable
Scalar = Union[Fraction, int]


# ----------------------------------------------------------------- monomials

def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(operator.add, a, b))


# ----------------------------------------------------------- monomial orders

@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order tag, (kind, block).  Monomials are compared only in
    groebner's packing, whose ``key(order)`` is the one implementation of
    each order.

    kinds:
      * ``lex``             global, 1 smallest
      * ``degrevlex``       global, 1 smallest (the ring default)
      * ``local_degrevlex`` local, 1 largest (lowest total degree leads)
      * ``elim``            global block order; the variables in ``block``
                            are compared first, by total degree, so they are
                            eliminated by a Groebner basis computation
    """

    kind: str
    block: frozenset = frozenset()

    def __post_init__(self):
        if self.kind not in ("lex", "degrevlex", "local_degrevlex", "elim"):
            raise InputError(f"unknown monomial order kind {self.kind!r}")

    @property
    def is_global(self) -> bool:
        return self.kind != "local_degrevlex"

    @property
    def is_local(self) -> bool:
        return self.kind == "local_degrevlex"


LEX = MonomialOrder("lex")
DEGREVLEX = MonomialOrder("degrevlex")
LOCAL_DEGREVLEX = MonomialOrder("local_degrevlex")


def elimination_order(block: Iterable[int]) -> MonomialOrder:
    """Block order eliminating the given variable indices."""
    return MonomialOrder("elim", frozenset(block))


# ------------------------------------------------------- coefficient domains

def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class Domain:
    """Coefficient domain tag: char 0 is Q, a prime p is F_p.

    F_p values are plain ints in [0, p); rationals are Fractions, which are
    always in lowest terms with positive denominator.
    """

    char: int = 0

    def __post_init__(self):
        if self.char != 0:
            if self.char >= 2**31 or not _is_prime(self.char):
                raise InputError(f"characteristic must be 0 or a prime < 2^31, got {self.char}")

    def coerce(self, value) -> Scalar:
        if self.char == 0:
            return value if isinstance(value, Fraction) else Fraction(value)
        p = self.char
        if isinstance(value, Fraction):
            den = value.denominator % p
            if den == 0:
                raise InputError(f"denominator of {value} is divisible by p = {p}")
            return value.numerator * pow(den, -1, p) % p
        return int(value) % p

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.char if self.char else a + b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.char if self.char else a * b

    def pow(self, a: Scalar, e: int) -> Scalar:
        return pow(a, e, self.char) if self.char else a**e


QQ = Domain(0)


def GF(p: int) -> Domain:
    return Domain(p)


# -------------------------------------------------------------------- rings

_IDENT = "[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_IDENT)


def _valid_ident(name: str) -> bool:
    return isinstance(name, str) and _IDENT_RE.fullmatch(name) is not None


@dataclass(frozen=True)
class Ring:
    """A polynomial ring: variable names plus a coefficient domain."""

    variables: tuple
    domain: Domain = QQ

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        for name in self.variables:
            if not _valid_ident(name):
                raise InputError(f"invalid variable name {name!r}")
        if len(set(self.variables)) != len(self.variables):
            raise InputError("duplicate variable names")

    @property
    def arity(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariable(name) from None

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value) -> "Polynomial":
        c = self.domain.coerce(value)  # a residue is its own numerator, over 1
        return Polynomial(self, {(0,) * self.arity: c.numerator}, _den=c.denominator, _merged=True)

    def variable(self, i: int) -> "Polynomial":
        if not 0 <= i < self.arity:
            raise IndexError(f"variable index {i} out of range")
        exps = tuple(int(j == i) for j in range(self.arity))
        return Polynomial(self, {exps: 1}, _merged=True)

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(text, self)

    def __repr__(self):
        dom = "QQ" if self.domain.char == 0 else f"GF({self.domain.char})"
        return f"{dom}[{','.join(self.variables)}]"


# -------------------------------------------------------------- polynomials

def _degrevlex_descending(term):
    """Ascending sort key that lists terms in descending degrevlex order.

    It is the negated degrevlex key: (-degree, reversed exponents) needs no
    per-exponent negation.
    """
    m = term[0]
    return (-sum(m), m[::-1])


def _validated_terms(ring: Ring, terms) -> tuple:
    """(pairs, den): outside input merged into nonzero (monomial, integer)
    pairs over one denominator, the least one.

    Every exponent is checked and every coefficient coerced into the domain.
    """
    items = terms.items() if isinstance(terms, Mapping) else terms
    merged: dict = {}
    coerce = ring.domain.coerce
    add = ring.domain.add
    arity = ring.arity
    for mono, coeff in items:
        mono = tuple(int(e) for e in mono)
        if len(mono) != arity:
            raise ArityMismatch(f"monomial {mono} has wrong length for {ring!r}")
        for e in mono:
            if e < 0:
                raise InputError(f"negative exponent in monomial {mono}")
            if e > MAX_EXPONENT:
                raise ExponentOverflow(f"exponent {e} exceeds 32-bit range")
        c = coerce(coeff)
        if mono in merged:
            merged[mono] = add(merged[mono], c)
        else:
            merged[mono] = c
    nonzero = [(m, c) for m, c in merged.items() if c != 0]
    den = lcm(*(c.denominator for _, c in nonzero))  # a residue is its own numerator, over 1
    return [(m, c.numerator * (den // c.denominator)) for m, c in nonzero], den


def _check_exponents(monos) -> None:
    for m in monos:
        if m and max(m) > MAX_EXPONENT:
            raise ExponentOverflow(f"exponent {max(m)} exceeds 32-bit range")


class Polynomial:
    """Immutable sparse polynomial over a :class:`Ring`.

    Terms are merged, zero coefficients dropped, and storage is sorted in
    descending degrevlex order, which makes printing canonical.  Each term's
    coefficient is an integer over the one denominator ``_den``: over Q the
    integers and den share no factor, so den is the least common
    denominator and the form is unique; over F_p they are residues and den
    is 1.  :meth:`numerators` reads this form, :meth:`terms` the
    coefficients as domain scalars.

    ``Polynomial(ring, terms)`` validates its input: exponents are checked
    and coefficients coerced into the domain.  Arithmetic, and the ring's
    constants and variables, build their results from integers over ``_den``
    with ``_merged=True``, from a dict of distinct monomials they have merged
    themselves, which skips that validation, and :meth:`derivative` and
    negation with ``_sorted=True``, from a list of nonzero terms already in
    storage order, which also skips the sort; either way a common factor of
    den and the integers is divided out.  Operations that can raise
    exponents check for overflow themselves.  ``_hash`` and ``_scalars``
    (what :meth:`terms` returns) are set on first use.
    """

    __slots__ = ("ring", "_terms", "_den", "_scalars", "_hash")

    def __init__(self, ring: Ring, terms, *, _den: int = 1, _merged: bool = False,
                 _sorted: bool = False):
        if _sorted:
            # nonzero integers with distinct monomials, already in storage order
            cleaned = terms
        else:
            if _merged:
                # a dict of distinct monomials to integers; zeros and order are left
                cleaned = [(m, c) for m, c in terms.items() if c]
            else:
                cleaned, _den = _validated_terms(ring, terms)
            cleaned.sort(key=_degrevlex_descending)
        if _den != 1:
            content = gcd(_den, *(c for _, c in cleaned))
            if content != 1:
                cleaned = [(m, c // content) for m, c in cleaned]
                _den //= content
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", tuple(cleaned))
        object.__setattr__(self, "_den", _den)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    # ---------------------------------------------------------- inspection

    def terms(self):
        """Terms as (monomial, coefficient) pairs, descending degrevlex.

        Over Q each coefficient is a Fraction; they are built on the first
        call and kept.  Over F_p they are residues.
        """
        scalars = getattr(self, "_scalars", None)
        if scalars is None:
            den = self._den
            if self.ring.domain.char:
                scalars = self._terms
            elif den == 1:
                scalars = tuple((m, Fraction(c)) for m, c in self._terms)
            else:
                scalars = tuple((m, Fraction(c, den)) for m, c in self._terms)
            object.__setattr__(self, "_scalars", scalars)
        return scalars

    def numerators(self) -> tuple:
        """(terms, den): the stored (monomial, integer) pairs, descending
        degrevlex, and their one positive denominator.  Over Q a term's
        coefficient is its integer over den, and den is the least common
        denominator; over F_p the integers are residues and den is 1.  No
        Fraction is built."""
        return self._terms, self._den

    def monomials(self) -> tuple:
        """The monomials of the terms, descending degrevlex."""
        return tuple(m for m, _ in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def coefficient(self, mono: Monomial) -> Scalar:
        for m, c in self._terms:
            if m == mono:
                return c if self.ring.domain.char else Fraction(c, self._den)
        return self.ring.domain.coerce(0)

    def constant_term(self) -> Scalar:
        return self.coefficient((0,) * self.ring.arity)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return sum(self._terms[0][0])  # storage is degree-descending

    def degree_in(self, i: int) -> int:
        if not self._terms:
            return -1
        return max(m[i] for m, _ in self._terms)

    # ---------------------------------------------------------- arithmetic

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatch(f"operands in {self.ring!r} and {other.ring!r}")

    def _coerce_operand(self, other):
        if isinstance(other, Polynomial):
            self._check_ring(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return NotImplemented

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign*other for sign 1 or -1, over the least common
        denominator of the two."""
        p = self.ring.domain.char
        d1, d2 = self._den, other._den
        den = d1 if d1 == d2 else lcm(d1, d2)
        a, b = den // d1, sign * (den // d2)
        out = dict(self._terms) if a == 1 else {m: c * a for m, c in self._terms}
        for m, c in other._terms:
            v = out[m] + b * c if m in out else b * c
            out[m] = v % p if p else v
        return Polynomial(self.ring, out, _den=den, _merged=True)

    def __add__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.domain.char
        out = [(m, -c % p if p else -c) for m, c in self._terms]
        return Polynomial(self.ring, out, _den=self._den, _sorted=True)

    def __sub__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce_operand(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        for m1, c1 in self._terms:
            for m2, c2 in other._terms:
                m = mono_mul(m1, m2)
                c = c1 * c2
                out[m] = out[m] + c if m in out else c
        p = self.ring.domain.char
        if p:
            out = {m: c % p for m, c in out.items()}
        if self.total_degree() + other.total_degree() > MAX_EXPONENT:
            _check_exponents(out)
        return Polynomial(self.ring, out, _den=self._den * other._den, _merged=True)

    __rmul__ = __mul__

    def _mul_term(self, mono: Monomial, num: int, den: int) -> "Polynomial":
        """self * (num/den) * x^mono, for an integer num (a residue over
        F_p, where den is 1) and a positive den."""
        p = self.ring.domain.char
        out = {mono_mul(m, mono): c * num % p if p else c * num for m, c in self._terms}
        if self.total_degree() + sum(mono) > MAX_EXPONENT:
            _check_exponents(out)
        return Polynomial(self.ring, out, _den=self._den * den, _merged=True)

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise InputError(f"polynomial exponent must be a non-negative integer, got {e!r}")
        if len(self._terms) == 1 and e:
            m, c = self._terms[0]
            mono = tuple(x * e for x in m)
            _check_exponents((mono,))
            p = self.ring.domain.char
            c = pow(c, e, p) if p else c**e
            return Polynomial(self.ring, {mono: c}, _den=self._den**e, _merged=True)
        if not e:
            return self.ring.one()
        result, base = None, self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -------------------------------------------------------------- calculus

    def derivative(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to variable i.

        Dividing by x_i keeps the order of the terms it applies to, so the
        result is built in storage order, without a sort.
        """
        if not 0 <= i < self.ring.arity:
            raise IndexError(f"variable index {i} out of range for {self.ring!r}")
        p = self.ring.domain.char
        out = []
        for m, c in self._terms:
            e = m[i]
            if e:
                c = c * e % p if p else c * e
                if c:  # e may be a multiple of p
                    out.append((m[:i] + (e - 1,) + m[i + 1 :], c))
        return Polynomial(self.ring, out, _den=self._den, _sorted=True)

    # ----------------------------------------------------------- evaluation

    def evaluate(self, point: Sequence) -> Scalar:
        """Exact value at a point with scalar coordinates.

        Over Q the sum runs in integers, as in :meth:`shift`: with
        x_i = a_i/d_i and D_i the largest exponent of x_i, a term (c/den)*x^m
        adds c * prod_i a_i^m_i d_i^(D_i - m_i) over the common denominator
        den * prod_i d_i^D_i, so the only Fraction built is the value.
        """
        if len(point) != self.ring.arity:
            raise ArityMismatch(
                f"point has {len(point)} coordinates, ring arity is {self.ring.arity}"
            )
        dom = self.ring.domain
        coords = [dom.coerce(x) for x in point]
        terms = self._terms
        if dom.char:
            total = 0
            for m, c in terms:
                v = c
                for x, e in zip(coords, m):
                    if e:
                        v = dom.mul(v, dom.pow(x, e))
                total = dom.add(total, v)
            return total
        if not terms:
            return Fraction(0)
        nums = [x.numerator for x in coords]
        dens = [x.denominator for x in coords]
        tops = [max(col) for col in zip(*(m for m, _ in terms))]
        total = 0
        for m, c in terms:
            v = c
            for a, d, top, e in zip(nums, dens, tops, m):
                if e:
                    v *= a**e
                if d != 1 and e != top:
                    v *= d ** (top - e)
            total += v
        common = self._den
        for d, top in zip(dens, tops):
            common *= d**top
        return Fraction(total, common)

    def substitute(self, values: Sequence["Polynomial"]) -> "Polynomial":
        """Compose: substitute values[i] for variable i.

        All values must share one ring, which becomes the result ring.
        """
        if len(values) != self.ring.arity:
            raise ArityMismatch("substitution needs one value per variable")
        target = values[0].ring
        for v in values:
            if v.ring != target:
                raise RingMismatch("substitution values live in different rings")
        powers: dict = {}

        def power(i: int, e: int) -> Polynomial:
            if (i, e) not in powers:
                powers[(i, e)] = values[i] ** e
            return powers[(i, e)]

        acc = target.zero()
        for m, c in self.terms():
            part = target.constant(c)
            for i, e in enumerate(m):
                if e:
                    part = part * power(i, e)
            acc = acc + part
        return acc

    def shift(self, point: Sequence, box: Sequence[int] | None = None) -> "Polynomial":
        """Translate the point to the origin: substitute x_i -> x_i + P_i.

        One pass over the terms: each expands by the binomial theorem,
        prod_i (x_i + P_i)^e_i = sum_k prod_i C(e_i, k_i) P_i^(e_i - k_i) x^k,
        into one dict, so the only polynomial built is the result.  Over Q
        the expansion runs on the stored integers: with P_i = a_i/d_i, a term
        (c/den)*x^e is c / (den * prod_i d_i^e_i) times
        sum_k prod_i C(e_i, k_i) a_i^(e_i-k_i) d_i^k_i, so every term is
        brought to the one denominator den * lcm_e prod_i d_i^e_i and no
        Fraction is built.

        With a ``box`` only the terms x^k with every k_i < box[i] are kept,
        which is the shifted polynomial modulo (x_i^box[i])_i; the expansion
        stops at those powers, so the truncation costs no second pass.
        """
        ring = self.ring
        if len(point) != ring.arity or box is not None and len(box) != ring.arity:
            raise ArityMismatch("shift point has wrong arity")
        dom = ring.domain
        coords = [dom.coerce(p) for p in point]
        if not any(coords) and box is None:
            return self
        char = dom.char
        nums = [p if char else p.numerator for p in coords]
        dens = [1 if char else p.denominator for p in coords]
        bound = box if box is not None else [MAX_EXPONENT + 1] * ring.arity  # k_i < bound[i]
        rows: dict = {}  # (i, e) -> nonzero (k, C(e, k) a_i^(e-k) d_i^k), k <= e

        def row(i: int, e: int) -> list:
            if (i, e) not in rows:
                a, d = nums[i], dens[i]
                r = [(k, comb(e, k) * a ** (e - k) * d**k) for k in range(min(e + 1, bound[i]))]
                rows[(i, e)] = [(k, b % char) for k, b in r if b % char] if char else r
            return rows[(i, e)]

        terms, common = self._terms, 1
        if any(d != 1 for d in dens):  # over Q, a term's own denominator is prod_i d_i^e_i
            own = [prod(d**e for d, e in zip(dens, m)) for m, _ in terms]
            common = lcm(*own)
            terms = [(m, c * (common // q)) for (m, c), q in zip(terms, own)]
        out: dict = {}
        for m, top in terms:
            partial = [((), top)]  # expansions of leading variables
            for i, e in enumerate(m):
                if e == 0 or nums[i] == 0:
                    partial = [(mono + (e,), v) for mono, v in partial] if e < bound[i] else []
                else:
                    r = row(i, e)
                    partial = [(mono + (k,), v * b) for mono, v in partial for k, b in r]
            for mono, v in partial:
                out[mono] = out.get(mono, 0) + v
        if char:
            out = {mono: v % char for mono, v in out.items()}
        return Polynomial(ring, out, _den=common * self._den, _merged=True)

    def transport(self, target: Ring, index_map: Sequence[int]) -> "Polynomial":
        """Re-home into ``target``, sending old variable i to index_map[i]."""
        out = []
        for m, c in self.terms():
            exps = [0] * target.arity
            for i, e in enumerate(m):
                if e:
                    exps[index_map[i]] = e
            out.append((tuple(exps), c))
        return Polynomial(target, out)

    # ------------------------------------------------------------- identity

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction)):
                return self == self.ring.constant(other)
            return NotImplemented
        return self.ring == other.ring and self._den == other._den and self._terms == other._terms

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self.ring, self._terms, self._den))
            object.__setattr__(self, "_hash", h)
        return h

    # -------------------------------------------------------------- display

    def __str__(self):
        if not self._terms:
            return "0"
        names = self.ring.variables
        rational = self.ring.domain.char == 0
        den = self._den
        pieces = []
        for k, (m, c) in enumerate(self._terms):
            if rational and c < 0:
                sign = "-" if k == 0 else " - "
                c = -c
            else:
                sign = "" if k == 0 else " + "
            g = gcd(c, den)  # c/den in lowest terms, printed as a Fraction prints
            num, d = c // g, den // g
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if factors and num == 1 and d == 1:
                body = "*".join(factors)
            else:
                mag = str(num) if d == 1 else f"{num}/{d}"
                body = "*".join([mag] + factors)
            pieces.append(sign + body)
        return "".join(pieces)

    def __repr__(self):
        return f"<{self} over {self.ring!r}>"


# -------------------------------------------------------------------- parser

_TOKEN = re.compile(rf"[0-9]+|{_IDENT}|[-+*/^()]")
_BAD_CHAR = re.compile(r"[^\s0-9A-Za-z_+\-*/^()]")  # neither whitespace nor in a token


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list:
    """The token strings of ``text``, then "" for the end of input."""
    bad = _BAD_CHAR.search(text)
    if bad:
        raise PolynomialSyntaxError(
            f"unexpected character {bad.group()!r}", _byte_offset(text, bad.start())
        )
    tokens = _TOKEN.findall(text)
    tokens.append("")
    return tokens


# int() reads and str() prints at most this many digits by default; the parser
# refuses any rational coefficient with a longer numerator or denominator
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS


def _token_offset(text: str, k: int) -> int:
    """Byte offset of token k; only errors need it, so it is found again here."""
    starts = [m.start() for m in _TOKEN.finditer(text)]
    return _byte_offset(text, starts[k] if k < len(starts) else len(text))


def parse_polynomial(text: str, ring: Ring) -> Polynomial:
    """Parse an expression into canonical form; printing round-trips."""
    if not isinstance(text, str):
        raise InputError(f"a polynomial must be given as text, got {text!r}")
    tokens = _tokenize(text)
    arity, p = ring.arity, ring.domain.char

    def fail(message: str, k: int):
        raise PolynomialSyntaxError(message, _token_offset(text, k))

    def integer(k: int) -> int:
        try:
            return int(tokens[k])
        except ValueError:  # more digits than int() converts
            fail("integer literal too long", k)

    def power(base: int, e: int, k: int) -> int:
        # the bit lengths are compared first, so a huge power is never taken
        if (abs(base).bit_length() - 1) * e < _TOO_LONG.bit_length():
            value = base**e
            if abs(value) < _TOO_LONG:
                return value
        fail(f"power has more than {MAX_DIGITS} digits", k)

    def residue(value: int, d: int) -> int:
        g = gcd(value, d)
        value, d = value // g, d // g
        if d % p == 0:
            raise InputError(f"denominator of {value}/{d} is divisible by p = {p}")
        return value * pow(d, -1, p) % p

    # The open term is (-1)^neg * num/den * x^exps * group, where group is the
    # product of its parenthesized factors (None when it has none); over F_p,
    # num is a residue and den is 1.  Finished terms are merged into
    # ``terms``, integers over the denominator ``tden`` of the expression.
    # Each open parenthesis pushes the enclosing expression's state.
    stack = []
    terms: dict = {}
    tden, num, den, exps, group, neg = 1, 1, 1, [0] * arity, None, False
    k = 0
    while True:
        tok = tokens[k]
        while tok == "-":
            neg = not neg
            k += 1
            tok = tokens[k]
        if tok == "(":
            stack.append((terms, tden, num, den, exps, group, neg))
            terms, tden, num, den, exps, group, neg = {}, 1, 1, 1, [0] * arity, None, False
            k += 1
            continue
        if tok.isdigit():
            kind, value, d = "n", integer(k), 1
            k += 1
            if tokens[k] == "/":
                if not tokens[k + 1].isdigit():
                    fail("expected integer denominator", k + 1)
                d = integer(k + 1)
                if d == 0:
                    fail("zero denominator", k + 1)
                k += 2
            if p:
                value, d = residue(value, d), 1
        elif tok.isidentifier():
            try:
                kind, value = "v", ring.index(tok)
            except UnknownVariable:
                raise UnknownVariable(tok, _token_offset(text, k)) from None
            k += 1
        else:
            fail(f"unexpected {tok!r}" if tok else "unexpected end of input", k)
        while True:  # the base is read: its power, then what follows the factor
            e = 1
            if tokens[k] == "^":
                tok = tokens[k + 1]
                if tok == "-":
                    raise NegativeExponent(_token_offset(text, k + 1))
                if not tok.isdigit():
                    fail("expected integer exponent", k + 1)
                e = integer(k + 1)
                if e > MAX_EXPONENT:
                    raise ExponentOverflow(f"exponent {e} exceeds 32-bit range")
                k += 2
            if kind == "v":
                e += exps[value]
                if e > MAX_EXPONENT:
                    raise ExponentOverflow(f"exponent {e} exceeds 32-bit range")
                exps[value] = e
            elif kind == "n":
                if p:
                    num = num * pow(value, e, p) % p
                elif e == 1:
                    num, den = num * value, den * d
                else:
                    num, den = num * power(value, e, k - 1), den * power(d, e, k - 1)
            else:
                if e != 1:
                    if not p and len(value._terms) == 1:  # its coefficient's power
                        power(value._terms[0][1], e, k - 1)  # in lowest terms
                        power(value._den, e, k - 1)
                    value = value**e
                group = value if group is None else group * value
            tok = tokens[k]
            if tok == "*":
                k += 1
                break
            # the term ends: it adds integers over d to terms
            if neg:
                num = -num % p if p else -num
            m = tuple(exps)
            if group is None:
                items, d = ((m, num),), den
            else:
                items, d = group._mul_term(m, num, den).numerators()
            if d != tden:  # bring both to the least common denominator
                common = lcm(tden, d)
                if common != tden:
                    for t in terms:
                        terms[t] *= common // tden
                    tden = common
                if d != tden:
                    items = [(t, c * (tden // d)) for t, c in items]
            for t, c in items:
                v = terms[t] + c if t in terms else c
                terms[t] = v % p if p else v
            if tok == "+" or tok == "-":
                num, den, exps, group, neg = 1, 1, [0] * arity, None, tok == "-"
                k += 1
                break
            # the expression ends
            value = Polynomial(ring, terms, _den=tden, _merged=True)
            if not stack:
                if tok:
                    fail(f"unexpected {tok!r}", k)
                if not p:
                    d = value._den
                    for _, c in value._terms:
                        if abs(c) >= _TOO_LONG or d >= _TOO_LONG:
                            g = gcd(c, d)  # the coefficient in lowest terms
                            if abs(c) // g >= _TOO_LONG or d // g >= _TOO_LONG:
                                fail(f"a coefficient has more than {MAX_DIGITS} digits", 0)
                return value
            if tok != ")":
                fail("expected ')'", k)
            k += 1
            kind = "g"
            terms, tden, num, den, exps, group, neg = stack.pop()


def parse_point(text: str, arity: int):
    """Parse comma-separated rational coordinates, e.g. ``0,1/2,-3``, into
    Fractions.

    An integer or a/b in ASCII digits, with an optional leading minus, is
    read with ``int()``; any other spelling goes to ``Fraction(text)``, so
    decimals such as ``0.5`` are exact and signs and underscores are
    accepted as Fraction accepts them.  Exponent notation is refused, since
    ``1e1000000`` would build a million-digit integer.
    """
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != arity:
        raise ArityMismatch(f"expected {arity} coordinates, got {len(parts)}")
    coords = []
    for p in parts:
        if "e" in p or "E" in p:
            raise InputError(f"bad coordinate {p!r}: exponent notation is not accepted")
        num, slash, den = p.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        plain = digits.isascii() and digits.isdigit() and (
            not slash or den.isascii() and den.isdigit()
        )
        try:
            if not plain:
                coords.append(Fraction(p))
            elif slash:
                coords.append(Fraction(int(num), int(den)))
            else:
                coords.append(Fraction(int(num)))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad coordinate {p!r}: {exc}") from None
    return tuple(coords)
