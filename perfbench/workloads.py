"""Seeded job streams for the three workloads, with their expected answers.

Every job is a raw nuchi job spec (what ``nuchi.cli.run_job`` takes) plus an
``expect`` record computed here by closed forms, using only ``exact``.
Streams are made of rounds: each round holds a fixed list of family slots in
a shuffled order, and the parameters that set a job's cost are dealt from
decks (``Draws``), so the cost mix of a job list barely depends on the seed.
No job of a stream fails at this commit: the benchmark's runs must not fail,
and a failed job costs a whole time limit.  The program's known wrong
refusals and blowups are kept in ``probe``, a fixed list of jobs that the
traced run sends after its passes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from math import prod

import exact as E

NAMES = ("x", "y", "z", "w")

# Per-job time limit in seconds for each workload.  Each is more than ten
# times the slowest job seen in calibration runs of that workload (0.06 s to
# 0.3 s); a job still running at its limit is stopped and counted as failed.
LIMITS = {
    "milnor-normal": 5.0,
    "cycle-route": 5.0,
    "batch-cache": 5.0,
}

# Time limit of a probe job.  The probe's blowups run for minutes.
PROBE_LIMIT = 1.0

# Jobs in the list a run sends pass after pass: whole rounds of the stream
# (on batch-cache, 130 jobs hold three rounds of 13 fresh jobs and 91
# repeats), so that every seed's list holds the same family mix.  Each pass
# is about three seconds of work on a 2-vCPU VM, so that a 40 s run makes
# about twelve passes.
JOBS_PER_PASS = {
    "milnor-normal": 6 * 104,
    "cycle-route": 256,
    "batch-cache": 15 * 130,
}


class Draws(random.Random):
    """A seeded random source that can also deal from decks.

    ``deal(key, values)`` draws from a deck of ``values`` without
    replacement and reshuffles it when it runs out, so every stretch of draws
    holds the values in almost exactly their listed proportions.  Streams
    deal the exponents that set a job's cost, which keeps the cost mix of a
    job list nearly the same from seed to seed.
    """

    def deal(self, key, values):
        deck = self.__dict__.setdefault("_decks", {}).setdefault(key, [])
        if not deck:
            deck.extend(values)
            self.shuffle(deck)
        return deck.pop()


def _small_rational(rng, num=(-2, -1, 1, 2), den=(1, 1, 2, 3)):
    return Fraction(rng.choice(num), rng.choice(den))


def _point_text(coords, rng=None) -> str:
    """Comma-separated coordinates; with ``rng`` a respelling (0 as 0/1, spaces)."""
    parts = []
    for c in coords:
        text = str(Fraction(c))
        if rng is not None and text == "0" and rng.random() < 0.7:
            text = "0/1"
        if rng is not None and rng.random() < 0.3:
            text = " " + text + " "
        parts.append(text)
    return ",".join(parts)


def _poly_text(p: dict, names, rng=None) -> str:
    """Canonical text, or with ``rng`` the same polynomial in another spelling."""
    if rng is None:
        return E.to_text(p, names)
    order = list(p)
    rng.shuffle(order)
    return E.to_text(p, names, order=order, spaced=rng.random() < 0.5)


# ------------------------------------------------------- Milnor families

def _brieskorn_pham(rng, n, lo=2, hi=6):
    """sum x_i^a_i plus terms above the Newton boundary; mu = prod(a_i - 1)."""
    a = [rng.deal(("bp", lo, hi), range(lo, hi + 1)) for _ in range(n)]
    f = E.add(*[E.mono([a[i] if j == i else 0 for j in range(n)]) for i in range(n)])
    if rng.random() < 0.5:
        # weight sum(m_i/a_i) > 1 keeps f semi-quasihomogeneous with the same mu.
        # One such term at most: with two, Mora can blow up (the probe holds
        # x^5 + y^6 + z^2 + x*y^2*z - x^4*y*z).
        m = [rng.randint(0, e) for e in a]
        if sum(Fraction(m[i], a[i]) for i in range(n)) > 1 and sum(m) <= max(a) + 1:
            f = E.add(f, E.mono(m, _small_rational(rng)))
    return f, prod(x - 1 for x in a), f"bp{n}"


def _large_bp(rng, a=None, b=None):
    """Two-variable Brieskorn-Pham with large exponents, mu 855 to 1024.

    Its Jacobian's staircase reaches total degree a+b-4; the program refuses
    it once that passes its degree bound of 64 (a+b >= 68), so the stream
    takes a+b = 66 and the probe holds larger ones.
    """
    if a is None:
        a = rng.deal("bp-large", range(20, 34))
        a, b = rng.choice([(a, 66 - a), (66 - a, a)])
    f = E.add(E.mono((a, 0)), E.mono((0, b)))
    return f, (a - 1) * (b - 1), "bp-large"


TPQR_TRIPLES = [
    (p, q, r) for p in range(2, 8) for q in range(p, 8) for r in range(q, 8)
    if Fraction(1, p) + Fraction(1, q) + Fraction(1, r) < 1
]


def _tpqr(rng):
    """x^p + y^q + z^r + xyz with 1/p+1/q+1/r < 1; mu = p+q+r-1."""
    p, q, r = rng.deal("tpqr", TPQR_TRIPLES)
    f = E.add(E.mono((p, 0, 0)), E.mono((0, q, 0)), E.mono((0, 0, r)), E.mono((1, 1, 1)))
    return f, p + q + r - 1, "tpqr"


# A_k is refused for k > 64 (the probe holds those); the stream draws k from
# 1..64, stratified: each block of eight A_k jobs takes one k from each
# eighth of the range.
A_K_BINS = [(lo, lo + 7) for lo in range(1, 65, 8)]


def _a_k(rng, k=None):
    """A_k = x^(k+1) + y^2, mu = k."""
    if k is None:
        k = rng.randint(*rng.deal("a_k", A_K_BINS))
    return E.add(E.mono((k + 1, 0)), E.mono((0, 2))), k, "a_k"


def _embed(p: dict, offset: int, n: int) -> dict:
    return {(0,) * offset + m + (0,) * (n - offset - len(m)): c for m, c in p.items()}


def _thom_sebastiani(rng):
    """f(x) + g(y) in disjoint variables; mu multiplies."""
    shape = rng.deal("ts", [(3, 1), (2, 2), (2, 1, 1), (1, 1, 1)])
    parts = []
    for size in shape:
        if size == 3:
            f, mu, _ = _tpqr(rng)
        elif size == 2:
            f, mu, _ = _brieskorn_pham(rng, 2, 2, 5)
        else:
            k = rng.deal("ts-k", range(1, 9))
            f, mu = E.mono((k + 1,)), k
        parts.append((size, f, mu))
    n = sum(s for s, _, _ in parts)
    total, mu, offset = {}, 1, 0
    for size, f, m in parts:
        total = E.add(total, _embed(f, offset, n))
        mu *= m
        offset += size
    return total, mu, "ts"


# One round of the Milnor workloads, in a shuffled order.
MILNOR_ROUND = (
    [lambda r: _brieskorn_pham(r, 2)] * 12
    + [lambda r: _brieskorn_pham(r, 3)] * 16
    + [lambda r: _brieskorn_pham(r, 4)] * 12
    + [_tpqr] * 24
    + [_thom_sebastiani] * 38
    + [_a_k] * 4
    + [_large_bp] * 2
)


def _unimodular(rng, n, shear: bool):
    """A random unimodular rational matrix: a signed permutation times a
    diagonal of determinant +-1, then if ``shear`` one random elementary
    shear x_i -> x_i + c*x_j."""
    scales = [rng.choice([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]) for _ in range(n - 1)]
    scales.append(1 / prod(scales))
    perm = list(range(n))
    rng.shuffle(perm)
    m = [[scales[i] if j == perm[i] else Fraction(0) for j in range(n)] for i in range(n)]
    if shear:
        i, j = rng.sample(range(n), 2)
        c = rng.choice([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2)])
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


# Coordinates of the points in generic coordinates; they set the cost of
# moving a large A_k back to the origin, so they are dealt.
POINT_COORDINATES = [Fraction(v, d) for v in (-1, 0, 1, 1, 2) for d in (1, 2)]


def _milnor_job(rng, drawn, command, generic: bool, shear: bool):
    """A job for ``drawn`` = (f, mu, family), at the origin or, if
    ``generic``, after a change of coordinates and a translation."""
    f, mu, fam = drawn
    n = len(next(iter(f)))
    names = list(NAMES[:n])
    point = [Fraction(0)] * n
    if generic:
        # g(x) = f(A (x - P)): mu of g at P equals mu of f at 0
        a = _unimodular(rng, n, shear)
        # moving x^(k+1) back from a nonzero coordinate is most of a large
        # family's cost, so theirs are all nonzero
        heavy = fam in ("a_k", "bp-large")
        point = [rng.deal(("coordinate", heavy), [c for c in POINT_COORDINATES if c or not heavy])
                 for _ in range(n)]
        shift = [-v for v in E.mat_vec(a, point)]
        f = E.compose_linear(f, a, shift)
        if shear:
            fam += "-sheared"
    spec = {"command": command, "ring": {"vars": names, "char": 0}, "point": _point_text(point)}
    if command == "milnor":
        spec["f"] = _poly_text(f, names)
        expect = {"fields": {"mu": mu}}
    else:
        spec["critical_locus"] = _poly_text(f, names)
        # nu = (-1)^n (1 - chi(F)) with chi(F) = 1 + (-1)^(n-1) mu, so nu = mu
        expect = {"fields": {"nu": mu, "route": "milnor", "mu": mu}}
    return fam, spec, expect


def _milnor_stream(rng):
    """Rounds of MILNOR_ROUND at the origin, each family's jobs half milnor,
    half behrend."""
    while True:
        slots = list(MILNOR_ROUND)
        rng.shuffle(slots)
        for family in slots:
            drawn = family(rng)
            command = rng.deal(("command", drawn[2]), ("milnor", "behrend"))
            yield _milnor_job(rng, drawn, command, False, False)


# ------------------------------------------------------------- cycle route

# Cycle-route jobs with at most MIX_MAX_POINTS critical points are dealt from
# MIX_SHARE: three in ten are put in mixed coordinates.  Mixed inputs with
# more points run into elimination blowups (about a fifth of those with 6 to
# 18 points pass 1 s, some by minutes; the probe holds some), while none of
# the smaller ones took more than 0.15 s in calibration.
MIX_SHARE = (True,) * 3 + (False,) * 7
MIX_MAX_POINTS = 4

# The shapes of one round of cycle-route jobs: the number of roots of each
# g_i', for n = 1, 2, 2, 3 variables and 1, 2, 2, 3 roots per variable, in
# their exact proportions (256 jobs).
CYCLE_ROUND = [
    counts
    for n, copies in ((1, 16), (2, 8), (3, 1))
    for counts in itertools.product((1, 2, 2, 3), repeat=n)
    for _ in range(copies)
]


def _cycle_job(rng, counts, mix=None, any_exponents=False):
    """f = sum g_i(x_i) with g_i' split over Q, composed with x -> T x.

    The critical points of f(T x) are T^-1 of the grid of roots, each with
    local Milnor number prod(e), so the cycle route must return that cycle.
    """
    n = len(counts)
    names = list(NAMES[:n])
    if mix is None:
        mix = n > 1 and prod(counts) <= MIX_MAX_POINTS and rng.deal("mix", MIX_SHARE)
    root_sets = []
    f: dict = {}
    for i, count in enumerate(counts):
        roots = rng.sample([Fraction(v, d) for v in range(-3, 4) for d in (1, 2) if v % d or d == 1], count)
        # mixed inputs with multiple roots blow up in elimination (the probe
        # holds some), so in mixed coordinates every root is simple
        simple = mix and not any_exponents
        exps = [1 if simple else rng.deal("exponent", (1, 1, 1, 2, 3)) for _ in roots]
        deriv = E.const(rng.choice([1, -1, 2, Fraction(1, 2)]), n)
        for r, e in zip(roots, exps):
            deriv = E.mul(deriv, E.power(E.add(E.var(i, n), E.const(-r, n)), e, n))
        f = E.add(f, E.integrate(deriv, i))
        root_sets.append(list(zip(roots, exps)))
    # unit lower-triangular T: the identity, or in mixed coordinates one
    # random entry below the diagonal
    t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if mix:
        i = rng.randrange(1, n)
        t[i][rng.randrange(i)] = _small_rational(rng)
        f = E.compose_linear(f, t, [0] * n)
    t_inv = E.inverse(t)
    grid = [[]]
    for rs in root_sets:
        grid = [g + [re] for g in grid for re in rs]
    points = []
    for combo in grid:
        coords = E.mat_vec(t_inv, [r for r, _ in combo])
        points.append((coords, prod(e for _, e in combo)))
    cycle = [
        {"coefficient": mu, "kind": "point", "data": {"coordinates": [str(c) for c in coords]}}
        for coords, mu in points
    ]
    if rng.deal("critical", (True, True, True, True, False)):
        coords, nu = rng.choice(points)
        family = "critical"
    else:
        grads = [E.derivative(f, i) for i in range(n)]
        while True:
            coords = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)]
            if any(E.evaluate(g, coords) for g in grads):
                break
        nu, family = 0, "non-critical"
    family = f"{family}-{len(points)}pt" + ("-mixed" if mix else "")
    spec = {
        "command": "nu",
        "ring": {"vars": names, "char": 0},
        "critical_locus": _poly_text(f, names),
        "point": _point_text(coords),
    }
    return family, spec, {"fields": {"nu": nu, "route": "cycle"}, "cycle": cycle}


def _cycle_stream(rng):
    while True:
        slots = list(CYCLE_ROUND)
        rng.shuffle(slots)
        for counts in slots:
            yield _cycle_job(rng, counts)


# ------------------------------------------------------------- batch cache

def _ring(names):
    return {"vars": list(names), "char": 0}


def _fresh_names(rng, n):
    """Variable names with a random suffix, so that a fresh job is a cache
    miss however often its small parameter space has been drawn before.

    Without it the hit ratio would climb through a run, and so depend on how
    many jobs the run got through.
    """
    tag = rng.randrange(10**6)
    return tuple(f"{v}{tag}" for v in NAMES[:n])


def _monomial_ideal(rng):
    """A principal or disjoint-variable monomial ideal, with its cycle."""
    n = rng.randint(2, 4)
    names = _fresh_names(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    r = 1 if rng.random() < 0.4 else rng.randint(2, min(n, 3))
    cuts = sorted(rng.sample(range(1, n), r - 1)) if r > 1 else []
    blocks = [perm[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    # every generator is a monomial; distinct generators use disjoint variables
    gens = []
    for block in blocks:
        used = rng.sample(block, rng.randint(1, len(block)))
        gens.append({i: rng.randint(1, 3) for i in used})
    monos = [E.mono([g.get(i, 0) for i in range(n)]) for g in gens]
    # closed form: one component per choice of a variable from each generator,
    # multiplicity the product of chosen exponents, sign (-1)^(n - r)
    comps = [[]]
    for g in gens:
        comps = [c + [(i, e)] for c in comps for i, e in sorted(g.items())]
    cycle = [
        {
            "coefficient": (-1) ** (n - r) * prod(e for _, e in c),
            "kind": "coordinate-subspace",
            "data": {"zero_variables": [names[i] for i in sorted(i for i, _ in c)]},
        }
        for c in comps
    ]
    return names, monos, cycle


def _job_normal_cone(rng):
    names, monos, _ = _monomial_ideal(rng)
    n = len(names)

    def build(sp=None):
        return {"command": "normal-cone", "ring": _ring(names),
                "ideal": [_poly_text(m, names, sp) for m in monos]}

    return "normal-cone", build, {"fields": {"dimension": n, "ambient_arity": n, "conic": True}}


def _job_cycle_monomial(rng):
    names, monos, cycle = _monomial_ideal(rng)

    def build(sp=None):
        return {"command": "cycle", "class": "monomial", "ring": _ring(names),
                "ideal": [_poly_text(m, names, sp) for m in monos]}

    return "cycle-monomial", build, {"fields": {}, "cycle": cycle}


def _small_poly(rng, n, terms, degree):
    f: dict = {}
    while len(f) < terms:
        m = [0] * n
        for _ in range(rng.randint(2, degree)):
            m[rng.randrange(n)] += 1
        f = E.add(f, E.mono(m, _small_rational(rng)))
    return f


def _job_almost_closed_df(rng):
    n = rng.randint(2, 3)
    names = _fresh_names(rng, n)
    f = _small_poly(rng, n, rng.randint(1, 3), 3)
    form = [E.derivative(f, i) for i in range(n)]

    def build(sp=None):
        return {"command": "almost-closed", "ring": _ring(names),
                "form": [_poly_text(c, names, sp) for c in form]}

    certs = [{"pair": [i + 1, j + 1], "witness": "0"} for i in range(n) for j in range(i + 1, n)]
    return "almost-closed-df", build, {"fields": {"almost_closed": True, "certificates": certs}}


def _job_almost_closed_ydx(rng):
    """c*y^a dx: the defect a*c*y^(a-1) is not in (y^a)."""
    n = rng.randint(2, 3)
    names = _fresh_names(rng, n)
    a, c = rng.randint(1, 3), _small_rational(rng)
    form = [E.mono([0, a] + [0] * (n - 2), c)] + [{}] * (n - 1)
    residue = E.mono([0, a - 1] + [0] * (n - 2), a * c)

    def build(sp=None):
        return {"command": "almost-closed", "ring": _ring(names),
                "form": [_poly_text(p, names, sp) for p in form]}

    return "almost-closed-ydx", build, {"fields": {
        "almost_closed": False, "failing_pair": [1, 2], "normal_form": E.to_text(residue, names)}}


def _job_arc_check(rng):
    """df for f = c*x^p*(1 + y) along x = b*t^k + u*t^(k+1), y = u + v*t, ...

    The arc's base point (0, u, v, ...) lies on the critical locus x = 0, the
    components of df vanish to order (p-1)*k, and the obstruction is zero
    because df is closed.
    """
    n = rng.randint(2, 3)
    names = _fresh_names(rng, n)
    p, k = rng.choice([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1)])
    c, b = _small_rational(rng), _small_rational(rng)
    f = E.mul(E.mono([p] + [0] * (n - 1), c), E.add(E.const(1, n), E.var(1, n)))
    form = [E.derivative(f, i) for i in range(n)]
    lines = [f"{names[0]} = {b}*t^{k} + u*t^{k + 1}", f"{names[1]} = u + v*t"]
    if n == 3:
        lines.append(f"{names[2]} = v - u*t^2")
    order = (p - 1) * k

    def build(sp=None):
        body = list(lines)
        if sp is not None:
            sp.shuffle(body)
        text = "\n".join(["order: 8"] + body)
        if sp is not None and sp.random() < 0.5:
            text = text.replace(" = ", "=") + "\n"
        return {"command": "arc-check", "ring": _ring(names),
                "form": [_poly_text(comp, names, sp) for comp in form], "arc": text}

    return "arc-check", build, {"fields": {
        "vanishing_order": order, "truncation_order": 8, "m": order, "obstruction_is_zero": True}}


def _job_weighted_euler(rng):
    count = rng.randint(1, 5)
    tag = rng.randrange(10**6)
    strata = []
    for i in range(count):
        entry = {"label": f"S{i}_{tag}", "chi": rng.randint(-4, 6), "dim": rng.randint(0, 3), "how": "declared"}
        if rng.random() < 0.2:
            entry["heuristic"] = True
        strata.append(entry)
    func = {s["label"]: rng.randint(-3, 3) for s in strata}
    value = sum(func[s["label"]] * s["chi"] for s in strata)
    heuristic = any(s.get("heuristic") for s in strata)

    def build(sp=None):
        keys = list(func)
        if sp is not None:
            sp.shuffle(keys)
        return {"command": "weighted-euler", "strata": [dict(s) for s in strata],
                "function": {k: func[k] for k in keys}}

    return "weighted-euler", build, {"fields": {"weighted_euler": value, "heuristic_inputs": heuristic}}


def plane_partitions(n_max: int) -> list:
    """Plane partition counts by n*a(n) = sum_k sigma_2(k) a(n-k)."""
    sigma2 = [0] + [sum(d * d for d in range(1, k + 1) if k % d == 0) for k in range(1, n_max + 1)]
    a = [1]
    for n in range(1, n_max + 1):
        a.append(sum(sigma2[k] * a[n - k] for k in range(1, n + 1)) // n)
    return a


def _job_hilb_demo(rng):
    n_max = rng.randint(1, 8)
    counts = plane_partitions(n_max)
    table = [{"n": n, "count": c, "signed": (-1) ** n * c} for n, c in enumerate(counts)]

    def build(sp=None):
        return {"command": "hilb-demo", "n_max": n_max}

    return "hilb-demo", build, {"fields": {"table": table, "macmahon": counts, "match": True}}


def _job_chi_oracle(rng):
    """Varieties with a known count N(q); chi is read off as N(1)."""
    n = rng.randint(2, 3)
    names = _fresh_names(rng, n)
    if rng.random() < 0.5:
        # x*y = c (c != 0): N(q) = (q - 1) q^(n-2)
        c = rng.choice([1, -1])
        ideal = E.add(E.mono([1, 1] + [0] * (n - 2)), E.const(-c, n))
        fit = [0] * (n - 2) + [-1, 1]
    else:
        # x_1 * ... * x_k = 0: N(q) = q^n - (q - 1)^k q^(n-k)
        k = rng.randint(1, n)
        ideal = E.mono([1] * k + [0] * (n - k))
        poly = E.add(E.mono([n]), E.scale(E.mul(E.power(E.add(E.mono([1]), E.const(-1, 1)), k, 1),
                                                E.mono([n - k])), -1))
        fit = [int(poly.get((d,), 0)) for d in range(n + 1)]
        while fit and fit[-1] == 0:
            fit.pop()
    primes = sorted(rng.sample([2, 3, 5, 7], n + 1))
    counts = [[q, sum(f * q**d for d, f in enumerate(fit))] for q in primes]

    def build(sp=None):
        return {"command": "chi-oracle", "ring": _ring(names),
                "ideal": [_poly_text(ideal, names, sp)],
                "primes": ",".join(map(str, primes)) if sp is not None else primes}

    return "chi-oracle", build, {"fields": {"chi": sum(fit), "flag": "heuristic",
                                            "counts": counts, "fit": fit}}


def _job_behrend_small(rng):
    if rng.deal("behrend-route", ("milnor", "smooth")) == "milnor":
        f, mu, _ = _brieskorn_pham(rng, 2, 2, 4)
        names = _fresh_names(rng, 2)

        def build(sp=None):
            return {"command": "behrend", "ring": _ring(names),
                    "critical_locus": _poly_text(f, names, sp), "point": _point_text([0, 0], sp)}

        return "behrend-milnor", build, {"fields": {"nu": mu, "route": "milnor", "mu": mu}}
    # a smooth hypersurface x_1 = c through a point: nu = (-1)^(n-1)
    n = rng.randint(2, 3)
    names = _fresh_names(rng, n)
    c = rng.randint(-2, 2)
    point = [c] + [rng.randint(-2, 2) for _ in range(n - 1)]
    ideal = E.add(E.var(0, n), E.const(-c, n))

    def build(sp=None):
        return {"command": "behrend", "ring": _ring(names),
                "ideal": [_poly_text(ideal, names, sp)], "point": _point_text(point, sp)}

    return "behrend-smooth", build, {"fields": {"nu": (-1) ** (n - 1), "route": "smooth", "dim": n - 1}}


BATCH_ROUND = [
    _job_normal_cone, _job_normal_cone,
    _job_cycle_monomial, _job_cycle_monomial,
    _job_almost_closed_df, _job_almost_closed_ydx,
    _job_arc_check, _job_arc_check,
    _job_weighted_euler,
    _job_hilb_demo,
    _job_chi_oracle,
    _job_behrend_small, _job_behrend_small,
]


def _batch_stream(rng):
    """Fresh jobs interleaved with respelled repeats of earlier fresh jobs.

    Seven jobs in ten are repeats, dealt, and each repeats an earlier job of
    a round slot dealt in turn, so a list of a multiple of 130 jobs holds
    hits and misses of each family in fixed numbers.  Latencies cluster by
    family and by hit or miss; with this mix the median falls inside the
    cache hits of normal-cone and cycle jobs and the 90th percentile inside
    their misses, each some 60 jobs in 1950 from a neighbouring cluster.  So
    p50 follows the hit path and p90 the miss path.  (With two in five
    repeats the median fell between the misses of one family and the hits of
    another, 35% apart, and flipped between them from run to run.)  A
    repeat's ``expect`` names the job it repeats, so its payload bytes can be
    compared with that job's.
    """
    fresh: dict = {}  # round slot -> earlier fresh jobs from it
    slots: list = []
    for idx in itertools.count():
        if rng.deal("repeat", (True,) * 7 + (False,) * 3):
            earlier = fresh.get(rng.deal("repeat-slot", range(len(BATCH_ROUND))))
            if earlier:
                first, family, build, expect = rng.choice(earlier)
                yield family + "/repeat", build(rng), dict(expect, repeat_of=first)
                continue
        if not slots:
            slots = list(range(len(BATCH_ROUND)))
            rng.shuffle(slots)
        slot = slots.pop()
        family, build, expect = BATCH_ROUND[slot](rng)
        fresh.setdefault(slot, []).append((idx, family, build, expect))
        yield family, build(), expect


# ---------------------------------------------------------------- streams

def stream(workload: str, seed: int):
    """The endless job stream of a workload: (family, spec, expect) triples.

    spec and expect are JSON texts, which keeps a long stream small in memory
    so that peak RSS is mostly the program's own.
    """
    rng = Draws(f"{workload}:{seed}")
    if workload == "milnor-normal":
        jobs = _milnor_stream(rng)
    elif workload == "cycle-route":
        jobs = _cycle_stream(rng)
    elif workload == "batch-cache":
        jobs = _batch_stream(rng)
    else:
        raise KeyError(workload)
    return ((fam, _compact(spec), _compact(expect)) for fam, spec, expect in jobs)


def _two_term_bp():
    """x^5 + y^6 + z^2 with two terms above its Newton boundary; mu = 20."""
    f = E.add(E.mono((5, 0, 0)), E.mono((0, 6, 0)), E.mono((0, 0, 2)),
              E.mono((1, 2, 1)), E.mono((4, 1, 1), -1))
    return f, 20, "bp3-two-terms"


# Seeds of the sheared T_pqr and mixed cycle-route probe jobs: each ran past
# 10 s in calibration.
PROBE_SHEARED_TPQR = (0, 5)
PROBE_MIXED_CYCLE = (0, 1, 2)


def probe(workload: str) -> list:
    """The program's known wrong refusals and blowups on a workload's
    families, as a fixed list of (family, spec, expect) JSON triples.

    They are kept out of the timed streams, where each would cost a random
    share of a run, and sent once by the traced run, which reports how many
    still fail and where their time limit found them.  A job the program
    answers is checked like any other.
    """
    jobs = []
    if workload == "milnor-normal":
        # the same jobs at the origin and in generic coordinates
        for generic in (False, True):
            rng = Draws(f"probe:milnor:{generic}")
            drawn = [_a_k(rng, k=k) for k in (65, 100, 150, 200)]
            drawn += [_large_bp(rng, 34, 34), _large_bp(rng, 40, 33), _two_term_bp()]
            for i, d in enumerate(drawn):
                jobs.append(_milnor_job(rng, d, ("milnor", "behrend")[i % 2], generic, False))
        for i in PROBE_SHEARED_TPQR:
            rng = Draws(f"probe:tpqr:{i}")
            jobs.append(_milnor_job(rng, _tpqr(rng), "milnor", True, True))
    elif workload == "cycle-route":
        for i in PROBE_MIXED_CYCLE:
            rng = Draws(f"probe:cycle:{i}")
            counts = rng.choice([(3, 2), (2, 3), (3, 3), (2, 2, 2)])
            jobs.append(_cycle_job(rng, counts, mix=True, any_exponents=True))
    return [(fam, _compact(spec), _compact(expect)) for fam, spec, expect in jobs]


def make_stream(workload: str, seed: int, length: int) -> list:
    """The first ``length`` jobs of the workload's stream."""
    return list(itertools.islice(stream(workload, seed), length))


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def digest(jobs) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(("\t".join(job) + "\n").encode("utf-8"))
    return h.hexdigest()


# ------------------------------------------------------------------ checks

def _cycle_terms(terms):
    return sorted(json.dumps(t, sort_keys=True) for t in terms)


def check(payload: dict, expect: dict) -> str | None:
    """None when the payload matches the reference, else what differs."""
    for key, want in expect["fields"].items():
        if payload.get(key) != want:
            return f"{key}: expected {want!r}, got {payload.get(key)!r}"
    if "cycle" in expect:
        got = payload.get("cycle")
        if got is None or _cycle_terms(got) != _cycle_terms(expect["cycle"]):
            return f"cycle: expected {expect['cycle']!r}, got {got!r}"
    return None
