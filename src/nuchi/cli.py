"""Command line surface.

JSON is the sole machine output (one envelope per job on stdout); human
tables go to stderr behind ``--pretty``.  Exit codes: 0 success, 1 malformed
input, 2 mathematical refusal (the checker determined the answer is "no",
e.g. a non-critical point or irrational support).  A batch runs every job
and exits with 1 if any job was malformed, else 2 if any was refused.

Results are cached content-addressed under a digest of the canonical job
serialization, the engine version and the package sources; ``--no-cache``
disables the cache and ``--cache-dir`` / the NUCHI_CACHE_DIR environment
variable relocate it.  Payloads are byte-identical across runs and across
cache hits and misses.

Job specifications (also accepted in batch via ``--jobs file.json``, an
array of specs) use the schemas documented in the README.  Each job's inputs
are parsed once; the normalized spec keeps the parsed objects, and their
canonical printing is hashed, so equivalent spellings share cache entries.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from . import __version__
from .arcs import (
    INFINITE_WITHIN_TRUNCATION,
    ArcSeries,
    _compose_components,
    _obstruction,
    _vanishing_order,
    parse_arc,
)
from .cycles import (
    MONOMIAL,
    Presentation,
    REGULAR_SEQUENCE,
    SMOOTH,
    distinguished_cycle,
    euler_obstruction,
    normal_cone_ideal,
    presentation_from_critical_locus,
)
from .errors import InputError, NonIsolatedCriticalPoint, NotCriticalPoint, Refusal
from .euler import (
    ConstructibleFunction,
    Stratification,
    as_integer,
    has_heuristic_inputs,
    hilbert_demo,
    point_count_chi,
    weighted_euler,
)
from .groebner import Ideal, Infinite
from .poly import GF, QQ, Polynomial, Ring, parse_point
from .singular import (
    NOT_CRITICAL,
    OneForm,
    behrend_report,
    format_point,
    is_almost_closed,
    milnor_number,
)

COMMANDS = (
    "milnor",
    "behrend",
    "almost-closed",
    "arc-check",
    "normal-cone",
    "cycle",
    "nu",
    "weighted-euler",
    "chi-oracle",
    "hilb-demo",
)

MILNOR_FIBRE_NOTE = (
    "imported fact: chi(Milnor fibre) = 1 + (-1)^(n-1)*mu for isolated "
    "critical points (classical Milnor theory)"
)
HEURISTIC_NOTE = "heuristic: finite-field point counts fitted by an integer polynomial"


# ----------------------------------------------------------- normalization

def normalize_spec(raw: dict) -> dict:
    """Validate a raw job dict and parse every input once.

    The spec keeps the parsed objects: the ``Ring``, ``Polynomial``s, the
    point as a tuple of ``Fraction``s and the ``ArcSeries``.  Any malformed
    field raises ``InputError``.
    """
    if "command" not in raw:
        raise InputError("job is missing the command field")
    command = raw["command"]
    if command not in COMMANDS:
        raise InputError(f"unknown command {command!r}")
    spec: dict = {"command": command}

    if command not in ("weighted-euler", "hilb-demo"):
        ring = spec["ring"] = _ring(raw)

    def polys(field):
        exprs = _require(raw, field)
        if not isinstance(exprs, (list, tuple)):
            raise InputError(f"{field!r} must be an array of polynomials")
        return [ring.parse(e) for e in exprs]

    def form():
        components = polys("form")
        if len(components) != ring.arity:
            raise InputError("a 1-form needs one component per ring variable")
        return components

    if command == "milnor":
        spec["f"] = ring.parse(_require(raw, "f"))
        spec["point"] = _point(_require(raw, "point"), ring)
    elif command == "behrend":
        if "critical_locus" in raw:
            spec["critical_locus"] = ring.parse(raw["critical_locus"])
        elif "ideal" in raw:
            spec["ideal"] = polys("ideal")
        else:
            raise InputError("behrend needs critical_locus or ideal")
        spec["point"] = _point(_require(raw, "point"), ring)
    elif command == "almost-closed":
        spec["form"] = form()
    elif command == "arc-check":
        spec["form"] = form()
        arc = _require(raw, "arc")
        if not isinstance(arc, str):
            raise InputError("'arc' must be arc text")
        spec["arc"] = parse_arc(arc, ring)
        if raw.get("m") is not None:
            spec["m"] = as_integer(raw["m"], "m")
    elif command == "normal-cone":
        spec["ideal"] = polys("ideal")
    elif command == "cycle":
        spec["class"] = _presentation_class(_require(raw, "class"))
        spec["ideal"] = polys("ideal")
    elif command == "nu":
        spec["point"] = _point(_require(raw, "point"), ring)
        if "critical_locus" in raw:
            spec["critical_locus"] = ring.parse(raw["critical_locus"])
        elif "ideal" in raw and "class" in raw:
            spec["class"] = _presentation_class(raw["class"])
            spec["ideal"] = polys("ideal")
        else:
            raise InputError("nu needs critical_locus, or class plus ideal")
    elif command == "weighted-euler":
        strata = Stratification.from_json(_require(raw, "strata"))
        spec["strata"] = [
            {"label": s.label, "chi": s.chi, "dim": s.dim, "how": s.how,
             "heuristic": s.heuristic}
            for s in strata.strata
        ]
        spec["function"] = ConstructibleFunction(_require(raw, "function")).as_dict()
    elif command == "chi-oracle":
        spec["ideal"] = polys("ideal")
        primes = _require(raw, "primes")
        if isinstance(primes, str):
            primes = [p for p in primes.split(",") if p.strip()]
        elif not isinstance(primes, (list, tuple)):
            raise InputError("'primes' must be an array or comma-separated text")
        spec["primes"] = [as_integer(p, "primes") for p in primes]
    elif command == "hilb-demo":
        spec["n_max"] = as_integer(_require(raw, "n_max"), "n_max")
    return spec


def _require(raw: dict, field: str):
    if raw.get(field) is None:
        raise InputError(f"command {raw.get('command')} requires {field!r}")
    return raw[field]


def _ring(raw: dict) -> Ring:
    ring = raw.get("ring")
    if not isinstance(ring, dict) or not isinstance(ring.get("vars"), (list, tuple)):
        raise InputError("job needs a ring declaration before any polynomial input")
    domain = GF(as_integer(ring["char"], "char")) if ring.get("char") else QQ
    return Ring(tuple(ring["vars"]), domain)


def _point(value, ring: Ring) -> tuple:
    if isinstance(value, (list, tuple)):
        # one entry per variable, so a text entry cannot hide a comma
        if len(value) != ring.arity:
            raise InputError(f"expected {ring.arity} coordinates, got {len(value)}")
        for v in value:
            if isinstance(v, bool) or not isinstance(v, (int, float, str)):
                raise InputError(
                    f"a point coordinate must be a number or text, got {type(v).__name__} {v!r}"
                )
        # floats are written out in full: the text form refuses exponents
        value = ",".join(
            format(Decimal(repr(v)), "f") if isinstance(v, float) else str(v) for v in value
        )
    elif not isinstance(value, str):
        raise InputError("'point' must be comma-separated text or an array of coordinates")
    return parse_point(value, ring.arity)


def _presentation_class(name: str) -> str:
    name = str(name)
    if name not in (SMOOTH, REGULAR_SEQUENCE, MONOMIAL):
        raise InputError(f"unknown presentation class {name!r}")
    return name


# --------------------------------------------------------------- execution

def execute_spec(spec: dict):
    """Run a normalized spec; returns (payload, provenance notes)."""
    command = spec["command"]
    handler = _HANDLERS[command]
    return handler(spec)


def _handle_milnor(spec):
    point = spec["point"]
    mu = milnor_number(spec["f"], point)
    if mu is NOT_CRITICAL:
        raise NotCriticalPoint(f"df does not vanish at {format_point(point)}")
    if isinstance(mu, Infinite):
        raise NonIsolatedCriticalPoint("critical point is not isolated")
    return {"mu": mu}, []


def _handle_behrend(spec):
    if "critical_locus" in spec:
        presentation = spec["critical_locus"]
    else:
        presentation = Ideal(spec["ring"], spec["ideal"])
    report = behrend_report(presentation, spec["point"])
    if report.route == "milnor":
        return {"nu": report.nu, "route": "milnor", "mu": report.mu}, [MILNOR_FIBRE_NOTE]
    return {"nu": report.nu, "route": "smooth", "dim": report.local_dim}, []


def _handle_almost_closed(spec):
    check = is_almost_closed(OneForm(spec["ring"], spec["form"]))
    if check.almost_closed:
        payload = {
            "almost_closed": True,
            "certificates": [
                {"pair": [i + 1, j + 1], "witness": str(w)}
                for (i, j), w in check.certificates
            ],
        }
    else:
        i, j = check.failing_pair
        payload = {
            "almost_closed": False,
            "failing_pair": [i + 1, j + 1],
            "normal_form": str(check.failing_normal_form),
        }
    return payload, []


def _handle_arc_check(spec):
    omega = OneForm(spec["ring"], spec["form"])
    arc = spec["arc"]
    # arc_vanishing_order and lagrangian_obstruction on one composition
    composed = _compose_components(omega, arc)
    order = _vanishing_order(composed)
    infinite = order is INFINITE_WITHIN_TRUNCATION
    payload = {
        "vanishing_order": "INFINITE_WITHIN_TRUNCATION" if infinite else order,
        "truncation_order": arc.order,
    }
    m = spec.get("m")
    if m is None and not infinite and order >= 1:
        m = order
    if m is not None:
        form = _obstruction(composed, arc, m)
        payload["m"] = m
        payload["obstruction"] = form.to_payload()
        payload["obstruction_is_zero"] = form.is_zero()
    return payload, []


def _handle_normal_cone(spec):
    report = normal_cone_ideal(Ideal(spec["ring"], spec["ideal"]))
    doubled = report.ideal.ring
    payload = {
        "ring": list(doubled.variables),
        "fiber_variables": [doubled.variables[i] for i in report.fiber_indices],
        "generators": [str(g) for g in report.ideal.generators],
        "dimension": report.dimension,
        "ambient_arity": report.base_arity,
        "conic": report.conic,
        "components": None
        if report.components is None
        else [
            {
                "multiplicity": mult,
                "zero_variables": [doubled.variables[i] for i in sorted(prime)],
            }
            for mult, prime in report.components
        ],
    }
    return payload, []


def _handle_cycle(spec):
    cycle = distinguished_cycle(Presentation(spec["class"], Ideal(spec["ring"], spec["ideal"])))
    return {"cycle": cycle.to_payload()}, []


def _handle_nu(spec):
    if "critical_locus" in spec:
        presentation = presentation_from_critical_locus(spec["critical_locus"])
    else:
        presentation = Presentation(spec["class"], Ideal(spec["ring"], spec["ideal"]))
    cycle = distinguished_cycle(presentation)
    value = euler_obstruction(cycle, spec["point"])
    return {"nu": value, "route": "cycle", "cycle": cycle.to_payload()}, []


def _handle_weighted_euler(spec):
    strat = Stratification.from_json(spec["strata"])
    func = ConstructibleFunction(spec["function"])
    value = weighted_euler(strat, func)
    heuristic = has_heuristic_inputs(strat)
    notes = [HEURISTIC_NOTE] if heuristic else []
    return {"weighted_euler": value, "heuristic_inputs": heuristic}, notes


def _handle_chi_oracle(spec):
    result = point_count_chi(Ideal(spec["ring"], spec["ideal"]), spec["primes"])
    payload = {
        "chi": result.chi,
        "flag": result.flag,
        "counts": [[q, c] for q, c in result.counts],
        "fit": list(result.fit),
    }
    return payload, [HEURISTIC_NOTE]


def _handle_hilb_demo(spec):
    demo = hilbert_demo(spec["n_max"])
    payload = {
        "table": [{"n": n, "count": c, "signed": s} for n, c, s in demo.rows],
        "macmahon": list(demo.macmahon),
        "match": demo.match,
        "weight_note": demo.weight_note,
    }
    return payload, [demo.weight_note]


_HANDLERS = {
    "milnor": _handle_milnor,
    "behrend": _handle_behrend,
    "almost-closed": _handle_almost_closed,
    "arc-check": _handle_arc_check,
    "normal-cone": _handle_normal_cone,
    "cycle": _handle_cycle,
    "nu": _handle_nu,
    "weighted-euler": _handle_weighted_euler,
    "chi-oracle": _handle_chi_oracle,
    "hilb-demo": _handle_hilb_demo,
}


# ------------------------------------------------------------------- cache

def _canonical(obj):
    """The JSON form of a parsed object in a spec: what its input normalizes to."""
    if isinstance(obj, (Polynomial, Fraction)):
        return str(obj)
    if isinstance(obj, Ring):
        return {"vars": list(obj.variables), "char": obj.domain.char}
    if isinstance(obj, ArcSeries):
        return {
            "order": obj.order,
            "params": list(obj.param_ring.variables),
            "components": [str(s) for s in obj.components],
        }
    raise TypeError(f"no canonical JSON form for {type(obj).__name__}")


def canonical_spec_json(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True, separators=(",", ":"), default=_canonical)


@functools.lru_cache(maxsize=None)
def _source_digest() -> str:
    """SHA-256 over the package's source files, read on the first cache lookup."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def cache_key(spec: dict) -> str:
    blob = "|".join((canonical_spec_json(spec), __version__, _source_digest()))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    env = os.environ.get("NUCHI_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "nuchi"


def _cache_load(path: Path):
    """The envelope stored at path, or None when the entry cannot be read or
    decoded or is not this version's envelope.  A missing entry, one removed
    by a concurrent clean-up included, raises FileNotFoundError from the one
    ``open``, and the caller takes that as a miss."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        raise
    except (OSError, ValueError):  # ValueError covers JSON and UTF-8 decoding
        return None
    if (
        not isinstance(stored, dict)
        or stored.get("engine_version") != __version__
        or "payload" not in stored
        or "command" not in stored
    ):
        return None
    return stored


def _cache_store(path: Path, envelope: dict) -> None:
    # encoded before any file exists, so an envelope that cannot be encoded
    # leaves nothing behind; dumps runs the C encoder, which dump does not
    text = json.dumps(envelope, sort_keys=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    # a temp file per writer, so concurrent writers of one key never share it
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def run_job(raw: dict, use_cache: bool = True, cache_dir: Path | None = None) -> dict:
    """Normalize, maybe serve from cache, execute, and wrap in an envelope."""
    spec = normalize_spec(raw)
    if use_cache:
        entry = (cache_dir or default_cache_dir()) / f"{cache_key(spec)}.json"
        start = time.monotonic()
        try:
            stored = _cache_load(entry)
        except FileNotFoundError:
            pass  # a miss
        else:
            if stored is not None:
                stored = dict(stored)
                stored["cache"] = "hit"
                stored["timing_ms"] = round((time.monotonic() - start) * 1000.0, 3)
                return stored
            print(
                f"warning: corrupt cache entry {entry}, recomputing",
                file=sys.stderr,
            )
    start = time.monotonic()
    payload, provenance = execute_spec(spec)
    elapsed = (time.monotonic() - start) * 1000.0
    stored = {
        "command": spec["command"],
        "payload": payload,
        "provenance": sorted(set(provenance)),
        "engine_version": __version__,
    }
    if use_cache:
        _cache_store(entry, stored)
    envelope = dict(stored)
    envelope["cache"] = "miss" if use_cache else "off"
    envelope["timing_ms"] = round(elapsed, 3)
    return envelope


# ------------------------------------------------------------------ output

def _emit(envelope: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(envelope, sort_keys=True, indent=2))
    else:
        print(json.dumps(envelope, sort_keys=True, separators=(",", ":")))


def _pretty_tables(envelope: dict) -> None:
    payload = envelope.get("payload") or {}
    if "table" in payload:
        print("  n  count  signed", file=sys.stderr)
        for row in payload["table"]:
            print(f"{row['n']:>3}  {row['count']:>5}  {row['signed']:>6}", file=sys.stderr)


# ----------------------------------------------------------------- argparse

class _Parser(argparse.ArgumentParser):
    """Malformed arguments exit 1, as other malformed input does: argparse's
    own code, 2, is the one a verified mathematical refusal exits with.
    Subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_ring_arguments(p):
    p.add_argument("--ring", required=True, help="comma-separated variable names")
    p.add_argument("--char", type=int, default=0, help="0 for Q, or a prime p for F_p")


def _add_global_arguments(p, top: bool):
    # on subparsers the defaults are suppressed so they cannot clobber
    # values already parsed from before the subcommand
    kw = {} if top else {"default": argparse.SUPPRESS}
    p.add_argument("--pretty", action="store_true",
                   help="indent JSON, tables to stderr", **kw)
    p.add_argument("--no-cache", action="store_true", **kw)
    p.add_argument("--cache-dir", **({"default": None} if top else kw))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nuchi",
        description="exact Milnor numbers, cone cycles and weighted Euler characteristics",
    )
    parser.add_argument("--jobs", help="batch mode: JSON file with an array of job specs")
    _add_global_arguments(parser, top=True)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("milnor", help="Milnor number of f at a point")
    _add_ring_arguments(p)
    p.add_argument("--f", required=True)
    p.add_argument("--point", required=True)
    _add_global_arguments(p, top=False)

    p = sub.add_parser("behrend", help="nu at a point (Milnor or smooth route)")
    _add_ring_arguments(p)
    p.add_argument("--critical-locus", dest="critical_locus")
    p.add_argument("--ideal", nargs="+")
    p.add_argument("--point", required=True)
    _add_global_arguments(p, top=False)

    p = sub.add_parser("almost-closed", help="test d(omega) in I*Omega^2")
    _add_ring_arguments(p)
    p.add_argument("--form", nargs="+", required=True, help="components f_1 .. f_n")
    _add_global_arguments(p, top=False)

    p = sub.add_parser("arc-check", help="vanishing order and obstruction along an arc")
    _add_ring_arguments(p)
    p.add_argument("--form", nargs="+", required=True)
    p.add_argument("--arc", help="arc file (order header plus assignments)")
    p.add_argument("--arc-text", dest="arc_text", help="inline arc text")
    p.add_argument("--m", type=int, default=None)
    _add_global_arguments(p, top=False)

    p = sub.add_parser("normal-cone", help="normal cone ideal via Rees elimination")
    _add_ring_arguments(p)
    p.add_argument("--ideal", nargs="+", required=True)
    _add_global_arguments(p, top=False)

    p = sub.add_parser("cycle", help="distinguished cycle of a presentation")
    _add_ring_arguments(p)
    p.add_argument("--class", dest="pres_class", required=True,
                   choices=[SMOOTH, REGULAR_SEQUENCE, MONOMIAL])
    p.add_argument("--ideal", nargs="+", required=True)
    _add_global_arguments(p, top=False)

    p = sub.add_parser("nu", help="nu via the cycle route")
    _add_ring_arguments(p)
    p.add_argument("--point", required=True)
    p.add_argument("--critical-locus", dest="critical_locus")
    p.add_argument("--class", dest="pres_class",
                   choices=[SMOOTH, REGULAR_SEQUENCE, MONOMIAL])
    p.add_argument("--ideal", nargs="+")
    _add_global_arguments(p, top=False)

    p = sub.add_parser("weighted-euler", help="weighted Euler characteristic from files")
    p.add_argument("--strata", required=True, help="JSON array of {label, chi, dim, how}")
    p.add_argument("--function", required=True, help="JSON object label -> integer")
    _add_global_arguments(p, top=False)

    p = sub.add_parser("chi-oracle", help="heuristic chi from finite-field point counts")
    _add_ring_arguments(p)
    p.add_argument("--ideal", nargs="+", required=True)
    p.add_argument("--primes", required=True, help="comma-separated primes, each <= 16")
    _add_global_arguments(p, top=False)

    p = sub.add_parser("hilb-demo", help="Hilbert scheme fixed points vs MacMahon")
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    _add_global_arguments(p, top=False)
    return parser


def _raw_spec_from_args(args) -> dict:
    raw: dict = {"command": args.command}
    if hasattr(args, "ring") and args.ring is not None:
        raw["ring"] = {"vars": [v.strip() for v in args.ring.split(",") if v.strip()],
                       "char": args.char}
    for field in ("f", "point", "critical_locus", "ideal", "form", "m", "primes"):
        value = getattr(args, field, None)
        if value is not None:
            raw[field] = value
    if getattr(args, "pres_class", None):
        raw["class"] = args.pres_class
    if args.command == "arc-check":
        if getattr(args, "arc_text", None):
            raw["arc"] = args.arc_text
        elif getattr(args, "arc", None):
            raw["arc"] = Path(args.arc).read_text(encoding="utf-8")
        else:
            raise InputError("arc-check needs --arc FILE or --arc-text TEXT")
    if args.command == "weighted-euler":
        raw["strata"] = json.loads(Path(args.strata).read_text(encoding="utf-8"))
        raw["function"] = json.loads(Path(args.function).read_text(encoding="utf-8"))
    if args.command == "hilb-demo":
        raw["n_max"] = args.n_max
    return raw


def _refusal_envelope(command, exc: Refusal) -> dict:
    return {
        "command": command,
        "refusal": {"code": exc.code, "message": str(exc)},
        "engine_version": __version__,
    }


def _run_batch(raw_jobs: list, use_cache: bool, cache_dir: Path | None):
    """One envelope per job, in input order, and the batch's exit code.

    A job that is refused or malformed gets an envelope with its own
    ``refusal`` or ``error`` object, and the jobs after it still run.  The
    exit code is 1 if any job was malformed, else 2 if any was refused.
    """
    envelopes = []
    malformed = refused = False
    for job in raw_jobs:
        command = job.get("command") if isinstance(job, dict) else None
        try:
            if not isinstance(job, dict):
                raise InputError("a job spec must be a JSON object")
            envelopes.append(run_job(job, use_cache, cache_dir))
        except Refusal as exc:
            envelopes.append(_refusal_envelope(command, exc))
            refused = True
        except (InputError, OSError, ValueError) as exc:
            envelopes.append({
                "command": command,
                "error": {"message": str(exc)},
                "engine_version": __version__,
            })
            malformed = True
    return envelopes, 1 if malformed else 2 if refused else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    use_cache = not args.no_cache
    cache_dir = Path(args.cache_dir) if args.cache_dir else None
    try:
        if args.jobs:
            raw_jobs = json.loads(Path(args.jobs).read_text(encoding="utf-8"))
            if not isinstance(raw_jobs, list):
                raise InputError("--jobs file must contain a JSON array of job specs")
            envelopes, code = _run_batch(raw_jobs, use_cache, cache_dir)
            _emit(envelopes, args.pretty)
            return code
        if not args.command:
            parser.print_help(sys.stderr)
            return 1
        envelope = run_job(_raw_spec_from_args(args), use_cache, cache_dir)
        _emit(envelope, args.pretty)
        if args.pretty:
            _pretty_tables(envelope)
        return 0
    except Refusal as exc:
        _emit(_refusal_envelope(args.command, exc), args.pretty)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
