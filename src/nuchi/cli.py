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

Each command is declared once, in ``COMMANDS``: its help line, its handler
and the job fields it reads, in order.  ``FIELDS`` gives each field's reader
and command-line flags.  The JSON job schema (also accepted in batch via
``--jobs file.json``, an array of jobs), the handlers and the argparse tree
are all read off these two tables; ``nuchi <command> --help`` lists a
command's flags.  Each job's inputs are parsed once; the normalized spec
keeps the parsed objects, and their canonical printing is hashed, so
equivalent spellings share cache entries.
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
from typing import Callable, NamedTuple

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
    _euler_obstruction_at,
    distinguished_cycle,
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
from .poly import GF, QQ, Polynomial, Ring, parse_point, parse_polynomial
from .singular import (
    NOT_CRITICAL,
    OneForm,
    behrend_report,
    coerce_point,
    format_point,
    is_almost_closed,
    milnor_number,
)

MILNOR_FIBRE_NOTE = (
    "imported fact: chi(Milnor fibre) = 1 + (-1)^(n-1)*mu for isolated "
    "critical points (classical Milnor theory)"
)
HEURISTIC_NOTE = "heuristic: finite-field point counts fitted by an integer polynomial"
PRESENTATION_CLASSES = (SMOOTH, REGULAR_SEQUENCE, MONOMIAL)


# ----------------------------------------------------------- field readers
# Each reader takes a field's JSON value and the job's ring and returns the
# parsed object the spec keeps; a malformed value raises InputError.

def _ring(raw: dict) -> Ring:
    ring = raw.get("ring")
    if not isinstance(ring, dict) or not isinstance(ring.get("vars"), (list, tuple)):
        raise InputError("job needs a ring declaration before any polynomial input")
    domain = GF(as_integer(ring["char"], "char")) if ring.get("char") else QQ
    return Ring(tuple(ring["vars"]), domain)


def _polynomial(value, ring: Ring) -> Polynomial:
    return parse_polynomial(value, ring)


def _polynomials(value, ring: Ring, field: str = "ideal") -> list:
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{field!r} must be an array of polynomials")
    return [parse_polynomial(e, ring) for e in value]


def _form(value, ring: Ring) -> list:
    components = _polynomials(value, ring, "form")
    if len(components) != ring.arity:
        raise InputError("a 1-form needs one component per ring variable")
    return components


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


def _arc(value, ring: Ring) -> ArcSeries:
    if not isinstance(value, str):
        raise InputError("'arc' must be arc text")
    return parse_arc(value, ring)


def _presentation_class(name, ring=None) -> str:
    name = str(name)
    if name not in PRESENTATION_CLASSES:
        raise InputError(f"unknown presentation class {name!r}")
    return name


def _primes(value, ring=None) -> list:
    if isinstance(value, str):
        value = [p for p in value.split(",") if p.strip()]
    elif not isinstance(value, (list, tuple)):
        raise InputError("'primes' must be an array or comma-separated text")
    return [as_integer(p, "primes") for p in value]


# --------------------------------------------------------------- handlers

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


def _presentation(spec) -> Presentation:
    if "critical_locus" in spec:
        return presentation_from_critical_locus(spec["critical_locus"])
    return Presentation(spec["class"], Ideal(spec["ring"], spec["ideal"]))


def _handle_cycle(spec):
    return {"cycle": distinguished_cycle(_presentation(spec)).to_payload()}, []


def _handle_nu(spec):
    point = coerce_point(spec["point"], spec["ring"])  # checked even if the cycle is empty
    cycle = distinguished_cycle(_presentation(spec))
    value = _euler_obstruction_at(cycle, point)
    return {"nu": value, "route": "cycle", "cycle": cycle.to_payload()}, []


def _handle_weighted_euler(spec):
    strat = spec["strata"]
    value = weighted_euler(strat, spec["function"])
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


# ------------------------------------------------------------ declaration

def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _arc_from_args(args) -> str:
    if not (args.arc_text or args.arc):
        raise InputError("arc-check needs --arc FILE or --arc-text TEXT")
    return args.arc_text or _read_text(args.arc)


class Field(NamedTuple):
    """A job field: the reader of its JSON value and its command-line flags.

    The first flag's value is the field's JSON value unless ``from_args``
    builds it from the parsed arguments.  The first flag is required when
    every field list of the command holds the field, unless its options say
    otherwise.
    """

    read: Callable | None  # (JSON value, ring) -> parsed value; None for the ring itself
    flags: tuple  # (flag, argparse options) pairs
    from_args: Callable | None = None


FIELDS = {
    "ring": Field(None, (
        ("--ring", {"help": "comma-separated variable names"}),
        ("--char", {"type": int, "default": 0, "help": "0 for Q, or a prime p for F_p"}),
    ), lambda args: {"vars": [v.strip() for v in args.ring.split(",") if v.strip()],
                     "char": args.char}),
    "f": Field(_polynomial, (("--f", {}),)),
    "point": Field(_point, (("--point", {}),)),
    "critical_locus": Field(_polynomial, (("--critical-locus", {}),)),
    "ideal": Field(_polynomials, (("--ideal", {"nargs": "+"}),)),
    "form": Field(_form, (("--form", {"nargs": "+", "help": "components f_1 .. f_n"}),)),
    "arc": Field(_arc, (
        # --arc-text can give the arc instead, so neither flag is required
        ("--arc", {"required": False, "help": "arc file (order header plus assignments)"}),
        ("--arc-text", {"help": "inline arc text"}),
    ), _arc_from_args),
    "m": Field(lambda value, ring: as_integer(value, "m"), (("--m", {"type": int}),)),
    "class": Field(_presentation_class, (("--class", {"choices": PRESENTATION_CLASSES}),)),
    "strata": Field(
        lambda value, ring: Stratification.from_json(value),
        (("--strata", {"help": "JSON array of {label, chi, dim, how}"}),),
        lambda args: json.loads(_read_text(args.strata)),
    ),
    "function": Field(
        lambda value, ring: ConstructibleFunction(value),
        (("--function", {"help": "JSON object label -> integer"}),),
        lambda args: json.loads(_read_text(args.function)),
    ),
    "primes": Field(_primes, (("--primes", {"help": "comma-separated primes, each <= 16"}),)),
    "n_max": Field(lambda value, ring: as_integer(value, "n_max"), (("--n-max", {"type": int}),)),
}


class Command(NamedTuple):
    """A job kind.  ``fields`` names the job fields in reading order; an entry
    that is a tuple of field groups reads the first group whose fields the
    job holds.  ``optional`` fields may be absent or null."""

    help: str
    handler: Callable
    fields: tuple
    optional: tuple = ()


COMMANDS = {
    "milnor": Command("Milnor number of f at a point", _handle_milnor, ("ring", "f", "point")),
    "behrend": Command("nu at a point (Milnor or smooth route)", _handle_behrend,
                       ("ring", (("critical_locus",), ("ideal",)), "point")),
    "almost-closed": Command("test d(omega) in I*Omega^2", _handle_almost_closed, ("ring", "form")),
    "arc-check": Command("vanishing order and obstruction along an arc", _handle_arc_check,
                         ("ring", "form", "arc", "m"), optional=("m",)),
    "normal-cone": Command("normal cone ideal via Rees elimination", _handle_normal_cone,
                           ("ring", "ideal")),
    "cycle": Command("distinguished cycle of a presentation", _handle_cycle,
                     ("ring", "class", "ideal")),
    "nu": Command("nu via the cycle route", _handle_nu,
                  ("ring", "point", (("critical_locus",), ("class", "ideal")))),
    "weighted-euler": Command("weighted Euler characteristic from files", _handle_weighted_euler,
                              ("strata", "function")),
    "chi-oracle": Command("heuristic chi from finite-field point counts", _handle_chi_oracle,
                          ("ring", "ideal", "primes")),
    "hilb-demo": Command("Hilbert scheme fixed points vs MacMahon", _handle_hilb_demo, ("n_max",)),
}


def _fields_of(command: Command):
    """(field, always) for every field a command can read, in order; always
    when every field list of the command holds it."""
    for entry in command.fields:
        always = isinstance(entry, str) and entry not in command.optional
        for field in (entry,) if isinstance(entry, str) else sum(entry, ()):
            yield field, always


# ----------------------------------------------------------- normalization

def normalize_spec(raw: dict) -> dict:
    """Validate a raw job dict and parse every input once.

    The spec keeps the parsed objects: the ``Ring``, ``Polynomial``s, the
    point as a tuple of ``Fraction``s, the ``ArcSeries``, the
    ``Stratification`` and the ``ConstructibleFunction``.  Any malformed
    field raises ``InputError``.
    """
    if "command" not in raw:
        raise InputError("job is missing the command field")
    name = raw["command"]
    if not isinstance(name, str) or name not in COMMANDS:  # a list or dict cannot be hashed
        raise InputError(f"unknown command {name!r}")
    command = COMMANDS[name]
    spec: dict = {"command": name}
    ring = None
    for entry in command.fields:
        for field in (entry,) if isinstance(entry, str) else _chosen(raw, name, entry):
            value = raw.get(field)
            if field == "ring":
                ring = spec["ring"] = _ring(raw)
            elif value is not None:
                spec[field] = FIELDS[field].read(value, ring)
            elif field not in command.optional:
                raise InputError(f"command {name} requires {field!r}")
    return spec


def _chosen(raw: dict, name: str, groups: tuple) -> tuple:
    for group in groups:
        for field in group:
            if field not in raw:
                break
        else:
            return group
    sep = ", or " if any(len(group) > 1 for group in groups) else " or "
    raise InputError(f"{name} needs " + sep.join(" plus ".join(group) for group in groups))


def execute_spec(spec: dict):
    """Run a normalized spec; returns (payload, provenance notes)."""
    return COMMANDS[spec["command"]].handler(spec)


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
    if isinstance(obj, Stratification):
        return [vars(s) for s in obj.strata]  # each Stratum's fields
    if isinstance(obj, ConstructibleFunction):
        return obj.as_dict()
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
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for field, always in _fields_of(command):
            for i, (flag, options) in enumerate(FIELDS[field].flags):
                p.add_argument(flag, **{"required": always and i == 0, **options})
        _add_global_arguments(p, top=False)
    return parser


def _raw_spec_from_args(args) -> dict:
    raw: dict = {"command": args.command}
    for field, _ in _fields_of(COMMANDS[args.command]):
        from_args = FIELDS[field].from_args
        value = from_args(args) if from_args else getattr(args, field)
        if value is not None:
            raw[field] = value
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
    except (InputError, OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
