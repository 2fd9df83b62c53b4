"""Tracing of nuchi's public functions from outside the program.

``Tracer.install`` wraps each listed function in every ``nuchi.*`` namespace
that binds it (``singular`` and ``cycles`` import ``groebner`` names
directly) and wraps ``Polynomial`` methods on the class.  ``restore`` puts
every original back.  Wrapped calls keep a stack of open frames, so each
call's self time is its duration minus the time of the traced calls nested in
it.  Spans (name, start, end, parent, job) are kept in memory; the hot
``poly`` functions only add to aggregate counters.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

ORIGINAL = "__perfbench_original__"

# (module, qualified name) of each traced function, and whether it records
# spans (True) or only aggregate calls and self time (False).
TRACED = [
    ("cli", "run_job", True),
    ("cli", "normalize_spec", True),
    ("cli", "execute_spec", True),
    ("singular", "milnor_number", True),
    ("singular", "behrend_report", True),
    ("singular", "milnor_fibre_euler", True),
    ("singular", "is_smooth_at", True),
    ("singular", "is_almost_closed", True),
    ("cycles", "presentation_from_critical_locus", True),
    ("cycles", "distinguished_cycle", True),
    ("cycles", "rational_points_of_zero_dim", True),
    ("cycles", "local_colength_at", True),
    ("cycles", "normal_cone_ideal", True),
    ("cycles", "euler_obstruction", True),
    ("groebner", "groebner_basis", True),
    ("groebner", "standard_basis", True),
    ("groebner", "normal_form", True),
    ("groebner", "eliminate", True),
    ("groebner", "colength", True),
    ("groebner", "staircase_count", True),
    ("groebner", "krull_dimension", True),
    ("groebner", "hs_multiplicity", True),
    ("poly", "parse_polynomial", False),
    ("poly", "Polynomial.shift", False),
    ("poly", "Polynomial.substitute", False),
    ("poly", "Polynomial.evaluate", False),
    ("arcs", "parse_arc", True),
    ("arcs", "arc_vanishing_order", True),
    ("arcs", "lagrangian_obstruction", True),
    ("euler", "hilbert_demo", True),
    ("euler", "point_count_chi", True),
    ("euler", "weighted_euler", True),
]


def _coeff_bits(basis) -> int:
    bits = 0
    for g in basis.elements:
        for _, c in g.terms():
            num, den = (c.numerator, c.denominator) if hasattr(c, "denominator") else (c, 1)
            bits = max(bits, num.bit_length(), den.bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.stack: list = []  # open frames: [name, start, child_time, span_id]
        self.spans: list = []  # (id, name, start, end, parent_id, job)
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.counters: dict = defaultdict(float)
        self.job = None
        self._patches: list = []

    # ------------------------------------------------------------ frames

    def begin_job(self, job) -> None:
        self.job = job
        self.stack.clear()  # a stopped job can leave frames open

    def innermost_span(self) -> str:
        for frame in reversed(self.stack):
            if frame[3] is not None:
                return frame[0]
        return "none"

    def _enter(self, name: str, span: bool):
        parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
        frame = [name, time.perf_counter(), 0.0, len(self.spans) if span else None, parent]
        if span:
            self.spans.append(None)  # reserve the id
        self.stack.append(frame)
        return frame

    def _exit(self, frame) -> None:
        end = time.perf_counter()
        if self.stack and self.stack[-1] is frame:
            self.stack.pop()
        name, start, child, span_id, parent = frame
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if span_id is not None:
            self.spans[span_id] = (span_id, name, start, end, parent, self.job)

    # --------------------------------------------------------- patching

    def _wrap(self, fn, name: str, span: bool, namer=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(namer(args, kwargs) if namer else name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(result, args)
            return result

        setattr(wrapper, ORIGINAL, fn)
        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, fn, wrapper) -> None:
        for module in nuchi_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def install(self) -> None:
        modules = {m.__name__.split(".")[-1]: m for m in nuchi_modules()}
        poly = modules["poly"]
        order_kind = poly.DEGREVLEX.kind

        def basis_done(result, args):
            self.counters["bases"] += 1
            self.counters["basis_elements"] += len(result.elements)
            self.counters["coeff_bits_max"] = max(self.counters["coeff_bits_max"], _coeff_bits(result))

        def gb_name(args, kwargs):
            order = args[1] if len(args) > 1 else kwargs.get("order")
            return f"groebner.groebner_basis.{order.kind if order is not None else order_kind}"

        for module_name, qualname, span in TRACED:
            module = modules[module_name]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._wrap(getattr(cls, method), name, span))
                continue
            fn = getattr(module, qualname)
            namer = gb_name if qualname == "groebner_basis" else None
            after = basis_done if qualname in ("groebner_basis", "standard_basis") else None
            self._patch_everywhere(fn, self._wrap(fn, name, span, namer, after))

        init = poly.Polynomial.__init__

        @functools.wraps(init)
        def counted_init(obj, *args, **kwargs):
            self.counters["polynomials_built"] += 1
            init(obj, *args, **kwargs)

        setattr(counted_init, ORIGINAL, init)
        self._patch(poly.Polynomial, "__init__", counted_init)

        cli = modules["cli"]
        store = cli._cache_store

        @functools.wraps(store)
        def counted_store(path, envelope):
            store(path, envelope)
            self.counters["cache_bytes_written"] += path.stat().st_size

        setattr(counted_store, ORIGINAL, store)
        self._patch(cli, "_cache_store", counted_store)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    sid, name, start, end, parent, job = span
                    fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                         "parent": parent, "job": job}) + "\n")


def nuchi_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "nuchi" or n.startswith("nuchi."))]


def leftover_wrappers() -> list:
    """Names of every traced wrapper still bound anywhere in nuchi."""
    found = []
    for module in nuchi_modules():
        for attr, value in vars(module).items():
            if hasattr(value, ORIGINAL):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type) and value.__module__.startswith("nuchi"):
                for method, member in vars(value).items():
                    if hasattr(member, ORIGINAL):
                        found.append(f"{module.__name__}.{attr}.{method}")
    return found
