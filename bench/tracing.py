"""Span tracing from outside the program, and the per-layer metrics.

The tracer replaces each public entry point of the ``branchdec`` layers
with a wrapper that records one span per call, in every module namespace
that binds the function (``validate_involution``, for example, is bound
in ``catalog`` and in ``involution``, where ``ensure_valid`` looks it up).
Nothing in the program is edited; ``uninstall`` puts the originals back.

Spans are kept in memory as ``[name, start, end, parent, op, extra]``
and written out once the run has ended.  ``parent`` is the index of the
enclosing span (-1 for none), ``op`` the benchmark operation that caused
the span, and ``extra`` a small dict of exact work counts taken from the
call's arguments or result.

Everything runs on one thread with no queues, so no layer waits for
another and no wait-time metric exists.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

LAYERS = ("cli", "catalog", "involution", "parabolic", "cone_kernel",
          "decider", "root_core")

QUESTIONS = ("deco", "admissible", "transitive", "rho", "symtype", "virtsym")

PACKAGE = "branchdec"


def _simplex_extra(args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    m = len(rows)
    n = len(rows[0]) if m else 0
    return {"cells": m * (n + m + 1), "feasible": result[0] is not None}


def _enumerate_extra(args, kwargs, result):
    return {"faces": len(result)}


# (module, attribute, span name, extra-count hook); attributes with a dot
# are methods, wrapped on their class
TRACED = (
    ("cli", "main", "cli.main", None),
    ("catalog", "load_catalog", "catalog.load", None),
    ("catalog", "CatalogBundle.pair", "catalog.pair", None),
    ("involution", "validate_involution", "involution.validate", None),
    ("involution", "validate_embedding", "involution.validate", None),
    ("involution", "restricted_roots", "involution.restricted_roots", None),
    ("involution", "momentum_chamber", "involution.momentum_chamber", None),
    ("involution", "as_embedding_view", "involution.embedding_view", None),
    ("parabolic", "enumerate_parabolics", "parabolic.enumerate",
     _enumerate_extra),
    ("parabolic", "is_virtually_symmetric_type", "parabolic.virtsym", None),
    ("parabolic", "is_symmetric_type", "parabolic.symtype", None),
    ("parabolic", "build_parabolic", "parabolic.build", None),
    ("cone_kernel", "simplex_feasible", "cone_kernel.simplex",
     _simplex_extra),
    ("cone_kernel", "cone_meets_subspace", "cone_kernel.meet", None),
    ("cone_kernel", "cones_meet", "cone_kernel.meet", None),
    ("decider", "answer_question", "decider.answer", None),
    ("decider", "discretely_decomposable", "decider.deco", None),
    ("decider", "admissible_sufficient", "decider.admissible", None),
    ("decider", "transitive_check", "decider.transitive", None),
    ("decider", "rho_compat_check", "decider.rho", None),
    ("decider", "symmetric_type_verdict", "decider.symtype", None),
    ("decider", "virtually_symmetric_verdict", "decider.virtsym", None),
    ("root_core", "rref", "root_core.linalg", None),
    ("root_core", "nullspace", "root_core.linalg", None),
    ("root_core", "solve_linear", "root_core.linalg", None),
    ("root_core", "project_onto_span", "root_core.linalg", None),
)


class Tracer:
    """Records spans for the functions in ``TRACED`` while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
                span[2] = clock()
            if hook is not None:
                span[5] = hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == PACKAGE
                                      or n.startswith(PACKAGE + "."))]
        for mod_name, attr, name, hook in TRACED:
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def mark(self, op: int) -> None:
        """Attribute the spans that follow to benchmark operation ``op``."""
        self.op = op

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: Path) -> None:
        """One span per line: index, name, start, end, parent, op, extra."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, extra) in enumerate(
                    self.spans):
                fh.write(f"{i}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t"
                         f"{parent}\t{op}\t{extra or ''}\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other; their durations simply add up.
    """
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def inclusive_times(spans) -> dict[str, float]:
    """Time inside each span name, counting only its outermost spans."""
    out: dict[str, float] = {}
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out[name] = out.get(name, 0.0) + (end - start)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, stdout_bytes: int) -> dict[str, float]:
    """Per-layer counts and self times, derived from the spans alone."""
    self_s = self_times(spans)
    calls: dict[str, int] = {}
    span_self: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    in_enum = [False] * len(spans)
    in_virtsym = [False] * len(spans)
    faces = cells = feasible = unsupported = 0
    enum_lp = virtsym_lp = 0
    for i, (name, _, _, parent, _, extra) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        span_self[name] = span_self.get(name, 0.0) + self_s[i]
        layer_self[name.split(".")[0]] += self_s[i]
        in_enum[i] = name == "parabolic.enumerate" or (
            parent >= 0 and in_enum[parent])
        in_virtsym[i] = name == "parabolic.virtsym" or (
            parent >= 0 and in_virtsym[parent])
        if name == "cone_kernel.simplex":
            enum_lp += in_enum[i]
            virtsym_lp += in_virtsym[i]
            if extra and "cells" in extra:
                cells += extra["cells"]
                feasible += extra["feasible"]
        elif name == "parabolic.enumerate" and extra and "faces" in extra:
            faces += extra["faces"]
        elif name == "decider.answer" and extra and (
                extra.get("raised") == "UnsupportedQuery"):
            unsupported += 1

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return span_self.get(name, 0.0)

    m = {
        "cli.main.calls": n("cli.main"),
        "cli.self_s": s("cli.main"),
        "cli.stdout_bytes": stdout_bytes,
        "catalog.load.calls": n("catalog.load"),
        "catalog.load.self_s": s("catalog.load"),
        "catalog.pair.calls": n("catalog.pair"),
        "involution.validate.calls": n("involution.validate"),
        "involution.validate.self_s": s("involution.validate"),
        "involution.restricted_roots.calls": n("involution.restricted_roots"),
        "involution.momentum_chamber.calls": n("involution.momentum_chamber"),
        "involution.momentum_chamber.self_s": s("involution.momentum_chamber"),
        "involution.embedding_view.calls": n("involution.embedding_view"),
        "involution.embedding_view.self_s": s("involution.embedding_view"),
        "parabolic.enumerate.calls": n("parabolic.enumerate"),
        "parabolic.enumerate.faces": faces,
        "parabolic.enumerate.self_s": s("parabolic.enumerate"),
        "parabolic.enumerate.lp_calls": enum_lp,
        "parabolic.lp_per_face": _ratio(enum_lp, faces),
        "parabolic.virtsym.calls": n("parabolic.virtsym"),
        "parabolic.virtsym.self_s": s("parabolic.virtsym"),
        "parabolic.virtsym.lp_calls": virtsym_lp,
        "parabolic.symtype.calls": n("parabolic.symtype"),
        "parabolic.build.calls": n("parabolic.build"),
        "cone_kernel.simplex.calls": n("cone_kernel.simplex"),
        "cone_kernel.simplex.self_s": s("cone_kernel.simplex"),
        "cone_kernel.simplex.cells": cells,
        "cone_kernel.simplex.feasible_ratio": _ratio(
            feasible, n("cone_kernel.simplex")),
        "cone_kernel.meet.calls": n("cone_kernel.meet"),
        "cone_kernel.meet.self_s": s("cone_kernel.meet"),
        "decider.answer.calls": n("decider.answer"),
        **{f"decider.{q}.self_s": s(f"decider.{q}") for q in QUESTIONS},
        "decider.unsupported_ratio": _ratio(
            unsupported, n("decider.answer")),
        "root_core.linalg.calls": n("root_core.linalg"),
        "root_core.linalg.self_s": s("root_core.linalg"),
    }
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer]
    return m


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly between two traced passes."""
    return name.endswith((".calls", ".cells", ".faces", ".lp_calls",
                          "_bytes", "_ratio", ".lp_per_face"))


def dominant_layer(metrics: dict[str, float]) -> str:
    return max(LAYERS, key=lambda layer: metrics[f"layer.{layer}.self_s"])
