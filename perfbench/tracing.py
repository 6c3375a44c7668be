"""Spans around the calls into each haptosim layer, recorded from outside.

:class:`Tracer` replaces module attributes that the program looks up at call
time with wrappers that record a span (name, start, end, parent) in memory.
The program's arithmetic is untouched: the Krylov wrappers add a
``callback`` that only counts iterations.  :func:`layer_metrics` reduces the
spans of one traced round to the per-layer metrics.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

import scipy.sparse.linalg as spla

from haptosim import fem, iocfg, linsolve, model, stepper

# (module, attribute, span name); the attribute is what the program calls.
TARGETS = [
    (iocfg, "parse_config", "iocfg.parse_config"),
    (iocfg, "build_structured_mesh", "mesh.build"),  # behind RunConfig.build_mesh
    (model, "interpolate_initial_state", "model.initial_state"),
    (stepper, "Operators", "stepper.operators"),
    (stepper, "fixed_point_advance", "stepper.advance"),
    (fem, "AssemblyPlan", "fem.plan"),
    *[(fem, name, f"fem.{name[len('assemble_'):]}")
      for name in dir(fem) if name.startswith("assemble_")],
    (linsolve, "combine", "linsolve.combine"),
    (linsolve, "solve", "linsolve.solve"),
    (spla, "splu", "scipy.splu"),
    (spla, "cg", "scipy.krylov"),
    (spla, "bicgstab", "scipy.krylov"),
    (iocfg, "write_vtk", "iocfg.vtk"),
    (iocfg, "write_diagnostics_csv", "iocfg.csv"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.info = None

    def as_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "info": self.info}


class Tracer:
    """In-memory span recorder; :meth:`installed` patches the targets."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._solves_since_p = 0  # u then c, then the spd p solve

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        annotate = {
            "stepper.advance": self._enter_advance,
            "linsolve.solve": self._classify_solve,
            "scipy.krylov": self._count_iterations,
        }.get(name)

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            if annotate is not None:
                kwargs = annotate(span, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()

        return wrapper

    def _enter_advance(self, span, kwargs):
        self._solves_since_p = 0
        return kwargs

    def _classify_solve(self, span, kwargs):
        if kwargs.get("spd"):
            span.info = "p"
            self._solves_since_p = 0
        else:
            span.info = "uc"[min(self._solves_since_p, 1)]
            self._solves_since_p += 1
        return kwargs

    def _count_iterations(self, span, kwargs):
        span.info = 0
        outer = kwargs.get("callback")

        def count(xk):
            span.info += 1
            if outer is not None:
                outer(xk)

        return {**kwargs, "callback": count}

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name in TARGETS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def unit(key: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if key.endswith("_s"):
        return "s"
    return "bytes" if key.endswith("_bytes") else "count"


def layer_metrics(spans: list[Span], sweeps_per_step, vtk_bytes: int) -> dict[str, float]:
    """Per-layer totals of one traced round."""
    total = {}
    calls = {}
    children: dict[int, list[Span]] = {}
    for span in spans:
        total[span.name] = total.get(span.name, 0.0) + (span.end - span.start)
        calls[span.name] = calls.get(span.name, 0) + 1
        children.setdefault(span.parent, []).append(span)

    def seconds(name):
        return total.get(name, 0.0)

    advance_self = 0.0
    solve_s = {"u": 0.0, "c": 0.0, "p": 0.0}
    retries = fallbacks = dense = 0
    for i, span in enumerate(spans):
        kids = children.get(i, [])
        if span.name == "stepper.advance":
            advance_self += (span.end - span.start) - sum(k.end - k.start for k in kids)
        elif span.name == "linsolve.solve":
            solve_s[span.info] += span.end - span.start
            krylov = sum(k.name == "scipy.krylov" for k in kids)
            lu = sum(k.name == "scipy.splu" for k in kids)
            retries += max(krylov - 1, 0)
            fallbacks += lu if krylov else 0
            dense += not (krylov or lu)

    return {
        "mesh.build_s": seconds("mesh.build"),
        "model.initial_state_s": seconds("model.initial_state"),
        "stepper.operators_s": seconds("stepper.operators"),
        "stepper.advance_s": seconds("stepper.advance"),
        "stepper.self_s": advance_self,
        "stepper.sweeps": sum(sweeps_per_step),
        "stepper.sweeps_per_step_p50": statistics.median(sweeps_per_step),
        "stepper.sweeps_per_step_max": max(sweeps_per_step),
        **{
            f"fem.{form}{suffix}": value
            for form in ("weighted_mass", "haptotaxis", "product_load")
            for suffix, value in (("_s", seconds(f"fem.{form}")),
                                  ("_calls", calls.get(f"fem.{form}", 0)))
        },
        "linsolve.combine_s": seconds("linsolve.combine"),
        "linsolve.combine_calls": calls.get("linsolve.combine", 0),
        "linsolve.solves": calls.get("linsolve.solve", 0),
        "linsolve.solve_s": seconds("linsolve.solve"),
        "linsolve.solve_u_s": solve_s["u"],
        "linsolve.solve_c_s": solve_s["c"],
        "linsolve.solve_p_s": solve_s["p"],
        "linsolve.lu_factorizations": calls.get("scipy.splu", 0),
        "linsolve.lu_s": seconds("scipy.splu"),
        "linsolve.krylov_solves": calls.get("scipy.krylov", 0),
        "linsolve.krylov_iters": sum(s.info for s in spans if s.name == "scipy.krylov"),
        "linsolve.krylov_s": seconds("scipy.krylov"),
        "linsolve.krylov_retries": retries,
        "linsolve.lu_fallbacks": fallbacks,
        "linsolve.dense_solves": dense,
        "iocfg.config_s": seconds("iocfg.parse_config"),
        "iocfg.vtk_s": seconds("iocfg.vtk"),
        "iocfg.vtk_bytes": vtk_bytes,
        "iocfg.csv_s": seconds("iocfg.csv"),
    }
