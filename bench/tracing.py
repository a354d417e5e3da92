"""Spans around the program's layer functions, and the per-layer metrics.

The pass process calls ``Tracer.install`` after ``import h2h2.cli``.  It
wraps each function below and rebinds the wrapper wherever a module of the
package holds the original (``parallel_flow`` imports ``point_geometry`` by
name, ``report`` imports ``group_element_G``), so every call is seen however
it is reached.  A span is (name, start, end, parent); spans stay in memory
and are written out once, when the pass ends.  ``layer_metrics`` turns them
into per-pass counts, inclusive times (``.s``) and self times (``.self_s``:
the span minus the part its child spans cover).
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# span name -> (module, function names); several names share one span name
FUNCTIONS = {
    "cli.main": ("h2h2.cli", "main"),
    "report.run_verify_suite": ("h2h2.report", "run_verify_suite"),
    "report.parallel_rows": ("h2h2.report", "parallel_rows"),
    "report.detq_table_rows": ("h2h2.report", "detq_table_rows"),
    "report.lemma_residual_rows": ("h2h2.report", "lemma_residual_rows"),
    "report.sobol_points": ("h2h2.report", "sobol_points"),
    "report.render_json": ("h2h2.report", "render_json"),
    "report.write_atomic": ("h2h2.report", "write_atomic"),
    "model_zoo.build_model": ("h2h2.model_zoo", "build_model"),
    "surface_calculus.chart_jet": ("h2h2.surface_calculus", "chart_jet"),
    "surface_calculus.point_geometry": ("h2h2.surface_calculus", "point_geometry"),
    "surface_calculus.christoffels": ("h2h2.surface_calculus", "christoffels"),
    "surface_calculus.gauss_residual": ("h2h2.surface_calculus", "gauss_residual"),
    "surface_calculus.codazzi_residual": ("h2h2.surface_calculus", "codazzi_residual"),
    "surface_calculus.angle_derivative_residuals":
        ("h2h2.surface_calculus", "angle_derivative_residuals"),
    "parallel_flow.detq_derivatives_numeric": ("h2h2.parallel_flow", "detq_derivatives_numeric"),
    "parallel_flow.frame_identity_checks": ("h2h2.parallel_flow", "frame_identity_checks"),
    "parallel_flow.isoparametric_scan": ("h2h2.parallel_flow", "isoparametric_scan"),
    "parallel_flow.detq_expansion": ("h2h2.parallel_flow", "detq_expansion"),
    "parallel_flow.find_focal_radius": ("h2h2.parallel_flow", "find_focal_radius"),
    "product_space.group_element": ("h2h2.product_space", "group_element_G", "group_element_B"),
}

# span name -> (module, base class, method): the method of the base class and
# of every subclass that defines its own
METHODS = {
    "lorentz.curve_state": ("h2h2.lorentz", "PlaneCurve", "state"),
    "lorentz.curve_jet": ("h2h2.lorentz", "PlaneCurve", "jet"),
}

FD_RESIDUALS = ("surface_calculus.gauss_residual", "surface_calculus.codazzi_residual",
                "surface_calculus.angle_derivative_residuals")

# per-layer metrics, apart from the import times and the tracing overhead
# that run.py adds: name -> (kind, span names)
LAYER_METRICS = {
    "model_zoo.build_model.s": ("s", ("model_zoo.build_model",)),
    "lorentz.curve_state.calls": ("calls", ("lorentz.curve_state",)),
    "lorentz.curve_state.self_s": ("self_s", ("lorentz.curve_state",)),
    "lorentz.curve_jet.calls": ("calls", ("lorentz.curve_jet",)),
    "surface_calculus.chart_jet.calls": ("calls", ("surface_calculus.chart_jet",)),
    "surface_calculus.chart_jet.self_s": ("self_s", ("surface_calculus.chart_jet",)),
    "surface_calculus.point_geometry.calls": ("calls", ("surface_calculus.point_geometry",)),
    "surface_calculus.point_geometry.self_s": ("self_s", ("surface_calculus.point_geometry",)),
    "surface_calculus.christoffels.self_s": ("self_s", ("surface_calculus.christoffels",)),
    "surface_calculus.fd_residuals.s": ("s", FD_RESIDUALS),
    "surface_calculus.fd_residuals.point_geometry_calls": ("pg_calls", FD_RESIDUALS),
    "parallel_flow.detq_derivatives_numeric.calls":
        ("calls", ("parallel_flow.detq_derivatives_numeric",)),
    "parallel_flow.detq_derivatives_numeric.self_s":
        ("self_s", ("parallel_flow.detq_derivatives_numeric",)),
    "parallel_flow.frame_identity_checks.s": ("s", ("parallel_flow.frame_identity_checks",)),
    "parallel_flow.frame_identity_checks.point_geometry_calls":
        ("pg_calls", ("parallel_flow.frame_identity_checks",)),
    "parallel_flow.isoparametric_scan.self_s": ("self_s", ("parallel_flow.isoparametric_scan",)),
    "parallel_flow.detq_expansion.calls": ("calls", ("parallel_flow.detq_expansion",)),
    "parallel_flow.find_focal_radius.s": ("s", ("parallel_flow.find_focal_radius",)),
    "product_space.group_element.calls": ("calls", ("product_space.group_element",)),
    "product_space.group_element.self_s": ("self_s", ("product_space.group_element",)),
    "report.run_verify_suite.self_s": ("self_s", ("report.run_verify_suite",)),
    "report.sobol_points.s": ("s", ("report.sobol_points",)),
    "report.render_json.s": ("s", ("report.render_json",)),
    "report.write_atomic.s": ("s", ("report.write_atomic",)),
    "report.parallel_rows.self_s": ("self_s", ("report.parallel_rows",)),
    "cli.main.self_s": ("self_s", ("cli.main",)),
}


class Tracer:
    """In-memory span recorder for a single-threaded pass."""

    def __init__(self):
        self.names: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        names, start, end, parent, stack = (self.names, self.start, self.end,
                                            self.parent, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> list:
        """Wrap every layer function at each binding; returns names not found."""
        pkg = [m for n, m in list(sys.modules.items()) if n == "h2h2" or n.startswith("h2h2.")]
        missing = []
        wrappers = {}
        for span, (module, *attrs) in FUNCTIONS.items():
            for attr in attrs:
                fn = getattr(sys.modules.get(module), attr, None)
                if fn is None:
                    missing.append(f"{module}.{attr}")
                else:
                    wrappers[id(fn)] = self.wrap(span, fn)
        for mod in pkg:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    setattr(mod, attr, wrappers[id(val)])
        for span, (module, base, method) in METHODS.items():
            root = getattr(sys.modules.get(module), base, None)
            if root is None:
                missing.append(f"{module}.{base}")
                continue
            classes = {cls for mod in pkg for cls in vars(mod).values()
                       if isinstance(cls, type) and issubclass(cls, root)}
            for cls in classes:
                if method in cls.__dict__:
                    setattr(cls, method, self.wrap(span, cls.__dict__[method]))
        return missing

    def save(self, path):
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        np.savez(path, table=np.array(table, dtype=str),
                 name=np.array([index[n] for n in self.names], dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64))


def layer_metrics(path) -> dict:
    """Per-layer metrics of one traced pass from its saved spans."""
    with np.load(path) as z:
        table = [str(t) for t in z["table"]]
        name, start, end, parent = z["name"], z["start"], z["end"], z["parent"]
    n = len(name)
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - covered

    def mask(spans):
        ids = [table.index(s) for s in spans if s in table]
        return np.isin(name, ids)

    def under(inside):
        # spans with an ancestor in ``inside``; parents precede their children
        flag = np.zeros(n, dtype=bool)
        par = parent.tolist()
        ins = inside.tolist()
        for i in range(n):
            p = par[i]
            if p >= 0 and (ins[p] or flag[p]):
                flag[i] = True
        return flag

    pg = mask(("surface_calculus.point_geometry",))
    out = {}
    for metric, (kind, spans) in LAYER_METRICS.items():
        m = mask(spans)
        if kind == "calls":
            out[metric] = int(m.sum())
        elif kind == "self_s":
            out[metric] = float(self_time[m].sum())
        elif kind == "s":
            out[metric] = float(dur[m & ~under(m)].sum())
        else:
            out[metric] = int((pg & under(m)).sum())
    out["trace.spans"] = n
    return out
