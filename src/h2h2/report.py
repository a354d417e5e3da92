"""Verification suites, machine-readable reports, and table data.

Every check result carries the tolerance it was judged against; defaults sit
in ``DEFAULT_TOLERANCES`` and can be overridden per run.  Every derivative
behind a check is exact (third-order jets, no differences); the bars of the
structural-equation, frame-identity and Killing-algebra checks are the
smallest powers of ten at least 100x the worst residual measured over the
catalog models and seeds.

Every judged row can FAIL: a wrong chart, oracle or formula crosses its bar
(``tests/test_report_cli.py`` plants one defect per row).  What holds by
construction is not a row: a rank-deficient chart point raises
``ChartRankError``, the sample bundle's metric and second fundamental form
are symmetrized, and its scalar curvature is defined from the same matrix as
its principal curvatures.

Reports are deterministic for a fixed (config, seed): sampling uses a seeded
Sobol sequence over the chart box, results are ordered by check name, and
JSON is emitted with sorted keys, so two runs produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import stat
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.random import default_rng

from . import model_zoo as mz
from . import parallel_flow as pf
from . import surface_calculus as sc
from .lorentz import ETA3, lorentz_cross
from .product_space import ETA6, complex_structures


class ConfigError(ValueError):
    """Invalid suite configuration (maps to CLI exit code 2)."""


DEFAULT_TOLERANCES = {
    "V_derivative_identity": 1e-10,
    "av_zero": 1e-8,
    "chart_constraints": 1e-10,
    "codazzi_equation": 1e-10,
    "detq_derivatives_high": 1e-9,
    "detq_derivatives_low": 1e-10,
    "frame_identities": 1e-7,
    "gauss_equation": 1e-8,
    "grad_C_identity": 1e-10,
    "isoparametric_spread": 1e-8,
    "killing_algebra": 1e-12,
    "m_tau_constraint": 1e-10,
    "mean_curvature_two_forms": 1e-9,
    "oracle_C": 1e-9,
    "oracle_lambda": 1e-7,
    "oracle_normal": 1e-9,
    "parallel_lambda_closed_form": 1e-8,
    "parallel_shape_consistency": 1e-6,
}


# the largest runs ``SuiteConfig.validate`` admits: 125x the 200 samples and
# the 2001-point l-grid of the CI and benchmark calls; a 250000-point scan
# peaks near 0.5 GB, and a larger request is refused rather than run out of
# memory
MAX_SAMPLES = 25_000
MAX_GRID_POINTS = 250_000


def validate_model(spec: mz.ModelSpec):
    """Reject a non-finite model parameter or an unknown curvature-function
    name, naming its flag."""
    for name, value in spec.params.items():
        if isinstance(value, str):
            try:
                value = mz.parse_kappa(value)
            except ValueError as exc:
                raise ConfigError(f"{mz.flag(name)}: {exc}") from None
        if isinstance(value, (int, float)) and not math.isfinite(value):
            raise ConfigError(f"{mz.flag(name)} must be finite, got {value}")


@dataclass
class SuiteConfig:
    """Run configuration: model, sampling, tolerances, parallel grid."""

    model: mz.ModelSpec
    samples: int = 200
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    l_grid: tuple = (-1.0, 1.0, 0.1)

    def validate(self):
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        if self.samples > MAX_SAMPLES:
            raise ConfigError(f"--samples {self.samples} exceeds the bound {MAX_SAMPLES}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        validate_model(self.model)
        if len(self.l_grid) != 3:
            raise ConfigError("--l-grid expects a:b:h")
        a, b, h = self.l_grid
        if not all(math.isfinite(x) for x in self.l_grid):
            raise ConfigError(f"--l-grid needs finite a, b and h, got {a}:{b}:{h}")
        if h <= 0:
            raise ConfigError("--l-grid step must be > 0")
        steps = (b - a) / h + 1e-9       # ``grid`` has floor(steps) + 1 points
        if steps < 0:
            raise ConfigError(f"--l-grid {a}:{b}:{h} is empty: b < a")
        if not steps < MAX_GRID_POINTS:
            raise ConfigError(f"--l-grid {a}:{b}:{h} has more than {MAX_GRID_POINTS} points")
        for name, tol in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance name {name!r}")
            if not (math.isfinite(tol) and tol > 0):
                raise ConfigError(f"tolerance {name} must be finite and positive, got {tol}")

    def tol(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])

    def grid(self) -> np.ndarray:
        a, b, h = self.l_grid
        n = int(math.floor((b - a) / h + 1e-9)) + 1
        return a + h * np.arange(n)

    def as_dict(self) -> dict:
        return {
            "model": self.model.as_dict(),
            "samples": self.samples,
            "seed": self.seed,
            "tolerances": {k: self.tol(k) for k in sorted(DEFAULT_TOLERANCES)},
            "l_grid": list(self.l_grid),
        }


@dataclass
class CheckResult:
    """One named check: residual, tolerance, verdict (None = skipped)."""

    name: str
    max_residual: Optional[float]
    tolerance: float
    passed: Optional[bool]
    n_samples: int
    notes: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "n_samples": self.n_samples,
            "notes": self.notes,
        }


_SOBOL_BITS = 30


def _sobol_direction_numbers() -> np.ndarray:
    """Joe-Kuo direction numbers v[d, j] = m_j << (29 - j) of the first three
    dimensions: m_j = 1, then the primitive polynomials x + 1 and x^2 + x + 1."""
    m = [[1] * _SOBOL_BITS, [1], [1, 3]]
    for j in range(1, _SOBOL_BITS):
        m[1].append(m[1][j - 1] ^ (m[1][j - 1] << 1))
    for j in range(2, _SOBOL_BITS):
        m[2].append(m[2][j - 2] ^ (m[2][j - 2] << 2) ^ (m[2][j - 1] << 1))
    return np.array([[mj << (_SOBOL_BITS - 1 - j) for j, mj in enumerate(row)] for row in m],
                    dtype=np.uint64)


# _BIT_WEIGHT[c] = 2^(29 - c): column c of a scrambling matrix reads bit 29 - c
_BIT_WEIGHT = np.uint64(1) << np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint64)
_SOBOL_V_BITS = ((_sobol_direction_numbers()[:, :, None] & _BIT_WEIGHT) != 0).astype(np.int64)


def sobol_points(domain, n: int, seed: int) -> np.ndarray:
    """Seeded low-discrepancy samples of the chart box (reproducible).

    The first ``n`` of the 2^ceil(log2 n) points of a scrambled Sobol'
    sequence, scaled to the box: Matousek's linear matrix scrambling plus a
    digital shift, both drawn from ``numpy.random.default_rng(seed)``.  The draw
    order and bit conventions are those of the reference engine that
    ``tests/test_report_cli.py::TestSobol`` compares the points with bitwise.
    """
    lo = np.array([d[0] for d in domain], dtype=float)
    hi = np.array([d[1] for d in domain], dtype=float)
    if not np.all(lo < hi):
        raise ValueError("sobol_points: every domain interval needs lo < hi")
    rng = default_rng(seed)
    shift_bits = rng.integers(2, size=(3, _SOBOL_BITS), dtype=np.uint32)
    ltm = np.tril(rng.integers(2, size=(3, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, np.arange(_SOBOL_BITS), np.arange(_SOBOL_BITS)] = 1
    shift = shift_bits.astype(np.uint64) @ _BIT_WEIGHT[::-1]        # column c weighs 2^c
    # bit 29 - p of scrambled v_j = parity of sum_c ltm[d, p, c] * (bit 29 - c of v_j)
    scrambled = (_SOBOL_V_BITS @ ltm.astype(np.int64).transpose(0, 2, 1)) & 1
    v = scrambled.astype(np.uint64) @ _BIT_WEIGHT                   # (3, _SOBOL_BITS)
    # point k XORs the v_j of the set bits of its Gray code; the reflected
    # code doubles: gray(2^b + k) = 2^b ^ gray(2^b - 1 - k)
    x = np.zeros((1, 3), dtype=np.uint64)
    for b in range(math.ceil(math.log2(max(n, 1)))):
        x = np.concatenate([x, x[::-1] ^ v[:, b]])
    pts = (x[:n] ^ shift) * 2.0 ** -_SOBOL_BITS
    return pts * (hi - lo) + lo


def _judged(name, residuals, tol, n, notes="", where=True, informational=None) -> CheckResult:
    """The only reduction of a check's residuals and the only verdict: the
    largest entry of ``residuals`` where ``where`` holds, 0 if there is none,
    against ``tol``.  An ``informational`` check, whose bar the geometry need
    not meet, gets no verdict; its notes give that reason and whether the
    residual is within tol."""
    residual = float(np.max(residuals, initial=0.0, where=where))
    passed = residual <= tol
    if informational is not None:
        notes += f"; informational: {informational} (within tol: {passed})"
        passed = None
    return CheckResult(name=name, max_residual=residual, tolerance=tol, passed=passed,
                       n_samples=n, notes=notes)


def _skipped(name, tol, notes) -> CheckResult:
    return CheckResult(name=name, max_residual=None, tolerance=tol,
                       passed=None, n_samples=0, notes=notes)


def run_verify_suite(cfg: SuiteConfig) -> list[CheckResult]:
    """The full identity suite for one model; results ordered by check name."""
    cfg.validate()
    surface, oracle = mz.build_model(cfg.model)
    pts = sobol_points(surface.domain, cfg.samples, cfg.seed)
    n_fd = min(50, cfg.samples)
    n_par = min(10, cfg.samples)
    n_frame = min(3, cfg.samples)
    degenerate = abs(oracle.C) >= pf.DEGENERATE_C

    pg3, pgs = _sample_bundle(surface, pts, n_fd)
    results = []

    # ---- chart validity --------------------------------------------------
    # deviation of both factors from their hyperboloid constraints
    p, q = pgs.val[:, :3], pgs.val[:, 3:]
    results.append(_judged(
        "chart_constraints",
        np.maximum(np.abs(sc._pairing(p, p, ETA3) + 1.0), np.abs(sc._pairing(q, q, ETA3) + 1.0)),
        cfg.tol("chart_constraints"), len(pts)))

    # ---- oracle agreement ------------------------------------------------
    results.append(_judged(
        "oracle_lambda", np.abs(pgs.lambdas - oracle.lambdas(pts)),
        cfg.tol("oracle_lambda"), len(pts)))
    results.append(_judged(
        "oracle_C", np.abs(pgs.C - oracle.C), cfg.tol("oracle_C"), len(pts)))

    n_svd = sc._normal_from_constraints(pgs)
    n_svd = np.where((sc._pairing(n_svd, pgs.N) < 0.0)[:, None], -n_svd, n_svd)
    results.append(_judged(
        "oracle_normal", np.abs(n_svd - pgs.N), cfg.tol("oracle_normal"), len(pts),
        notes="nullspace normal vs closed form, up to the recorded sign"))

    # ---- pointwise operator identities ------------------------------------
    results.append(_judged(
        "av_zero", sc._norm(pgs.shape_apply(pgs.V)), cfg.tol("av_zero"), len(pts)))

    # ---- homogeneity -------------------------------------------------------
    results.append(_killing_algebra(pgs, cfg.tol("killing_algebra"), oracle.constant_curvatures))

    # ---- structural equations (exact third-order derivatives) -------------
    structural = sc.structural_residuals(pg3)
    for name, field_name in (("grad_C_identity", "grad_C"),
                             ("V_derivative_identity", "V_derivative"),
                             ("gauss_equation", "gauss"),
                             ("codazzi_equation", "codazzi")):
        results.append(_judged(name, getattr(structural, field_name), cfg.tol(name), n_fd))

    # ---- parallel flow ----------------------------------------------------
    af = None if degenerate else pf.adapted_frame(pgs[:n_par])
    if degenerate:
        for name in ("mean_curvature_two_forms", "detq_derivatives_low", "detq_derivatives_high",
                     "parallel_shape_consistency"):
            results.append(_skipped(name, cfg.tol(name),
                                    "skipped: degenerate product angle (C^2 = 1)"))
    else:
        # H(l) by the trace and by the det Q expansion, wherever det Q is not small
        ls = np.array([-0.6, 0.37, 0.8])
        det = pf.detq_expansion(af, ls[:, None])
        li, fi = np.nonzero(np.abs(det) >= 1e-6)
        h_det = -pf.detq_expansion_prime(af[fi], ls[li]) / det[li, fi]
        dev_h = np.abs(pf.mean_curvature_of_parallel(af[fi], ls[li]) - h_det)
        results.append(_judged("mean_curvature_two_forms", dev_h, cfg.tol("mean_curvature_two_forms"), n_par))

        closed = pf.detq_derivatives_at_0(af, pgs.rho[:n_par])
        numeric = pf.detq_derivatives_numeric(af)
        lo, hi = (np.stack([np.abs(closed[k] - numeric[k]) for k in orders], axis=-1)
                  for orders in ((1, 2), (4, 6, 8)))
        results.append(_judged("detq_derivatives_low", lo,
                               cfg.tol("detq_derivatives_low"), n_par, notes="orders 1,2"))
        results.append(_judged("detq_derivatives_high", hi,
                               cfg.tol("detq_derivatives_high"), n_par, notes="orders 4,6,8"))

        # both distances in one parallel-chart pass: the frame points twice,
        # at l = 0.25 on the first n_frame rows and at l = -0.4 on the rest
        rows = np.tile(np.arange(n_frame), 2)
        ls = np.repeat([0.25, -0.4], n_frame)
        pgls = sc.point_geometry(pf.parallel_surface(surface, ls), pts[rows], order=2)
        dev = np.column_stack([np.abs(pgls.lambdas - pf.parallel_lambdas(af[rows], ls)),
                               np.abs(pgls.H - pf.mean_curvature_of_parallel(af[rows], ls))])
        results.append(_judged(
            "parallel_shape_consistency", dev, cfg.tol("parallel_shape_consistency"),
            n_frame, notes="parallel shape operator vs direct recomputation on the parallel chart"))

    tol_closed = cfg.tol("parallel_lambda_closed_form")
    if mz.curvature_pair(cfg.model) is None:
        results.append(_skipped("parallel_lambda_closed_form", tol_closed,
                                "skipped: not a two-curve product model"))
    elif _constant_curvature_pair(cfg.model) is None:
        results.append(_skipped("parallel_lambda_closed_form", tol_closed,
                                "skipped: closed form needs constant curvatures"))
    elif degenerate:
        results.append(_skipped("parallel_lambda_closed_form", tol_closed,
                                "skipped: degenerate product angle (C^2 = 1)"))
    else:
        results.append(_judged("parallel_lambda_closed_form",
                               _parallel_lambda_closed_dev(cfg.model, pts[:n_par], af),
                               tol_closed, n_par))

    # ---- isoparametric scan ------------------------------------------------
    # the scan's base points are the first 8 rows of the sample bundle
    scan = pf.isoparametric_scan(pgs[:min(8, cfg.samples)], cfg.grid())
    notes = f"mode={scan.mode}"
    if scan.excluded:
        notes += f"; focal l excluded: {[round(l, 6) for l in scan.excluded]}"
    if scan.focal.all():
        results.append(_skipped("isoparametric_spread", cfg.tol("isoparametric_spread"),
                                f"skipped: every l-grid node is focal; {notes}"))
    else:
        # the two spread columns at the nodes off the focal values
        spreads = np.stack([scan.h_spread, scan.lambda_spread], axis=-1)[~scan.focal]
        results.append(_judged(
            "isoparametric_spread", spreads, cfg.tol("isoparametric_spread"),
            min(8, cfg.samples), notes=notes,
            informational=None if oracle.constant_curvatures else
            "generic curvature functions are not isoparametric, spread above tolerance "
            "is expected"))

    # ---- frame identities ---------------------------------------------------
    if degenerate:
        results.append(_skipped("frame_identities", cfg.tol("frame_identities"),
                                "skipped: degenerate product angle (C^2 = 1)"))
    else:
        frame = pf.frame_identity_checks(pg3[:n_frame])
        skipped_items = sorted(np.compress(frame.skip.any(axis=0), pf.FRAME_ITEMS).tolist())
        gaps = frame.min_gap[~np.isnan(frame.min_gap)]
        notes = [f"hypothesis-guarded skips: {', '.join(skipped_items)}"] if skipped_items else []
        notes += [f"smallest eigenvalue gap divided by: {gaps.min():.3e}"] if gaps.size else []
        results.append(_judged("frame_identities", frame.residual, cfg.tol("frame_identities"),
                               n_frame, notes="; ".join(notes), where=frame.skip == 0))

    # ---- model-specific checks ----------------------------------------------
    tol_tau = cfg.tol("m_tau_constraint")
    if cfg.model.kind == "M_tau":
        dev = np.abs(sc._pairing(p, q, ETA3) - float(cfg.model.params["tau"]))
        results.append(_judged("m_tau_constraint", dev, tol_tau, len(pts)))
    else:
        results.append(_skipped("m_tau_constraint", tol_tau, "skipped: not a level-set model"))

    results.sort(key=lambda r: r.name)
    return results


def _sample_bundle(surface, pts, n_fd: int) -> tuple:
    """(pg3, pgs): the first n_fd samples as an order-3 bundle, and all the
    samples ``pts`` as one bundle, whose first n_fd rows are pg3's.

    The structural equations and the frame identities read third
    derivatives, on the first n_fd points only, and second order serves
    every other check.  So one order-3 pass takes those points and one
    order-2 pass the rest, joined: no point is evaluated twice.  A failing
    sample raises the error of the first failing row, of the order-3 rows
    first.
    """
    pg3 = sc.point_geometry(surface, pts[:n_fd], order=3)
    if n_fd == len(pts):
        return pg3, pg3
    return pg3, sc.join(pg3, sc.point_geometry(surface, pts[n_fd:], order=2))


def _parallel_lambda_closed_dev(spec: mz.ModelSpec, u, af) -> np.ndarray:
    """Deviations (n, 2, 3) of the shifted-argument closed form of the
    parallel principal curvatures from the Q-matrix spectrum of the frames
    ``af`` at the chart points ``u`` (n, 3), at l = 0.3 and -0.45."""
    c = float(spec.params["c"])
    t, l = u[:, 0], np.array([[0.3], [-0.45]])
    closed = mz.product_lambdas(c, math.sqrt(c) * t + math.sqrt(1.0 - c) * l,
                                math.sqrt(1.0 - c) * t - math.sqrt(c) * l,
                                *_constant_curvature_pair(spec))
    return np.abs(pf.parallel_lambdas(af, l) - closed).swapaxes(0, 1)


def _constant_curvature_pair(spec: mz.ModelSpec):
    """Constant curvature pair of a product model, or None if generic."""
    pair = mz.curvature_pair(spec)
    if pair is None or any(callable(k) for k in pair):
        return None
    return tuple(float(k) for k in pair)


def _killing_algebra(pgs, tol: float, judged: bool) -> CheckResult:
    """killing_algebra: the Killing fields of so(1,2) ⊕ so(1,2) tangent to
    the surface at the samples ``pgs``, and whether they span its tangent
    spaces there.

    The rows J1 N of the samples take ETA6 w to <K_w, N> (``product_space``),
    so the right singular vectors v of their thin SVD give the fields K_w of
    w = ETA6 v, most tangent first, with the relative singular values as
    their tangency.  The fields taken are every one within the bar, at
    least three, and then the next most tangent until they span the tangent
    space at every sample: the third singular value of their tangent parts
    is at least ``sc.RANK_SIGMA_MIN`` there.  The residual is the largest
    relative singular value taken.  Isometries preserve the shape operator,
    so a homogeneous surface has constant principal curvatures; on any
    other surface the check is informational.
    """
    n = len(pgs)
    if n < 6:
        return _skipped("killing_algebra", tol,
                        "skipped: fewer samples than the 6 generators of so(1,2) + so(1,2)")
    _, s, vt = np.linalg.svd(complex_structures(pgs.val.T, pgs.N.T)[0].T, full_matrices=False)
    rel = np.abs(s[::-1]) / s[0]                       # LAPACK may return -0.0
    kernel = int(np.count_nonzero(rel <= tol))
    # components first: w = ETA6 v (6, 1, fields), most tangent first, and
    # the sample points (6, n, 1); the fields at the samples (n, fields, 6)
    # and their components in the orthonormal tangent basis principal_ambient
    w = (vt[::-1] @ ETA6).T[:, None, :]
    x = pgs.val.T[:, :, None]
    fields = np.stack(lorentz_cross(w[:3], x[:3]) + lorentz_cross(w[3:], x[3:]), axis=-1)
    tangent = fields @ (ETA6 @ pgs.principal_ambient)
    for k in range(max(3, kernel), 7):
        span = tangent[:, :k].swapaxes(-1, -2) @ tangent[:, :k]
        orbit = math.sqrt(max(float(np.min(np.linalg.eigvalsh(span)[:, 0])), 0.0))
        if orbit >= sc.RANK_SIGMA_MIN:
            break
    notes = (f"kernel dimension {kernel}, fields taken {k}, "
             f"smallest orbit sigma {orbit:.3e}")
    return _judged("killing_algebra", rel[k - 1], tol, n, notes=notes,
                   informational=None if judged else
                   "the principal curvatures are not constant, so the surface is not homogeneous")


def summarize(results: list[CheckResult]) -> dict:
    return {
        "passed": sum(1 for r in results if r.passed is True),
        "failed": sum(1 for r in results if r.passed is False),
        "skipped": sum(1 for r in results if r.passed is None),
    }


def report_payload(cfg: SuiteConfig, results: list[CheckResult]) -> dict:
    return {
        "config": cfg.as_dict(),
        "results": [r.as_dict() for r in results],
        "summary": summarize(results),
    }


def render_json(payload) -> str:
    """The report text, ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``.

    json's indented output runs its pure-Python encoder value by value.  So
    json writes a stand-in string for each ``Records`` of flat records, such
    as a scan's rows, and the rows are spliced in at the stand-in's indent,
    each column's cells from one call of json's C encoder.  Any other
    ``Records`` goes to json as its list of records.  A payload string that
    json writes as the stand-in's text raises ValueError.
    """
    records = []

    def columnar(o):
        if not isinstance(o, Records):
            raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
        n = len(o)
        if not n or any(type(k) is not str or len(v) != n
                        or not set(map(type, v)) <= {int, float, bool, type(None)}
                        for k, v in o.columns.items()):
            return list(o)
        records.append(o.columns)
        return _STAND_IN

    pieces = json.dumps(payload, indent=2, sort_keys=True, default=columnar).split(_STAND_IN_TEXT)
    if len(pieces) != len(records) + 1:
        raise ValueError("a payload string is written as the stand-in of a Records")
    out = [pieces[0]]
    for columns, after in zip(records, pieces[1:]):
        line = out[-1][out[-1].rfind("\n") + 1:]
        _record_rows(columns, "\n" + " " * (len(line) - len(line.lstrip(" "))), out)
        out.append(after)
    out.append("\n")
    return "".join(out)


class Records:
    """A list of flat records held as its columns: ``columns[key]`` lists the
    records' values under ``key``, in record order.  ``render_json`` writes
    it as json writes the list of records, and iterating it yields them as
    dicts with the keys in ``columns`` order."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict):
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __iter__(self):
        keys = list(self.columns)
        return (dict(zip(keys, row)) for row in zip(*self.columns.values()))


# the stand-in of a Records in ``render_json``, and json's text of it
_STAND_IN = "\x00h2h2 records\x00"
_STAND_IN_TEXT = '"\\u0000h2h2 records\\u0000"'


def _record_rows(columns: dict, newline: str, out: list):
    """Append json's indented text of the flat records with columns
    ``columns``; ``newline`` is "\\n" plus the indent of the line they start on."""
    keys = sorted(columns)
    # one C-encoder call a column; number, bool and null cells hold no ", "
    cells = [json.dumps(columns[k])[1:-1].split(", ") for k in keys]
    inner = newline + "  "
    item = inner + "  "
    parts = ["," + inner + "{" + item + json.dumps(keys[0]) + ": "]
    parts += ["," + item + json.dumps(k) + ": " for k in keys[1:]]
    template = "%s".join(p.replace("%", "%%") for p in parts + [inner + "}"])
    out.append("[")
    first = len(out)
    out.extend(template % row for row in zip(*cells))
    out[first] = out[first][1:]          # the first row takes no ","
    out += [newline, "]"]


def csv_text(header, rows) -> str:
    """CSV of a header and rows, lines ending in "\\n"."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def render_csv(results: list[CheckResult]) -> str:
    return csv_text(["name", "max_residual", "tolerance", "pass", "n_samples", "notes"],
                    ([r.name,
                      "" if r.max_residual is None else repr(r.max_residual),
                      repr(r.tolerance),
                      "" if r.passed is None else str(r.passed).lower(),
                      r.n_samples, r.notes] for r in results))


_UMASK_LOCK = threading.Lock()


def _new_file_mode(path: str) -> int:
    """Permission bits ``open(path, "w")`` would leave on ``path``."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        pass
    # the umask can only be read by setting it; hold a restrictive one
    # meanwhile and serialize, so concurrent writers restore the right value
    with _UMASK_LOCK:
        umask = os.umask(0o077)
        os.umask(umask)
    return 0o666 & ~umask


def write_atomic(path: str, text: str):
    """Replace ``path`` with ``text`` in one step.

    The text goes to a uniquely named temporary file in the same directory,
    is flushed and fsynced, and then renamed over ``path``, so concurrent
    writers never interleave and readers see the old or the new file whole.
    A path that cannot be written (a missing directory, a directory) is a
    ConfigError naming it, and no temporary file is left.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = None
    try:
        mode = _new_file_mode(path)
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
        with os.fdopen(fd, "w") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
            os.fchmod(f.fileno(), mode)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


# ---------------------------------------------------------------------------
# parallel-flow table (cmd parallel)
# ---------------------------------------------------------------------------

# keys of a ``parallel`` row, in CSV column order
PARALLEL_COLUMNS = ("l", "H_mean", "H_spread", "lambda_spread", "min_abs_detQ", "focal")


def parallel_rows(cfg: SuiteConfig) -> Records:
    """The scan's columns, one record per l-grid node, keyed by
    ``PARALLEL_COLUMNS``; a focal node has None for H_mean and the two
    spreads."""
    cfg.validate()
    surface, _ = mz.build_model(cfg.model)
    pts = sobol_points(surface.domain, min(8, cfg.samples), cfg.seed)
    scan = pf.isoparametric_scan(sc.point_geometry(surface, pts, order=2), cfg.grid())
    columns = (scan.l.tolist(), _nulled(scan.h_mean), _nulled(scan.h_spread),
               _nulled(scan.lambda_spread), scan.min_abs_detq.tolist(), scan.focal.tolist())
    return Records(dict(zip(PARALLEL_COLUMNS, columns)))


def _nulled(column: np.ndarray) -> list:
    """The column as floats, None in place of NaN."""
    out = column.tolist()
    for i in np.flatnonzero(np.isnan(column)).tolist():
        out[i] = None
    return out


def render_parallel_csv(rows: Records) -> str:
    """``parallel`` rows as CSV: floats by repr, None empty, bools lower case."""
    def cell(v):
        if v is None:
            return ""
        return str(v).lower() if isinstance(v, bool) else repr(v)

    return csv_text(PARALLEL_COLUMNS,
                    zip(*([cell(v) for v in rows.columns[k]] for k in PARALLEL_COLUMNS)))


# ---------------------------------------------------------------------------
# Poincaré-disk dump (reporting aid)
# ---------------------------------------------------------------------------

def poincare_project(x):
    """Hyperboloid point -> Poincaré disk: (x2, x3) / (1 + x1), for one point
    (3,) or for points (..., 3) as two arrays."""
    x = np.asarray(x, dtype=float)
    return x[..., 1] / (1.0 + x[..., 0]), x[..., 2] / (1.0 + x[..., 0])


# points per axis of the dump's chart grid, and along each coordinate line
POINCARE_GRID_N = 6
POINCARE_LINE_N = 80


def poincare_dump(model: mz.ModelSpec, path: str):
    """CSV of a chart grid and of the coordinate lines through the chart
    centre, projected to the two disks; all points take one chart call."""
    validate_model(model)
    surface, _ = mz.build_model(model)
    dom = surface.domain
    axes = [np.linspace(d[0], d[1], POINCARE_GRID_N) for d in dom]
    blocks = [np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)]
    for axis in range(3):
        line = np.tile([0.5 * (d[0] + d[1]) for d in dom], (POINCARE_LINE_N, 1))
        line[:, axis] = np.linspace(dom[axis][0], dom[axis][1], POINCARE_LINE_N)
        blocks.append(line)
    u = np.concatenate(blocks)
    x = surface.point(u)
    disks = [(factor, np.stack(poincare_project(part), axis=-1).tolist())
             for factor, part in ((1, x[:, :3]), (2, x[:, 3:]))]
    write_atomic(path, csv_text(["factor", "u1", "u2", "u3", "disk_x", "disk_y"],
                                ([factor, *map(repr, point + disk[row])]
                                 for row, point in enumerate(u.tolist()) for factor, disk in disks)))


# ---------------------------------------------------------------------------
# tables (cmd table)
# ---------------------------------------------------------------------------

TABLE_MODELS = [
    mz.ModelSpec("M_11", {"c": 0.3}),
    mz.ModelSpec("M_1m1", {"c": 0.6}),
    mz.ModelSpec("M_tau", {"tau": -2.0}),
]


def _center(surface) -> np.ndarray:
    return np.array([0.5 * (d[0] + d[1]) for d in surface.domain])


def curvature_catalog_rows() -> list[dict]:
    rows = []
    for spec in mz.CATALOG:
        surface, oracle = mz.build_model(spec)
        pg = sc.point_geometry(surface, _center(surface)[None], order=2)
        lam1, lam2, lam3 = pg.lambdas[0].tolist()
        rows.append({
            "model": surface.name,
            "C": pg.C[0].item(),
            "lambda1": lam1, "lambda2": lam2, "lambda3": lam3,
            "H": pg.H[0].item(), "rho": pg.rho[0].item(), "K": pg.K[0].item(),
        })
    return rows


def detq_table_rows() -> list[dict]:
    rows = []
    for spec in TABLE_MODELS:
        surface, _ = mz.build_model(spec)
        pg = sc.point_geometry(surface, _center(surface)[None], order=2)
        af = pf.adapted_frame(pg)
        closed = pf.detq_derivatives_at_0(af, pg.rho)
        numeric = pf.detq_derivatives_numeric(af)
        for k in pf.DETQ_ORDERS:
            rows.append({"model": surface.name, "k": k, "closed_form": closed[k][0].item(),
                         "numeric": numeric[k][0].item(),
                         "abs_diff": abs(closed[k] - numeric[k])[0].item()})
    return rows


def lemma_residual_rows() -> list[dict]:
    rows = []
    specs = TABLE_MODELS + [mz.ModelSpec("M_1m1", {"c": 0.5})]
    for spec in specs:
        surface, _ = mz.build_model(spec)
        frame = pf.frame_identity_checks(sc.point_geometry(surface, _center(surface)[None]))
        for name, residual, code in zip(pf.FRAME_ITEMS, frame.residual[0].tolist(),
                                        frame.skip[0].tolist()):
            rows.append({"model": surface.name, "identity": name,
                         "residual": None if code else residual,
                         "status": "skipped" if code else "checked",
                         "reason": pf.FRAME_SKIPS[code]})
    return rows
