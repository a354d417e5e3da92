"""Acceptance gate: one test per criterion, at the stated tolerances.

Every test prints a single ``criterion NN [PASS|FAIL]`` line (visible with
``pytest -s tests/test_acceptance.py``) before asserting, so a red criterion
still reports its measured numbers.
"""

import math

import numpy as np
import pytest

from h2h2 import autodiff as ad
from h2h2 import model_zoo as mz
from h2h2 import parallel_flow as pf
from h2h2 import report as rp
from h2h2 import surface_calculus as sc

from conftest import as_matrices, scan_of, sectional

SEED = 20250810


def sample(surface, n, seed=SEED):
    return rp.sobol_points(surface.domain, n, seed)


def emit(num, ok, detail):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, detail


def build(kind, params):
    return mz.build_model(mz.ModelSpec(kind, params))


def test_criterion_01_model_zoo_oracle_match():
    lam_dev = c_dev = 0.0
    for spec in mz.CATALOG:
        surface, oracle = mz.build_model(spec)
        pts = sample(surface, 200)
        # one batched call; each row is bit for bit the one-point call
        pgs = sc.point_geometry(surface, pts)
        for u, lam, C in zip(pts, pgs.lambdas, pgs.C.tolist()):
            lam_dev = max(lam_dev, float(np.max(np.abs(lam - oracle.lambdas(u)))))
            c_dev = max(c_dev, abs(C - oracle.C))
    ok = lam_dev < 1e-7 and c_dev < 1e-9
    emit(1, ok, f"model-zoo oracle match over {len(mz.CATALOG)} families x 200 points: "
                f"max lambda dev {lam_dev:.2e} (tol 1e-7), max C dev {c_dev:.2e} (tol 1e-9)")


def test_criterion_02_angle_derivative_residuals():
    worst = 0.0
    for spec in mz.CATALOG:
        if spec.kind == "M_Gamma":
            continue   # |C| = 1 there
        surface, _ = mz.build_model(spec)
        # one batched call; each row is bit for bit the one-point call
        r = sc.structural_residuals(sc.point_geometry(surface, sample(surface, 5)))
        worst = max(worst, float(np.max(r.grad_C)), float(np.max(r.V_derivative)))
    ok = worst < 1e-10
    emit(2, ok, f"angle-derivative identity residuals on all |C|<1 families: "
                f"max {worst:.2e} (tol 1e-10)")


def test_criterion_03_gauss_codazzi():
    families = [build("M_Gamma", {"kappa_gamma": 0.5}),
                build("M_1m1", {"c": 0.5}),
                build("M_11", {"c": 0.3}),
                build("M_tau", {"tau": -2.0})]
    g_worst = c_worst = 0.0
    for surface, _ in families:
        r = sc.structural_residuals(sc.point_geometry(surface, sample(surface, 50)))
        g_worst = max(g_worst, float(np.max(r.gauss)))
        c_worst = max(c_worst, float(np.max(r.codazzi)))
    ok = g_worst < 1e-8 and c_worst < 1e-10
    emit(3, ok, f"Gauss residual {g_worst:.2e} (tol 1e-8), Codazzi {c_worst:.2e} "
                f"(tol 1e-10) at 50 pts/family, exact third derivatives")


def test_criterion_04_minimal_and_two_curvature_models():
    surface, _ = build("M_11", {"c": 0.5})
    rng = np.random.default_rng(SEED)
    h_dev = sec_dev = 0.0
    for u in sample(surface, 25):
        pg = sc.point_geometry(surface, u)
        h_dev = max(h_dev, abs(pg.H))
        for _ in range(4):
            x = pg.from_coords(rng.normal(size=3))
            y = pg.from_coords(rng.normal(size=3))
            sec_dev = max(sec_dev, abs(sectional(pg, x, y) + 0.5))
    surface2, _ = build("M_1m1", {"c": 0.5})
    want = np.sort([0.0, 1 / math.sqrt(2), 1 / math.sqrt(2)])
    lam_dev = max(float(np.max(np.abs(sc.point_geometry(surface2, u).lambdas - want)))
                  for u in sample(surface2, 25))
    ok = h_dev < 1e-9 and sec_dev < 1e-6 and lam_dev < 1e-8
    emit(4, ok, f"minimal model: |H| {h_dev:.2e} (tol 1e-9), "
                f"|sectional+1/2| {sec_dev:.2e} (tol 1e-6); "
                f"two-curvature model lambda dev {lam_dev:.2e} (tol 1e-8)")


def test_criterion_05_parallel_flow_consistency():
    dev_htwo = dev_pshape = dev_closed = 0.0
    for kind, params in (("M_1m1", {"c": 0.4}), ("M_11", {"c": 0.3}),
                         ("M_tau", {"tau": -2.0})):
        surface, _ = build(kind, params)
        for u in sample(surface, 4):
            pg = sc.point_geometry(surface, u)
            af = pf.adapted_frame(pg)
            for l in (-0.6, 0.3, 0.7):
                det = pf.detq_expansion(af, l)
                if abs(det) < 1e-3:
                    continue
                q, qp = map(as_matrices, pf._q_rows(af, l))
                h_tr = -float(np.trace(np.linalg.solve(q, qp)))
                h_det = -pf.detq_expansion_prime(af, l) / det
                dev_htwo = max(dev_htwo, abs(h_tr - h_det))
        u = sample(surface, 1)[0]
        pg = sc.point_geometry(surface, u)
        af = pf.adapted_frame(pg)
        for l in (0.3, -0.45):
            pgl = sc.point_geometry(pf.parallel_surface(surface, l), u)
            dev_pshape = max(dev_pshape, float(np.max(np.abs(pgl.lambdas - pf.parallel_lambdas(af, l)))),
                        abs(pgl.H - pf.mean_curvature_of_parallel(af, l)))
    c = 0.4
    surface, _ = build("M_1m1", {"c": c})
    for u in sample(surface, 5):
        af = pf.adapted_frame(sc.point_geometry(surface, u))
        t = float(u[0])
        for l in (0.3, -0.45, 0.8):
            a1 = math.sqrt(c) * t + math.sqrt(1 - c) * l
            a2 = math.sqrt(1 - c) * t - math.sqrt(c) * l
            lam2 = -math.sqrt(1 - c) * (math.sinh(a1) - math.cosh(a1)) / (
                math.cosh(a1) - math.sinh(a1))
            lam3 = math.sqrt(c) * (math.sinh(a2) + math.cosh(a2)) / (
                math.cosh(a2) + math.sinh(a2))
            dev_closed = max(dev_closed, float(np.max(np.abs(
                pf.parallel_lambdas(af, l) - np.sort([0.0, lam2, lam3])))))
    ok = dev_htwo < 1e-9 and dev_pshape < 1e-6 and dev_closed < 1e-8
    emit(5, ok, f"H(l) two-expression agreement {dev_htwo:.2e} (tol 1e-9); parallel "
                f"shape vs chart {dev_pshape:.2e} (tol 1e-6); closed-form parallel "
                f"curvatures {dev_closed:.2e} (tol 1e-8)")


def test_criterion_06_detq_derivative_identities():
    lo = hi = 0.0
    for kind, params in (("M_11", {"c": 0.3}), ("M_1m1", {"c": 0.6}),
                         ("M_tau", {"tau": -2.0})):
        surface, _ = build(kind, params)
        for u in sample(surface, 4):
            pg = sc.point_geometry(surface, u)
            af = pf.adapted_frame(pg)
            closed = pf.detq_derivatives_at_0(af, pg.rho)
            numeric = pf.detq_derivatives_numeric(af)
            assert closed[1] == pytest.approx(-pg.H, abs=1e-12)
            assert closed[2] == pytest.approx(pg.rho + 3.0, abs=1e-12)
            lo = max(lo, abs(closed[1] - numeric[1]), abs(closed[2] - numeric[2]))
            hi = max(hi, *(abs(closed[k] - numeric[k]) for k in (4, 6, 8)))
    ok = lo < 1e-10 and hi < 1e-9
    emit(6, ok, f"det Q derivatives at 0: k=1,2 dev {lo:.2e} (tol 1e-10), "
                f"k=4,6,8 dev {hi:.2e} (tol 1e-9)")


def test_criterion_07_isoparametric_discrimination():
    grid = np.linspace(-1.0, 1.0, 21)
    worst = 0.0
    families = [build("M_Gamma", {"kappa_gamma": 0.0}),
                build("M_Gamma", {"kappa_gamma": 1.0}),
                build("M_Gamma", {"kappa_gamma": 2.0}),
                build("M_1m1", {"c": 0.4}),
                build("M_11", {"c": 0.3}),
                build("M_tau", {"tau": -3.0}),
                build("M_tau", {"tau": -2.0})]
    for surface, _ in families:
        rep = scan_of(surface, sample(surface, 6), grid)
        worst = max(worst, rep.max_h_spread, rep.max_lambda_spread)
    generic, _ = mz.make_M_kk(0.5, ad.tanh, 1.0)
    rep = scan_of(generic, sample(generic, 6), grid)
    generic_spread = max(rep.max_h_spread, rep.max_lambda_spread)
    ok = worst < 1e-8 and generic_spread > 1e-3
    emit(7, ok, f"isoparametric families spread {worst:.2e} (tol 1e-8); "
                f"generic-curve spread {generic_spread:.2e} (> 1e-3 required)")


def test_criterion_08_m_tau_focal_structure():
    surface, _ = build("M_tau", {"tau": -2.0})
    l_star = math.acosh(2.0) / math.sqrt(2.0)
    u = sample(surface, 1)[0]
    af = pf.adapted_frame(sc.point_geometry(surface, u))
    root_det = pf.find_focal_radius(af, 0.5, 1.2)

    def pushforward(l):
        """Q(l)^T (0, C+, C-): J1 N = C+ E2 + C- E3 pushed along the flow."""
        return as_matrices(pf._q_rows(af, l)[0]).T @ np.array([0.0, af.cplus, af.cminus])

    def signed_bracket(l):
        return float(pushforward(l)[1])

    lo, hi = 0.5, 1.2
    flo = signed_bracket(lo)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        fm = signed_bracket(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    root_push = 0.5 * (lo + hi)
    push_at_star = float(np.linalg.norm(pushforward(l_star)))
    ok = abs(root_det - l_star) < 1e-6 and abs(root_push - l_star) < 1e-6 \
        and push_at_star < 1e-8
    emit(8, ok, f"focal radius {l_star:.6f}: det Q root off by "
                f"{abs(root_det - l_star):.2e}, pushforward zero off by "
                f"{abs(root_push - l_star):.2e} (tol 1e-6); "
                f"|pushforward| at radius {push_at_star:.2e}")


def test_criterion_09_homogeneity_orbits():
    # the Killing fields tangent at every sample span the tangent spaces:
    # a 4-dimensional algebra on M_Gamma, 3-dimensional on the others
    specs = [mz.ModelSpec(kind, {"c": c}) for c in (0.3, 0.7) for kind in ("M_1m1", "M_11")]
    specs += [mz.ModelSpec("M_tau", {"tau": -2.0}), mz.ModelSpec("M_Gamma", {"kappa_gamma": 1.0})]
    rows = [next(r for r in rp.run_verify_suite(rp.SuiteConfig(model=spec, seed=SEED))
                 if r.name == "killing_algebra") for spec in specs]
    worst = max(r.max_residual for r in rows)
    kernels = [int(r.notes.split(",")[0].split()[-1]) for r in rows]
    ok = all(r.passed for r in rows) and kernels == [3, 3, 3, 3, 3, 4]
    emit(9, ok, f"killing_algebra on M_1m1/M_11 (c = 0.3, 0.7), M_tau(-2), M_Gamma(1): "
                f"worst tangency {worst:.2e} (tol 1e-12), kernel dimensions {kernels}")


def test_criterion_10_frame_identity_suite():
    worst = 0.0
    surface, _ = build("M_11", {"c": 0.3})
    checks = pf.frame_identity_checks(sc.point_geometry(surface, sample(surface, 3)))
    assert not checks.skip.any()
    worst = max(worst, np.max(checks.residual))

    surface, _ = build("M_tau", {"tau": -2.0})
    checks = pf.frame_identity_checks(sc.point_geometry(surface, sample(surface, 3)))
    tau_skips = {name for name, skipped in zip(pf.FRAME_ITEMS, checks.skip.any(axis=0)) if skipped}
    worst = max(worst, np.max(checks.residual, initial=0.0, where=checks.skip == 0))
    # the product-frame table requires J1N+J2N principal, which fails on the
    # tube family; the guard must skip it rather than fail it
    guard_ok = tau_skips == {"product_frame_connections"}

    surface, _ = build("M_1m1", {"c": 0.5})
    checks = pf.frame_identity_checks(sc.point_geometry(surface, sample(surface, 1)))
    reason = pf.FRAME_SKIPS[checks.skip[0, pf.FRAME_ITEMS.index("eigenframe_connections")]]
    guard_ok = guard_ok and "lambda_1 != lambda_2" in reason

    ok = worst < 1e-7 and guard_ok
    emit(10, ok, f"frame identities on minimal/tube models: max residual "
                 f"{worst:.2e} (tol 1e-7); hypothesis guards engaged: {guard_ok}")


def test_criterion_11_deterministic_reports():
    cfg = rp.SuiteConfig(model=mz.ModelSpec("M_11", {"c": 0.3}), samples=16, seed=11)
    first = rp.render_json(rp.report_payload(cfg, rp.run_verify_suite(cfg)))
    second = rp.render_json(rp.report_payload(cfg, rp.run_verify_suite(cfg)))
    ok = first == second
    emit(11, ok, f"byte-identical reports for fixed seed: {ok} "
                 f"({len(first)} bytes)")
