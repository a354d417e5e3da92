import csv
import dataclasses
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

from h2h2 import autodiff as ad
from h2h2 import cli
from h2h2 import lorentz as lz
from h2h2 import model_zoo as mz
from h2h2 import parallel_flow as pf
from h2h2 import report as rp
from h2h2 import surface_calculus as sc

from conftest import assert_rows_are_their_sub_batches, counted_chart, scan_of


def run_cli(argv):
    return cli.main(argv)


class TestVerifyCommand:
    def test_all_checks_pass_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(["verify", "--model", "M_1m1", "--c", "0.5",
                        "--samples", "16", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["failed"] == 0
        assert payload["summary"]["passed"] > 10
        names = [r["name"] for r in payload["results"]]
        assert names == sorted(names)

    def test_config_error_exit_two(self, capsys):
        assert run_cli(["verify", "--model", "M_1m1", "--c", "1.5"]) == 2
        err = capsys.readouterr().err
        assert "c out of range (0,1)" in err

    def test_geometric_failure_exit_one(self, capsys):
        # a valid call whose tube is nearly focal: the chart loses rank at a
        # sample point, which is a failed run, not a usage error
        assert run_cli(["verify", "--model", "M_tau", "--tau=-1.0000000000001",
                        "--samples", "20"]) == 1
        assert "error: chart differential is rank-deficient" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "parallel"])
    @pytest.mark.parametrize("argv, message", [
        # the cofactor det Q is cancellation noise (-7.5e-20) at l = 22.5
        (["--model", "M_11", "--c", "0.25", "--l-grid=0:40:2.5"], "error: det Q = "),
        # S(l) is refused as not self-adjoint from |l| ~ 75 on
        (["--model", "M_tau", "--tau", "-2", "--l-grid=0:80:5"],
         "error: parallel shape operator is not self-adjoint"),
        # cosh overflows
        (["--model", "M_tau", "--tau", "-2", "--l-grid=0:2000:500"], "error: overflow encountered"),
    ])
    def test_large_l_grid_exit_one(self, command, argv, message, capsys):
        # a valid call that fails along the parallel flow is a failed run
        # with one error line, not a traceback or a usage error
        assert run_cli([command, *argv, "--samples", "8"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message), err

    def test_bad_l_grid_exit_two(self):
        assert run_cli(["verify", "--model", "M_tau", "--tau", "-2",
                        "--l-grid", "0:1:-0.5"]) == 2

    @pytest.mark.parametrize("command", ["verify", "parallel"])
    @pytest.mark.parametrize("grid", ["1:0:0.1", "0:inf:0.1", "0:1:inf", "nan:1:0.1",
                                      "0:1e300:1e-300"])
    def test_empty_or_non_finite_l_grid_exit_two(self, command, grid, capsys):
        # an empty grid would judge no distance and pass; the others died in
        # numpy or in SuiteConfig.grid
        assert run_cli([command, "--model", "M_tau", "--tau", "-2", "--samples", "8",
                        f"--l-grid={grid}"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "error: --l-grid" in out.err and "Traceback" not in out.err

    @pytest.mark.parametrize("command", ["verify", "parallel", "poincare-dump"])
    @pytest.mark.parametrize("flag, argv", [
        ("--c", ["--model", "M_1m1", "--c", "nan"]),
        ("--c", ["--model", "M_kk", "--c", "inf"]),
        ("--tau", ["--model", "M_tau", "--tau=-inf"]),
        ("--kappa-gamma", ["--model", "M_Gamma", "--kappa-gamma", "nan"]),
        ("--kappa-gamma", ["--model", "M_Gamma", "--kappa-gamma", "inf"]),
        ("--kappa", ["--model", "M_kk", "--c", "0.5", "--kappa", "nan"]),
        ("--kappa", ["--model", "M_kk", "--c", "0.5", "--kappa", "inf"]),
        ("--kappa-tilde", ["--model", "M_kk", "--c", "0.5", "--kappa-tilde", "const:nan"]),
    ])
    def test_non_finite_model_parameter_exit_two(self, command, flag, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run_cli([command, *argv, "--out", str(out)]) == 2
        assert f"error: {flag} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "parallel"])
    @pytest.mark.parametrize("flag, value", [("--l-grid", "0:1:1e-12"),
                                             ("--l-grid", f"0:{rp.MAX_GRID_POINTS}:1"),
                                             ("--samples", str(rp.MAX_SAMPLES + 1))])
    def test_oversized_run_exit_two(self, command, flag, value, capsys):
        # refused before any array is allocated, not run out of memory
        assert run_cli([command, "--model", "M_tau", "--tau", "-2", f"{flag}={value}"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"error: {flag}" in out.err and "Traceback" not in out.err

    def test_size_bounds(self):
        spec = mz.ModelSpec("M_tau", {"tau": -2.0})
        # the largest admitted runs, validated and not run
        rp.SuiteConfig(model=spec, samples=rp.MAX_SAMPLES).validate()
        rp.SuiteConfig(model=spec, l_grid=(0.0, rp.MAX_GRID_POINTS - 1.0, 1.0)).validate()
        for cfg in (rp.SuiteConfig(model=spec, samples=rp.MAX_SAMPLES + 1),
                    rp.SuiteConfig(model=spec, l_grid=(0.0, float(rp.MAX_GRID_POINTS), 1.0))):
            with pytest.raises(rp.ConfigError):
                cfg.validate()
        # 100x the CI and benchmark calls (200 samples, the 2001 points of
        # -2:2:0.002) stays admitted
        rp.SuiteConfig(model=spec, samples=100 * 200,
                       l_grid=(0.0, 100 * 2001 - 1.0, 1.0)).validate()

    def test_single_point_l_grid_runs(self):
        cfg = rp.SuiteConfig(model=mz.ModelSpec("M_tau", {"tau": -2.0}), l_grid=(0.5, 0.5, 0.1))
        cfg.validate()
        assert cfg.grid().tolist() == [0.5]

    def test_missing_model_param_exit_two(self):
        assert run_cli(["verify", "--model", "M_tau"]) == 2

    # chart_rank, shape_self_adjoint and minor_sum_rho held by construction
    # and are deleted checks
    @pytest.mark.parametrize("item", ["bogus=1", "chart_rank=0.5", "shape_self_adjoint=1e-9",
                                      "minor_sum_rho=1e-10"])
    def test_unknown_tolerance_exit_two(self, item, capsys):
        assert run_cli(["verify", "--model", "M_1m1", "--c", "0.5", "--samples", "8",
                        "--tol", item]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines() == [f"error: unknown tolerance name {item.split('=')[0]!r}"]

    def test_negative_seed_exit_two(self, capsys):
        assert run_cli(["verify", "--model", "M_1m1", "--c", "0.5", "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_config_invariants(self):
        cfg = rp.SuiteConfig(model=mz.ModelSpec("M_1m1", {"c": 0.5}), samples=0)
        with pytest.raises(rp.ConfigError):
            cfg.validate()
        cfg = rp.SuiteConfig(model=mz.ModelSpec("M_1m1", {"c": 0.5}),
                             tolerances={"oracle_C": -1.0})
        with pytest.raises(rp.ConfigError):
            cfg.validate()

    def test_tolerance_override_can_fail_suite(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(["verify", "--model", "M_1m1", "--c", "0.5",
                        "--samples", "8", "--tol", "oracle_lambda=1e-18",
                        "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["summary"]["failed"] >= 1

    def test_generic_curve_isoparametric_is_informational(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli(["verify", "--model", "M_kk", "--c", "0.5",
                        "--kappa", "tanh", "--kappa-tilde", "one",
                        "--samples", "8", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        row = next(r for r in payload["results"] if r["name"] == "isoparametric_spread")
        assert row["pass"] is None
        assert "informational" in row["notes"]
        assert row["max_residual"] > 1e-3

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli(["verify", "--model", "M_tau", "--tau", "-2",
                        "--samples", "8", "--format", "csv", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert {"name", "max_residual", "tolerance", "pass", "n_samples", "notes"} \
            <= set(rows[0].keys())
        assert any(r["name"] == "m_tau_constraint" and r["pass"] == "true" for r in rows)

    def test_every_l_grid_node_focal_skips_the_spread(self, tmp_path, capsys):
        # a one-node grid at the tube radius of M_tau(-2) leaves no spread to
        # judge: the check is skipped, not passed with residual 0
        out = tmp_path / "r.json"
        l_star = mz.mtau_focal_radius(-2.0)
        assert run_cli(["verify", "--model", "M_tau", "--tau", "-2", "--samples", "8",
                        f"--l-grid={l_star!r}:{l_star!r}:0.1", "--out", str(out)]) == 0
        row = next(r for r in json.loads(out.read_text())["results"]
                   if r["name"] == "isoparametric_spread")
        assert row["pass"] is None and row["max_residual"] is None
        assert row["n_samples"] == 0
        assert "every l-grid node is focal" in row["notes"]
        assert "[SKIP] isoparametric_spread" in capsys.readouterr().err

    def test_degenerate_angle_skips_the_closed_form(self, tmp_path):
        # C = 1 - 2e-10 leaves no adapted frame to judge the closed form on
        out = tmp_path / "r.json"
        assert run_cli(["verify", "--model", "M_1m1", "--c", "1e-10", "--samples", "8",
                        "--out", str(out)]) == 0
        rows = {r["name"]: r for r in json.loads(out.read_text())["results"]}
        for name in ("parallel_lambda_closed_form", "mean_curvature_two_forms"):
            assert rows[name]["pass"] is None and rows[name]["max_residual"] is None
            assert rows[name]["n_samples"] == 0
            assert rows[name]["notes"] == "skipped: degenerate product angle (C^2 = 1)"

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli(["verify", "--model", "M_11", "--c", "0.3",
                            "--samples", "16", "--seed", "7", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestParallelCommand:
    def test_focal_row_flagged(self, tmp_path):
        out = tmp_path / "p.json"
        code = run_cli(["parallel", "--model", "M_tau", "--tau", "-2",
                        "--samples", "4", "--l-grid=-0.5:1.2:0.01",
                        "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        l_star = mz.mtau_focal_radius(-2.0)
        focal_rows = [r for r in rows if r["focal"]]
        assert focal_rows
        assert min(abs(r["l"] - l_star) for r in focal_rows) < 0.01

    def test_constant_h_column(self, tmp_path):
        out = tmp_path / "p.json"
        assert run_cli(["parallel", "--model", "M_1m1", "--c", "0.3",
                        "--samples", "4", "--l-grid=-0.5:0.5:0.1",
                        "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        hs = [r["H_mean"] for r in rows]
        assert max(hs) - min(hs) < 1e-9
        assert all(r["H_spread"] < 1e-9 for r in rows)

    def test_csv_cells_are_plain_numbers(self, capsys):
        assert run_cli(["parallel", "--model", "M_tau", "--tau", "-2",
                        "--l-grid=-0.5:1.2:0.01", "--format", "csv"]) == 0
        text = capsys.readouterr().out
        assert "np.float64(" not in text
        header, *rows = list(csv.reader(text.splitlines()))
        assert header == ["l", "H_mean", "H_spread", "lambda_spread", "min_abs_detQ", "focal"]
        assert any(row[5] == "true" for row in rows)
        for *cells, focal in rows:
            assert focal in ("true", "false")
            # a focal row leaves H_mean and the two spreads empty
            for cell in cells if focal == "false" else (cells[0], cells[4]):
                float(cell)

    def test_json_rows_hold_plain_floats(self):
        cfg = rp.SuiteConfig(model=mz.ModelSpec("M_tau", {"tau": -2.0}),
                             l_grid=(-0.5, 1.2, 0.01))
        for row in rp.parallel_rows(cfg):
            assert type(row["focal"]) is bool
            for key in ("l", "H_mean", "H_spread", "lambda_spread", "min_abs_detQ"):
                assert row[key] is None or type(row[key]) is float

    def test_rows_equal_the_per_row_code(self):
        # the record of each node, as the per-row code built it from the scan
        cfg = rp.SuiteConfig(model=mz.ModelSpec("M_tau", {"tau": -1.5}),
                             l_grid=(-2.0, 2.0, 0.002))
        surface, _ = mz.build_model(cfg.model)
        scan = scan_of(surface, rp.sobol_points(surface.domain, 8, 0), cfg.grid())
        columns = (scan.l, scan.h_mean, scan.h_spread, scan.lambda_spread,
                   scan.min_abs_detq, scan.focal)
        expected = [{"l": l, "H_mean": None if math.isnan(h) else h,
                     "H_spread": None if math.isnan(hs) else hs,
                     "lambda_spread": None if math.isnan(ls) else ls,
                     "min_abs_detQ": d, "focal": f}
                    for l, h, hs, ls, d, f in zip(*(c.tolist() for c in columns))]
        rows = rp.parallel_rows(cfg)
        assert list(rows) == expected
        assert any(r["focal"] for r in rows)
        assert [list(r) for r in rows] == [list(rp.PARALLEL_COLUMNS)] * len(rows)

    def test_bad_step_exit_two(self):
        assert run_cli(["parallel", "--model", "M_1m1", "--c", "0.3",
                        "--l-grid", "0:1:0"]) == 2


class TestTables:
    def test_curvature_catalog(self, capsys):
        assert run_cli(["table", "curvature-catalog"]) == 0
        text = capsys.readouterr().out
        assert "M_11(c=0.5)" in text
        assert "M_tau(tau=-2.0)" in text

    def test_catalog_values(self):
        rows = rp.curvature_catalog_rows()
        row = next(r for r in rows if r["model"] == "M_11(c=0.5)")
        s = 1 / math.sqrt(2)
        assert row["C"] == pytest.approx(0.0, abs=1e-12)
        assert row["lambda1"] == pytest.approx(-s, abs=1e-10)
        assert row["lambda3"] == pytest.approx(s, abs=1e-10)
        assert row["H"] == pytest.approx(0.0, abs=1e-10)
        row = next(r for r in rows if r["model"] == "M_tau(tau=-2.0)")
        assert row["C"] == pytest.approx(0.0, abs=1e-10)
        assert row["lambda2"] == pytest.approx(0.40824829, abs=1e-7)
        assert row["lambda3"] == pytest.approx(1.22474487, abs=1e-7)

    def test_detq_table(self):
        rows = rp.detq_table_rows()
        k2 = [r for r in rows if r["k"] == 2]
        assert all(r["abs_diff"] < 1e-5 for r in k2)
        k8 = [r for r in rows if r["k"] == 8]
        assert all(r["abs_diff"] < 1e-3 for r in k8)

    def test_lemma_table_csv(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(["table", "lemma-residuals", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        skipped = [r for r in rows if r["status"] == "skipped"]
        assert skipped
        assert any("lambda_1 != lambda_2" in r["reason"] for r in skipped)

    def test_unknown_table(self):
        with pytest.raises(SystemExit):
            run_cli(["table", "bogus"])


class TestPoincareDump:
    def test_projection_roundtrip(self):
        assert rp.poincare_project((1.0, 0.0, 0.0)) == (0.0, 0.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = rng.uniform(-0.6, 0.6, size=2)
            # the disk point lifted to the hyperboloid
            r2 = d[0] * d[0] + d[1] * d[1]
            x = np.array([1.0 + r2, 2.0 * d[0], 2.0 * d[1]]) / (1.0 - r2)
            assert abs(-x[0] ** 2 + x[1] ** 2 + x[2] ** 2 + 1.0) < 1e-12
            back = rp.poincare_project(x)
            assert abs(back[0] - d[0]) < 1e-12
            assert abs(back[1] - d[1]) < 1e-12

    def test_dump_file_format(self, tmp_path):
        out = tmp_path / "disk.csv"
        assert run_cli(["poincare-dump", "--model", "M_Gamma",
                        "--kappa-gamma", "1", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert rows
        assert set(rows[0].keys()) == {"factor", "u1", "u2", "u3", "disk_x", "disk_y"}
        for r in rows:
            assert r["factor"] in ("1", "2")
            d2 = float(r["disk_x"]) ** 2 + float(r["disk_y"]) ** 2
            assert d2 < 1.0

    @pytest.mark.parametrize("spec", [
        mz.ModelSpec("M_Gamma", {"kappa_gamma": 1.0}),
        mz.ModelSpec("M_kk", {"c": 0.5, "kappa": "tanh", "kappa_tilde": "one"})], ids=str)
    def test_dump_equals_per_point_reference(self, spec, tmp_path):
        # the grid, then the coordinate lines through the centre, each point
        # by the chart call of its batch of one and projected factor by factor
        surface, _ = mz.build_model(spec)
        dom = surface.domain
        axes = [np.linspace(d[0], d[1], rp.POINCARE_GRID_N) for d in dom]
        points = [[a, b, c] for a in axes[0] for b in axes[1] for c in axes[2]]
        center = [0.5 * (d[0] + d[1]) for d in dom]
        for axis in range(3):
            for v in np.linspace(dom[axis][0], dom[axis][1], rp.POINCARE_LINE_N):
                points.append(center[:axis] + [v] + center[axis + 1:])
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["factor", "u1", "u2", "u3", "disk_x", "disk_y"])
        for u in points:
            x = surface.point(np.array([u], dtype=float))[0]
            for factor, part in ((1, x[:3]), (2, x[3:])):
                w.writerow([factor, *(repr(float(v)) for v in u),
                            *(repr(float(d)) for d in rp.poincare_project(part))])
        rp.poincare_dump(spec, str(tmp_path / "disk.csv"))
        assert (tmp_path / "disk.csv").read_text() == buf.getvalue()

    def test_dump_requires_out(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["poincare-dump", "--model", "M_Gamma", "--kappa-gamma", "1"])
        assert exc.value.code == 2


class TestSobol:
    def test_deterministic(self):
        dom = ((-1, 1), (0, 2), (3, 4))
        a = rp.sobol_points(dom, 16, 3)
        b = rp.sobol_points(dom, 16, 3)
        assert np.array_equal(a, b)
        c = rp.sobol_points(dom, 16, 4)
        assert not np.array_equal(a, c)

    def test_in_domain(self):
        dom = ((-1, 1), (0, 2), (3, 4))
        pts = rp.sobol_points(dom, 32, 0)
        for i, (lo, hi) in enumerate(dom):
            assert np.all(pts[:, i] >= lo) and np.all(pts[:, i] <= hi)

    def test_bitwise_equal_to_scipy(self):
        from scipy.stats import qmc

        dom = ((-1.3, 2.7), (0.1, 0.9), (-5.0, 3.0))
        lo, hi = [d[0] for d in dom], [d[1] for d in dom]
        for seed in range(20):
            for n in (1, 2, 3, 8, 32, 50, 100, 200, 1000):
                eng = qmc.Sobol(d=3, scramble=True, seed=seed)
                ref = eng.random(1) if n == 1 else \
                    eng.random_base2(math.ceil(math.log2(n)))[:n]
                assert np.array_equal(rp.sobol_points(dom, n, seed),
                                      qmc.scale(ref, lo, hi)), (seed, n)

    @pytest.mark.parametrize("dom", [((0, 1), (2, 2), (0, 1)), ((0, 1), (0, 1), (1, 0))])
    def test_empty_interval_raises(self, dom):
        with pytest.raises(ValueError):
            rp.sobol_points(dom, 8, 0)


NO_SCIPY_RUN = """
import json
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from h2h2 import cli
out = sys.argv[1]
codes = [
    cli.main(["verify", "--model", "M_1m1", "--c", "0.5", "--samples", "8",
              "--out", out + "/verify.json"]),
    cli.main(["parallel", "--model", "M_tau", "--tau", "-2", "--samples", "8",
              "--out", out + "/parallel.json"]),
    cli.main(["table", "lemma-residuals", "--out", out + "/lemma.csv"]),
]
print(json.dumps({"codes": codes,
                  "scipy_modules": [m for m in sys.modules if m.split(".")[0] == "scipy"],
                  "placeholder_kept": sys.modules["scipy"] is None}))
"""


def test_cli_runs_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "codes": [0, 0, 0], "scipy_modules": ["scipy"], "placeholder_kept": True}
    assert sorted(os.listdir(tmp_path)) == ["lemma.csv", "parallel.json", "verify.json"]


class TestWriteAtomic:
    def test_mode_matches_plain_open_and_no_temp_left(self, tmp_path):
        plain = tmp_path / "plain.json"
        with open(plain, "w") as f:
            f.write("{}\n")
        out = tmp_path / "r.json"
        rp.write_atomic(str(out), "{}\n")
        assert out.read_text() == "{}\n"
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
        assert sorted(os.listdir(tmp_path)) == ["plain.json", "r.json"]

    def test_overwrite_keeps_existing_mode(self, tmp_path):
        out = tmp_path / "r.json"
        out.write_text("old\n")
        out.chmod(0o640)
        rp.write_atomic(str(out), "new\n")
        assert out.read_text() == "new\n"
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    def test_failed_write_leaves_target_and_no_temp(self, tmp_path):
        out = tmp_path / "r.json"
        out.write_text("old\n")
        with pytest.raises(TypeError):
            rp.write_atomic(str(out), None)
        assert out.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["r.json"]

    def test_concurrent_writers_leave_one_complete_report(self, tmp_path):
        out = tmp_path / "r.json"
        texts = [f"{{\"writer\": {i}, \"pad\": \"{str(i) * 50_000}\"}}\n" for i in range(4)]
        errors = []

        def writer(text):
            try:
                for _ in range(20):
                    rp.write_atomic(str(out), text)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(t,)) for t in texts]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert out.read_text() in texts
        assert os.listdir(tmp_path) == ["r.json"]


def test_near_degenerate_tube_passes():
    # tau = -1.0001 has lambda_big ~ 100; with exact derivatives its
    # structural and frame residuals stay far below the bars
    cfg = rp.SuiteConfig(model=mz.ModelSpec("M_tau", {"tau": -1.0001}), samples=200, seed=0)
    results = rp.run_verify_suite(cfg)
    assert [r.name for r in results if r.passed is False] == []


def test_verify_judges_the_structural_rows_in_one_call(monkeypatch):
    # the four structural equations on the first n_fd = 50 samples and the
    # nullspace normal on all of them are each one batched call
    calls = {"structural_residuals": [], "_normal_from_constraints": []}
    for name, log in calls.items():
        original = getattr(sc, name)

        def counted(pg, original=original, log=log):
            log.append(pg.val.shape[:-1])
            return original(pg)

        monkeypatch.setattr(sc, name, counted)
    rp.run_verify_suite(rp.SuiteConfig(model=mz.ModelSpec("M_tau", {"tau": -2.0}), samples=64))
    assert calls == {"structural_residuals": [(50,)], "_normal_from_constraints": [(64,)]}


def test_m_tau_constraint_reads_the_batch(monkeypatch):
    # m_tau_constraint judges <p, q> = tau on every verify sample, whose
    # chart points the batch already holds: no float chart evaluation
    build = mz.build_model
    logs = []

    def counted(spec):
        surface, oracle = build(spec)
        counted_surface, log = counted_chart(surface)
        logs.append(log)
        return counted_surface, oracle

    monkeypatch.setattr(mz, "build_model", counted)
    results = rp.run_verify_suite(rp.SuiteConfig(model=mz.ModelSpec("M_tau", {"tau": -2.0}),
                                                 samples=120))
    (log,) = logs
    assert all(isinstance(u[0], ad.Jet) for u in log)
    (check,) = [r for r in results if r.name == "m_tau_constraint"]
    assert check.passed and check.n_samples == 120


def test_verify_evaluates_the_samples_in_one_chart_call(monkeypatch):
    # one jet pass takes all samples, and the parallel-shape check makes one
    # over its 3 points at both distances; killing_algebra and the scan read
    # the sample bundle.  No point is evaluated without derivatives, and
    # chart_constraints reads the sample points from the batch.
    build = mz.build_model
    calls = []

    def counted(spec):
        surface, oracle = build(spec)
        counted_surface, log = counted_chart(surface)
        calls.append(log)
        return counted_surface, oracle

    monkeypatch.setattr(mz, "build_model", counted)
    rp.run_verify_suite(rp.SuiteConfig(model=mz.ModelSpec("M_1m1", {"c": 0.4}), samples=20))
    (log,) = calls
    assert all(isinstance(u[0], ad.Jet) for u in log)
    assert [len(u[0].val) for u in log] == [20, 6]


def test_verify_reads_third_derivatives_on_the_structural_rows_only(monkeypatch):
    # the first n_fd = 50 samples take one third-order pass, for the
    # structural equations and the frame identities, and the other 150 one
    # second-order pass; the parallel chart takes both distances in one
    # second-order pass, the scan reads the sample bundle, and no focal
    # value is bisected
    build = mz.build_model
    calls, bisections = [], []

    def counted(spec):
        surface, oracle = build(spec)
        counted_surface, log = counted_chart(surface)
        calls.append(log)
        return counted_surface, oracle

    monkeypatch.setattr(mz, "build_model", counted)
    monkeypatch.setattr(pf, "find_focal_radius", lambda *args: bisections.append(args))
    results = rp.run_verify_suite(rp.SuiteConfig(model=mz.ModelSpec("M_tau", {"tau": -2.0}),
                                                 samples=200, l_grid=(-1.0, 1.0, 0.01)))
    (log,) = calls
    passes = [(len(u[0].val), 2 if u[0].ddd is None else 3) for u in log]
    assert passes == [(50, 3), (150, 2), (6, 2)]
    assert bisections == []
    (spread,) = [r for r in results if r.name == "isoparametric_spread"]
    assert "focal l excluded: [0.93]" in spread.notes


@pytest.mark.parametrize("spec", [mz.ModelSpec("M_1m1", {"c": 0.3}),
                                  mz.ModelSpec("M_1m1", {"c": 0.5}),
                                  mz.ModelSpec("M_11", {"c": 0.6}),
                                  mz.ModelSpec("M_tau", {"tau": -2.0}),
                                  mz.ModelSpec("M_kk", {"c": 0.5, "kappa": "tanh",
                                                        "kappa_tilde": "one"})])
@pytest.mark.parametrize("l", [None, 0.3])
def test_batch_chart_values_equal_batches_of_one(spec, l):
    # a value-only chart pass on coordinate arrays, as poincare_dump makes
    # over its grid, equals each point's batch of one and the values of the
    # jet pass bit for bit; the parallel charts divide by jets
    model, _ = mz.build_model(spec)

    def surface(n):
        return model if l is None else pf.parallel_surface(model, np.full(n, l))

    axes = [np.linspace(d[0], d[1], 5) for d in model.domain]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    points = surface(len(grid)).point(grid)
    assert points.shape == (125, 6)
    assert_rows_are_their_sub_batches(lambda U: surface(len(U)).point(U), grid)
    assert np.array_equal(sc.chart_jet(surface(len(grid)), grid).val, points)


# the models whose principal curvatures are constant: every one is homogeneous
HOMOGENEOUS = list(mz.CATALOG) + [mz.ModelSpec("M_tau", {"tau": -1.0001})] + [
    mz.ModelSpec("M_kk", {"c": 0.5, "kappa": k, "kappa_tilde": kt})
    for k in ("one", "minus-one") for kt in ("one", "minus-one")]


def killing_figures(row) -> tuple:
    """(kernel dimension, fields taken) from the notes of killing_algebra."""
    kernel, taken = row.notes.split(";")[0].split(", ")[:2]
    return int(kernel.split()[-1]), int(taken.split()[-1])


def verify_rows(spec, **kwargs) -> dict:
    return {r.name: r for r in rp.run_verify_suite(rp.SuiteConfig(model=spec, **kwargs))}


def plant_chart(monkeypatch, make_chart):
    """``build_model`` returns ``make_chart(chart)`` in place of the chart it
    builds, on the same domain, with the oracle of the model asked for."""
    build = mz.build_model

    def planted(spec):
        surface, oracle = build(spec)
        return sc.Hypersurface(chart=make_chart(surface.chart), domain=surface.domain,
                               name="planted"), oracle

    monkeypatch.setattr(mz, "build_model", planted)


def plant_values(monkeypatch, transform):
    """Every chart evaluation returns ``transform(p, q, n)`` of its values."""
    plant_chart(monkeypatch, lambda chart: lambda u: transform(*chart(u)))


def plant_curvature_bump(monkeypatch, eps):
    """The chart of M_Gamma on the curve kappa(r) = 1 + eps sin r."""
    curve = lz.PlaneCurve(lambda r: 1.0 + eps * ad.sin(r))

    def chart(u):
        r, rho, phi = u
        g, n = curve.jet(r)
        return g, mz._polar(rho, phi), [*n, 0.0, 0.0, 0.0]

    plant_chart(monkeypatch, lambda _: chart)


def plant_wrong_horocycle(monkeypatch, kind):
    """The chart of the horocycle product ``kind`` at c = 0.5 + 1e-6."""
    plant_chart(monkeypatch, lambda _: mz.make_horocycle_product(kind, 0.5 + 1e-6)[0].chart)


class TestKillingAlgebra:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("spec", HOMOGENEOUS, ids=lambda s: f"{s.kind}{s.params}")
    def test_homogeneous_models_pass(self, spec, seed):
        # the 200-sample bundle of verify: 4 tangent Killing fields on
        # M_Gamma (a one-parameter group along the curve, PSL(2,R) on H²),
        # 3 elsewhere, and they span every tangent space
        surface, oracle = mz.build_model(spec)
        _, pgs = rp._sample_bundle(surface, rp.sobol_points(surface.domain, 200, seed), 50)
        row = rp._killing_algebra(pgs, rp.DEFAULT_TOLERANCES["killing_algebra"],
                                  oracle.constant_curvatures)
        dim = 4 if spec.kind == "M_Gamma" else 3
        assert row.passed is True and row.n_samples == 200
        assert killing_figures(row) == (dim, dim)

    @pytest.mark.parametrize("kappa, kappa_tilde, kernel", [("tanh", "one", 1), ("0.5", "-2", 2)])
    def test_negative_controls_are_informational(self, kappa, kappa_tilde, kernel):
        row = verify_rows(mz.ModelSpec("M_kk", {"c": 0.5, "kappa": kappa,
                                                "kappa_tilde": kappa_tilde}))["killing_algebra"]
        assert row.passed is None and row.max_residual > 0.1
        assert killing_figures(row) == (kernel, 3)
        assert "informational" in row.notes and "(within tol: False)" in row.notes

    def test_a_curvature_bump_fails(self, monkeypatch):
        # eps = 1e-10: the tangency reads about 0.165 eps, far below what
        # oracle_lambda's bar sees
        plant_curvature_bump(monkeypatch, 1e-10)
        rows = verify_rows(mz.ModelSpec("M_Gamma", {"kappa_gamma": 1.0}))
        row = rows["killing_algebra"]
        assert row.passed is False and 1e-11 < row.max_residual < 1e-10
        assert killing_figures(row) == (3, 4)
        assert rows["oracle_lambda"].passed is True

    @pytest.mark.parametrize("kind", ["M_1m1", "M_11"])
    def test_a_wrong_horocycle_parameter_fails_the_oracles(self, kind, monkeypatch):
        # the chart of c = 0.5 + 1e-6 is still homogeneous; the oracles of
        # c = 0.5 see it
        plant_wrong_horocycle(monkeypatch, kind)
        rows = verify_rows(mz.ModelSpec(kind, {"c": 0.5}), samples=8)
        assert rows["killing_algebra"].passed is True
        assert rows["oracle_C"].passed is False and rows["oracle_lambda"].passed is False

    def test_skipped_below_six_samples(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["verify", "--model", "M_tau", "--tau", "-2", "--samples", "5",
                        "--out", str(out)]) == 0
        row = next(r for r in json.loads(out.read_text())["results"]
                   if r["name"] == "killing_algebra")
        assert row["pass"] is None and row["max_residual"] is None
        assert row["notes"] == "skipped: fewer samples than the 6 generators of so(1,2) + so(1,2)"


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1"])
def test_a_tolerance_must_be_finite_and_positive(value, capsys):
    assert run_cli(["verify", "--model", "M_1m1", "--c", "0.5", "--samples", "8",
                    "--tol", f"oracle_C={value}"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        f"error: tolerance oracle_C must be finite and positive, got {float(value)}"]


# the models of the planted defects, as verify's flags
M_1M1 = ("--model", "M_1m1", "--c", "0.4")
M_1M1_HALF = ("--model", "M_1m1", "--c", "0.5")
M_GAMMA = ("--model", "M_Gamma", "--kappa-gamma", "1")
M_TAU = ("--model", "M_tau", "--tau", "-2")


def plant_wrapped(monkeypatch, owner, name, wrap):
    """``owner.name`` becomes ``wrap(original)``."""
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))


def normal_off_the_product(monkeypatch):
    # a closed-form normal with a 1e-7 (p, 0) component: still orthogonal to
    # the chart, but not tangent to H² x H²
    plant_values(monkeypatch, lambda p, q, n: (p, q, [n[i] + 1e-7 * p[i] for i in range(3)]
                                               + list(n[3:])))


def rho_off(monkeypatch):
    # the bundle's scalar curvature off by 1e-9
    plant_wrapped(monkeypatch, sc, "_geometry", lambda geometry: lambda jet: dataclasses.replace(
        geometry(jet), rho=geometry(jet).rho + 1e-9))


def derivatives_off(change):
    """The structural equations read ``change(pg, d)`` for the exact
    derivatives d of the bundle pg."""
    return lambda monkeypatch: plant_wrapped(
        monkeypatch, sc, "point_derivatives", lambda derivatives: lambda pg: change(
            pg, derivatives(pg)))


def frame_derivatives_off(name, eps):
    """The frame identities read the derivative ``name`` of the bundle scaled
    by 1 + eps."""
    return lambda monkeypatch: plant_wrapped(
        monkeypatch, pf, "point_derivatives", lambda derivatives: lambda pg: derivatives(
            pg)._replace(**{name: getattr(derivatives(pg), name) * (1.0 + eps)}))


# one planted defect per judged row: verify with it still writes its report,
# and the row FAILs at its default bar
DEFECTS = {
    # nabla V = C A - T A with the sign of the C dN term of dV flipped
    "V_derivative_identity": (M_1M1, derivatives_off(lambda pg, d: d._replace(
        dV=d.dV + 2.0 * np.asarray(pg.C)[..., None, None] * d.dN))),
    "av_zero": (M_TAU, normal_off_the_product),
    # p scaled by 1 + 1e-9; the curve factor's normal stays orthogonal to it
    "chart_constraints": (M_GAMMA, lambda monkeypatch: plant_values(
        monkeypatch, lambda p, q, n: ([x * (1.0 + 1e-9) for x in p], q, n))),
    # dA = g^-1 db, without the term of dg
    "codazzi_equation": (M_TAU, derivatives_off(lambda pg, d: d._replace(
        dA=np.linalg.solve(pg.g[..., None, :, :], d.db)))),
    "detq_derivatives_high": (M_TAU, rho_off),
    "detq_derivatives_low": (M_TAU, rho_off),
    "frame_identities": (M_1M1, frame_derivatives_off("dN", 1e-6)),
    # Gamma^i_lj in place of Gamma^l_ij
    "gauss_equation": (M_1M1, lambda monkeypatch: plant_wrapped(
        monkeypatch, sc, "christoffels", lambda christoffels: lambda pg: christoffels(
            pg).swapaxes(-3, -2))),
    "grad_C_identity": (M_TAU, normal_off_the_product),
    "isoparametric_spread": (M_GAMMA, lambda monkeypatch: plant_curvature_bump(monkeypatch, 1e-8)),
    "killing_algebra": (M_GAMMA, lambda monkeypatch: plant_curvature_bump(monkeypatch, 1e-10)),
    # the chart of tau = -2 - 1e-9
    "m_tau_constraint": (M_TAU, lambda monkeypatch: plant_chart(
        monkeypatch, lambda _: mz.make_M_tau(-2.0 - 1e-9)[0].chart)),
    # S(l) scaled by 1 + 1e-8
    "mean_curvature_two_forms": (M_1M1, lambda monkeypatch: plant_wrapped(
        monkeypatch, pf, "_flow", lambda flow: lambda af, l, hyperbolic=None: [
            [x * (1.0 + 1e-8) for x in row] for row in flow(af, l, hyperbolic)])),
    "oracle_C": (M_1M1_HALF, lambda monkeypatch: plant_wrong_horocycle(monkeypatch, "M_1m1")),
    "oracle_lambda": (M_1M1_HALF, lambda monkeypatch: plant_wrong_horocycle(monkeypatch, "M_1m1")),
    "oracle_normal": (M_TAU, normal_off_the_product),
    # the closed form fed kappa + 1e-6
    "parallel_lambda_closed_form": (M_1M1, lambda monkeypatch: plant_wrapped(
        monkeypatch, rp, "_constant_curvature_pair", lambda pair: lambda spec: (
            pair(spec)[0] + 1e-6, pair(spec)[1]))),
    # the parallel chart at l (1 + 1e-5)
    "parallel_shape_consistency": (M_TAU, lambda monkeypatch: plant_wrapped(
        monkeypatch, pf, "parallel_surface", lambda parallel: lambda M, l: parallel(
            M, np.asarray(l) * (1.0 + 1e-5)))),
}


@pytest.mark.parametrize("name", sorted(rp.DEFAULT_TOLERANCES))
def test_every_judged_row_can_fail(name, monkeypatch, tmp_path):
    # a row that no defect can fail holds by construction and is no check
    assert name in DEFECTS, f"no planted defect fails {name}"
    model, plant = DEFECTS[name]
    plant(monkeypatch)
    out = tmp_path / "r.json"
    assert run_cli(["verify", *model, "--out", str(out)]) == 1
    (row,) = [r for r in json.loads(out.read_text())["results"] if r["name"] == name]
    assert row["pass"] is False and row["tolerance"] == rp.DEFAULT_TOLERANCES[name]


def test_every_planted_defect_names_a_row():
    assert DEFECTS.keys() == rp.DEFAULT_TOLERANCES.keys()


@pytest.mark.parametrize("model", [M_1M1_HALF, M_GAMMA, M_TAU])
def test_report_rows_are_the_tolerance_table(model, tmp_path):
    # M_Gamma(1) has a degenerate product angle, so its parallel rows are skips
    out = tmp_path / "r.json"
    assert run_cli(["verify", *model, "--samples", "16", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert {r["name"] for r in payload["results"]} == rp.DEFAULT_TOLERANCES.keys()
    assert payload["config"]["tolerances"].keys() == rp.DEFAULT_TOLERANCES.keys()


M_KK_TANH = mz.ModelSpec("M_kk", {"c": 0.5, "kappa": "tanh", "kappa_tilde": "one"})
M_1M1_SPEC = mz.ModelSpec("M_1m1", {"c": 0.4})
M_TAU_15 = mz.ModelSpec("M_tau", {"tau": -1.5})

# one planted defect per frame item, on a model whose frame rows in verify
# judge the item; each scales one exact derivative by 1 + 1e-6.  On the
# horocycle products db, dA and dC vanish, so the three-curvature relations
# are reached on M_tau, at tau = -1.5: at tau = -2 the scaled db moves
# |grad lambda| past the constant-curvature guard at one of the three rows.
FRAME_DEFECTS = {
    "v_direction_identity": (M_KK_TANH, frame_derivatives_off("dA", 1e-6)),
    "eigenframe_connections": (M_1M1_SPEC, frame_derivatives_off("dV", 1e-6)),
    "product_frame_connections": (M_1M1_SPEC, frame_derivatives_off("dN", 1e-6)),
    "connection_antisymmetry": (M_1M1_SPEC, frame_derivatives_off("dg", 1e-6)),
    "codazzi_frame_relation": (M_TAU_15, frame_derivatives_off("db", 1e-6)),
    "diagonal_connection_formula": (M_TAU_15, frame_derivatives_off("db", 1e-6)),
    "connection_pairing": (M_TAU_15, frame_derivatives_off("db", 1e-6)),
}


def verify_frame_rows(spec):
    """The bundle of the rows verify judges the frame identities on, at 200
    samples and seed 0."""
    surface, _ = mz.build_model(spec)
    pg3, _ = rp._sample_bundle(surface, rp.sobol_points(surface.domain, 200, 0), 50)
    return pg3[:3]


@pytest.mark.parametrize("item", pf.FRAME_ITEMS)
def test_every_frame_item_can_fail(item, monkeypatch):
    # an item no defect can move is folded into the row's max unseen
    model, plant = FRAME_DEFECTS[item]
    column = pf.FRAME_ITEMS.index(item)
    bar = rp.DEFAULT_TOLERANCES["frame_identities"]
    pg = verify_frame_rows(model)
    clean = pf.frame_identity_checks(pg)
    plant(monkeypatch)
    planted = pf.frame_identity_checks(pg)
    assert not clean.skip[:, column].any() and not planted.skip[:, column].any()
    assert np.max(clean.residual[:, column]) <= bar < np.max(planted.residual[:, column])


def test_every_frame_item_has_a_planted_defect():
    assert FRAME_DEFECTS.keys() == set(pf.FRAME_ITEMS)


@pytest.mark.parametrize("spec, notes", [
    (mz.ModelSpec("M_tau", {"tau": -2.0}),
     "hypothesis-guarded skips: product_frame_connections; "
     "smallest eigenvalue gap divided by: 4.082e-01"),
    (mz.ModelSpec("M_1m1", {"c": 0.5}),
     "hypothesis-guarded skips: codazzi_frame_relation, connection_antisymmetry, "
     "connection_pairing, diagonal_connection_formula, eigenframe_connections"),
])
def test_frame_row_reads_the_arrays(spec, notes):
    row = verify_rows(spec, samples=200, seed=0)["frame_identities"]
    checks = pf.frame_identity_checks(verify_frame_rows(spec))
    skipped = sorted(name for name, codes in zip(pf.FRAME_ITEMS, checks.skip.T) if codes.any())
    assert row.notes.split("; ")[0] == "hypothesis-guarded skips: " + ", ".join(skipped)
    assert row.notes == notes
    judged = checks.residual[checks.skip == 0]
    assert row.max_residual == float(np.max(judged)) and row.passed is True
