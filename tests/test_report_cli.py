import csv
import json
import math
import os
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

from h2h2 import cli
from h2h2 import model_zoo as mz
from h2h2 import report as rp


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

    def test_bad_l_grid_exit_two(self):
        assert run_cli(["verify", "--model", "M_tau", "--tau", "-2",
                        "--l-grid", "0:1:-0.5"]) == 2

    def test_missing_model_param_exit_two(self):
        assert run_cli(["verify", "--model", "M_tau"]) == 2

    def test_unknown_tolerance_exit_two(self):
        assert run_cli(["verify", "--model", "M_1m1", "--c", "0.5",
                        "--tol", "bogus=1"]) == 2

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
            x = rp.poincare_lift(d[0], d[1])
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

    def test_dump_requires_out(self):
        assert run_cli(["poincare-dump", "--model", "M_Gamma",
                        "--kappa-gamma", "1"]) == 2


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
