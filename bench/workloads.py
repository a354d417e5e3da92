"""Workloads of the h2h2 benchmark and the checks made on their outputs.

A workload is a fixed list of CLI calls (argv for ``h2h2.cli.main``) built
from the run's seed.  The expected values the checks compare against are
computed here from the paper's closed forms, never taken from the program:

* principal curvatures and product angle C at sample points:
  M_1m1 {0, sqrt(1-c), sqrt(c)}, M_11 {-sqrt(c), 0, sqrt(1-c)},
  M_Gamma {0, 0, kappa} with C = 1, M_tau {0, lambda_small, lambda_big}
  with C = 0, M_kk C = 1 - 2c and one zero curvature;
* the focal radius of M_tau, arccosh(-tau)/sqrt(2), and of M_Gamma,
  atanh(1/kappa), and the parallel-curve curvature
  H(l) = (kappa cosh l - sinh l)/(cosh l - kappa sinh l);
* the l = 0 second derivative of det Q, 2 sigma_2(lambda) + 1.

Every check is a pure function of the parsed outputs, so the self-check can
feed it perturbed values and confirm it rejects them.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from typing import Optional

# point_geometry samples per model for the principal-curvature / C check
SAMPLE_POINTS = 4

# bars of the benchmark's own checks; every perturbation in selfcheck.py is
# far outside them, and the measured deviations are far inside
LAMBDA_TOL = 1e-8          # relative to max(1, |lambda|)
C_TOL = 1e-9
H_REL_TOL = 1e-9           # relative to max(1, |H|)
SPREAD_REL_TOL = 1e-8      # isoparametric spread relative to max(1, |H_mean|)
DETQ2_TOL = 1e-9           # relative to max(1, |2 sigma_2 + 1|)
LEMMA_TOL = 1e-6           # frame identities at the chart centre


@dataclass(frozen=True)
class Model:
    kind: str
    params: tuple  # ((name, value), ...) in ModelSpec form

    def param(self, name):
        return dict(self.params)[name]

    def argv(self) -> list:
        flags = {"c": "--c", "tau": "--tau", "kappa_gamma": "--kappa-gamma",
                 "kappa": "--kappa", "kappa_tilde": "--kappa-tilde"}
        out = ["--model", self.kind]
        for name, value in self.params:
            out += [flags[name], str(value)]
        return out

    @property
    def label(self) -> str:
        return self.kind + "(" + ",".join(f"{k}={v}" for k, v in self.params) + ")"


@dataclass(frozen=True)
class Call:
    key: str                      # unique in a pass; names the output file
    kind: str                     # verify | parallel | detq-table | lemma-table
    argv: tuple                   # without --out
    model: Optional[Model] = None
    seed: Optional[int] = None
    l_grid: Optional[tuple] = None


def _m(kind, **params) -> Model:
    return Model(kind, tuple(params.items()))


VERIFY_CLOSED_MODELS = [
    _m("M_1m1", c=0.5),
    _m("M_11", c=0.25),
    _m("M_tau", tau=-2.0),
    _m("M_Gamma", kappa_gamma=1.0),
    _m("M_tau", tau=-1.0001),
]
VERIFY_INTEGRATED_MODELS = [
    _m("M_Gamma", kappa_gamma=0.5),
    _m("M_kk", c=0.5, kappa="tanh", kappa_tilde="one"),
]
FLOW_SCAN_MODELS = [
    _m("M_tau", tau=-1.5),
    _m("M_tau", tau=-2.0),
    _m("M_tau", tau=-5.0),
    _m("M_1m1", c=0.5),
    _m("M_Gamma", kappa_gamma=2.0),
    _m("M_kk", c=0.5, kappa="tanh", kappa_tilde="one"),
]

# full / quick (self-check) sizes
CLOSED_SAMPLES = (200, 16)
INTEGRATED_SAMPLES = (32, 8)
L_GRID = ((-2.0, 2.0, 0.002), (-2.0, 2.0, 0.04))


def _verify(i, model, samples, seed) -> Call:
    argv = ["verify", *model.argv(), "--samples", str(samples), "--seed", str(seed)]
    return Call(f"verify{i}", "verify", tuple(argv), model, seed)


def calls(workload: str, seed: int, quick: bool = False) -> list:
    """The workload's CLI calls for one pass, in order."""
    q = 1 if quick else 0
    if workload == "verify_closed":
        # tau=-1.0001 runs at a fixed seed: its two FAILs must not depend on
        # the run's seed, so that every pass fails the same operations
        return [_verify(i, m, CLOSED_SAMPLES[q],
                        0 if m.params == (("tau", -1.0001),) else seed)
                for i, m in enumerate(VERIFY_CLOSED_MODELS)]
    if workload == "verify_integrated":
        return [_verify(i, m, INTEGRATED_SAMPLES[q], seed)
                for i, m in enumerate(VERIFY_INTEGRATED_MODELS)]
    if workload == "flow_scan":
        a, b, h = L_GRID[q]
        out = []
        for i, m in enumerate(FLOW_SCAN_MODELS):
            argv = ["parallel", *m.argv(), f"--l-grid={a!r}:{b!r}:{h!r}",
                    "--seed", str(seed), "--format", "json"]
            out.append(Call(f"scan{i}", "parallel", tuple(argv), m, seed, (a, b, h)))
        out.append(Call("detq", "detq-table", ("table", "detq-derivatives")))
        out.append(Call("lemma", "lemma-table", ("table", "lemma-residuals")))
        return out
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify_closed", "verify_integrated", "flow_scan")


def models(call_list) -> list:
    """Distinct models of a pass, in first-use order."""
    seen = []
    for c in call_list:
        if c.model is not None and c.model not in seen:
            seen.append(c.model)
    return seen


# ---------------------------------------------------------------------------
# closed forms from the paper
# ---------------------------------------------------------------------------

def expected_lambdas(model: Model) -> Optional[list]:
    """Ascending principal curvatures, or None where they vary (M_kk)."""
    k = model.kind
    if k == "M_1m1":
        c = model.param("c")
        return sorted([0.0, math.sqrt(1.0 - c), math.sqrt(c)])
    if k == "M_11":
        c = model.param("c")
        return sorted([-math.sqrt(c), 0.0, math.sqrt(1.0 - c)])
    if k == "M_Gamma":
        return sorted([0.0, 0.0, model.param("kappa_gamma")])
    if k == "M_tau":
        t = model.param("tau")
        return sorted([0.0, math.sqrt((t + 1.0) / (2.0 * (t - 1.0))),
                       math.sqrt((t - 1.0) / (2.0 * (t + 1.0)))])
    return None


def expected_C(model: Model) -> float:
    k = model.kind
    if k == "M_Gamma":
        return 1.0
    if k == "M_tau":
        return 0.0
    return 1.0 - 2.0 * model.param("c")


def constant_curvatures(model: Model) -> bool:
    if model.kind == "M_kk":
        return all(model.param(n) in ("one", "minus-one") for n in ("kappa", "kappa_tilde"))
    return True


def focal_radius(model: Model) -> Optional[float]:
    if model.kind == "M_tau":
        return math.acosh(-model.param("tau")) / math.sqrt(2.0)
    if model.kind == "M_Gamma" and abs(model.param("kappa_gamma")) > 1.0:
        return math.atanh(1.0 / model.param("kappa_gamma"))
    return None


def parallel_curve_H(kappa: float, l: float) -> float:
    ch, sh = math.cosh(l), math.sinh(l)
    return (kappa * ch - sh) / (ch - kappa * sh)


# ---------------------------------------------------------------------------
# checks: each returns (ok, detail)
# ---------------------------------------------------------------------------

def check_samples(model: Model, samples: list):
    """point_geometry lambdas and C at the sample points vs the closed forms."""
    lam_ref = expected_lambdas(model)
    c_ref = expected_C(model)
    for s in samples:
        lam, c = s["lambdas"], s["C"]
        if abs(c - c_ref) > C_TOL:
            return False, f"C={c!r} at u={s['u']}, expected {c_ref!r}"
        if lam_ref is None:
            if min(abs(x) for x in lam) > LAMBDA_TOL:
                return False, f"no zero principal curvature at u={s['u']}: {lam}"
            continue
        for x, ref in zip(lam, lam_ref):
            if abs(x - ref) > LAMBDA_TOL * max(1.0, abs(ref)):
                return False, f"lambda={lam} at u={s['u']}, expected {lam_ref}"
    return len(samples) == SAMPLE_POINTS, f"{len(samples)} of {SAMPLE_POINTS} points"


def check_same_bytes(text, first):
    """Reports are byte-identical across passes with the same seed."""
    return text is not None and text == first, "output differs from the run's first pass"


def check_summary(report: dict):
    res = report["results"]
    want = {"passed": sum(r["pass"] is True for r in res),
            "failed": sum(r["pass"] is False for r in res),
            "skipped": sum(r["pass"] is None for r in res)}
    return report["summary"] == want, f"summary {report['summary']} vs results {want}"


def check_exit_code(report: dict, rc):
    want = 0 if report["summary"]["failed"] == 0 else 1
    return rc == want, f"exit code {rc}, expected {want}"


def check_config(call: Call, cfg: dict):
    """The report echoes the model, seed and grid it was asked for."""
    ok = cfg["model"]["kind"] == call.model.kind and cfg["seed"] == call.seed
    for name, value in call.model.params:
        got = cfg["model"]["params"].get(name)
        ok = ok and (got == value or str(got) == str(value))
    if call.l_grid is not None:
        ok = ok and tuple(cfg["l_grid"]) == call.l_grid
    return ok, f"config {cfg['model']} seed={cfg['seed']}"


def _scan_rows(rows):
    return [r for r in rows if not r["focal"]]


def check_spread(model: Model, rows: list):
    """Isoparametric spread: below the bar for constant curvatures, above for tanh.

    The spread is judged relative to max(1, |H_mean|): next to a focal value
    H(l) grows like 1/(l - l*), and the roundoff in a quantity of that size
    grows with it.
    """
    spread = max(max(r["H_spread"], r["lambda_spread"]) / max(1.0, abs(r["H_mean"]))
                 for r in _scan_rows(rows))
    if constant_curvatures(model):
        return spread < SPREAD_REL_TOL, f"relative spread {spread:.3e}"
    return spread > SPREAD_REL_TOL, f"relative spread {spread:.3e} (generic model)"


def check_focal(model: Model, rows: list, step: float):
    """Every focal row lies within one grid step of the closed-form radius."""
    lstar = focal_radius(model)
    focal = [r["l"] for r in rows if r["focal"]]
    ok = bool(focal) and all(abs(l - lstar) <= step * (1.0 + 1e-9) for l in focal)
    return ok, f"focal rows {focal}, expected within {step} of {lstar!r}"


def check_parallel_H(model: Model, rows: list):
    k = model.param("kappa_gamma")
    worst = 0.0
    for r in _scan_rows(rows):
        ref = parallel_curve_H(k, r["l"])
        worst = max(worst, abs(r["H_mean"] - ref) / max(1.0, abs(ref)))
    return worst <= H_REL_TOL, f"max relative H(l) deviation {worst:.3e}"


_NAME = re.compile(r"^(M_\w+)\((\w+)=([-\d.eE+]+)\)$")


def model_from_table_name(name: str) -> Model:
    kind, param, value = _NAME.match(name).groups()
    return Model(kind, ((param, float(value)),))


def parse_csv(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def check_detq_table(rows: list):
    """k=2 entries, closed form and numeric, equal 2 sigma_2(lambda) + 1."""
    seen = 0
    for r in rows:
        if int(r["k"]) != 2:
            continue
        lam = expected_lambdas(model_from_table_name(r["model"]))
        ref = 2.0 * (lam[0] * lam[1] + lam[0] * lam[2] + lam[1] * lam[2]) + 1.0
        for col in ("closed_form", "numeric"):
            if abs(float(r[col]) - ref) > DETQ2_TOL * max(1.0, abs(ref)):
                return False, f"{r['model']} k=2 {col}={r[col]}, expected {ref!r}"
        seen += 1
    return seen > 0, f"{seen} models"


def check_lemma_table(rows: list):
    """Each checked frame identity at the chart centre is within the bar."""
    checked = [r for r in rows if r["status"] == "checked"]
    bad = [r for r in checked if not float(r["residual"]) <= LEMMA_TOL]
    ok = bool(checked) and not bad and all(r["status"] in ("checked", "skipped") for r in rows)
    return ok, f"{len(checked)} checked rows, {len(bad)} above {LEMMA_TOL:g}"


# ---------------------------------------------------------------------------
# one pass: all operations and checks
# ---------------------------------------------------------------------------

class Tally:
    """Operations attempted and failed, with the name of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fails = set()     # program operations that failed (FAIL, error exit)
        self.errors = []       # benchmark checks that rejected an output

    def verdict(self, where: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.fails.add(where)

    def check(self, where: str, result):
        ok, detail = result
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{where}: {detail}")


def judge_pass(call_list, outputs: dict, samples: dict, reference: dict,
               tally: Tally):
    """Judge one pass.

    outputs   call key -> (exit code or None, output text or None)
    samples   model label -> [{"u", "lambdas", "C"}]
    reference call key -> output text of the run's first pass
    """
    for m in models(call_list):
        tally.check(f"samples {m.label}", check_samples(m, samples.get(m.label, [])))
    for call in call_list:
        rc, text = outputs.get(call.key, (None, None))
        where = f"{call.key} {call.model.label if call.model else call.kind}"
        tally.check(f"{where} same bytes as first pass",
                    check_same_bytes(text, reference.setdefault(call.key, text)))
        judge = _judge_verify if call.kind == "verify" else _judge_table_or_scan
        try:
            judge(call, rc, text, tally, where)
        except (TypeError, ValueError, KeyError, AttributeError) as exc:
            tally.check(where, (False, f"malformed output (exit code {rc}): {exc!r}"))


def _judge_verify(call, rc, text, tally, where):
    report = json.loads(text)
    # a judged check is one operation; a SKIP (pass is None) is not
    for r in report["results"]:
        if r["pass"] is not None:
            tally.verdict(f"{where} {r['name']}", r["pass"])
    tally.check(f"{where} summary", check_summary(report))
    tally.check(f"{where} exit code", check_exit_code(report, rc))
    tally.check(f"{where} config", check_config(call, report["config"]))


def _judge_table_or_scan(call, rc, text, tally, where):
    ok = rc == 0 and text is not None
    tally.verdict(f"{where} exit code {rc}", ok)
    if not ok:
        return
    if call.kind == "parallel":
        doc = json.loads(text)
        rows = doc["rows"]
        tally.check(f"{where} config", check_config(call, doc["config"]))
        tally.check(f"{where} spread", check_spread(call.model, rows))
        if focal_radius(call.model) is not None:
            tally.check(f"{where} focal", check_focal(call.model, rows, call.l_grid[2]))
        if call.model.kind == "M_Gamma":
            tally.check(f"{where} H(l)", check_parallel_H(call.model, rows))
    elif call.kind == "detq-table":
        tally.check(f"{where} k=2", check_detq_table(parse_csv(text)))
    else:
        tally.check(f"{where} residuals", check_lemma_table(parse_csv(text)))
