"""Quick self-check of the benchmark's correctness checks.

    python3 bench/selfcheck.py

Runs one short pass of every workload (fewer samples, a coarser l-grid),
confirms that every check accepts the program's real outputs, then feeds
each check a perturbed copy and confirms that it rejects it.  Exits 0 when
every check does both; takes about half a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile

import workloads as wl
from run import OUT, spawn, clock


def short_pass(workload: str, seed: int = 0):
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"selfcheck-{workload}-", dir=OUT)
    try:
        _, res = spawn(["--workload", workload, "--seed", str(seed), "--workdir", workdir,
                        "--quick"], clock() + 120)
        calls = wl.calls(workload, seed, quick=True)
        outputs = {}
        for call in calls:
            with open(f"{workdir}/{call.key}") as f:
                outputs[call.key] = (res["rcs"][call.key], f.read())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return calls, outputs, res["samples"]


def perturbations(calls, outputs, samples):
    """(name, check function, real input, perturbed input) for every check."""
    cases = []
    for m in wl.models(calls):
        real = samples[m.label]
        bad = copy.deepcopy(real)
        if wl.expected_lambdas(m) is None:
            i = min(range(3), key=lambda k: abs(bad[0]["lambdas"][k]))
            bad[0]["lambdas"][i] += 1e-6
            what = "zero curvature moved to 1e-6"
        else:
            lam = bad[0]["lambdas"]
            lam[2] += 1e-6 * max(1.0, abs(lam[2]))
            what = "principal curvature off by 1e-6"
        cases.append((f"samples {m.label}: {what}", lambda s, m=m: wl.check_samples(m, s),
                      real, bad))
        bad = copy.deepcopy(real)
        bad[-1]["C"] += 1e-6
        cases.append((f"samples {m.label}: C off by 1e-6",
                      lambda s, m=m: wl.check_samples(m, s), real, bad))
    for call in calls:
        rc, text = outputs[call.key]
        cases.append((f"{call.key}: one byte changed", lambda t, text=text: wl.check_same_bytes(t, text),
                      text, text[:-2] + ("x" if text[-2] != "x" else "y") + text[-1]))
        if call.kind == "verify":
            report = json.loads(text)
            bad = copy.deepcopy(report)
            bad["summary"]["passed"] += 1
            cases.append((f"{call.key}: summary passed + 1", wl.check_summary, report, bad))
            cases.append((f"{call.key}: exit code flipped",
                          lambda r, report=report: wl.check_exit_code(report, r), rc, 1 - rc))
            bad = copy.deepcopy(report)
            bad["config"]["seed"] += 1
            cases.append((f"{call.key}: config seed + 1",
                          lambda c, call=call: wl.check_config(call, c), report["config"],
                          bad["config"]))
        elif call.kind == "parallel":
            rows = json.loads(text)["rows"]
            cases += _scan_cases(call, rows)
        elif call.kind == "detq-table":
            rows = wl.parse_csv(text)
            for col in ("closed_form", "numeric"):
                bad = copy.deepcopy(rows)
                r = next(r for r in bad if r["k"] == "2")
                r[col] = repr(float(r[col]) + 1e-6)
                cases.append((f"detq table: k=2 {col} off by 1e-6", wl.check_detq_table,
                              rows, bad))
        else:
            rows = wl.parse_csv(text)
            bad = copy.deepcopy(rows)
            next(r for r in bad if r["status"] == "checked")["residual"] = "0.001"
            cases.append(("lemma table: residual 1e-3", wl.check_lemma_table, rows, bad))
    return cases


def _scan_cases(call, rows):
    m = call.model
    cases = []
    bad = copy.deepcopy(rows)
    free = [r for r in bad if not r["focal"]]
    if wl.constant_curvatures(m):
        r = free[len(free) // 2]
        r["H_spread"] = 2.0 * wl.SPREAD_REL_TOL * max(1.0, abs(r["H_mean"]))
        what = "one spread at twice the bar"
    else:
        for r in free:
            r["H_spread"] = r["lambda_spread"] = 0.0
        what = "spreads zeroed"
    cases.append((f"{call.key} {m.label}: {what}", lambda x: wl.check_spread(m, x), rows, bad))
    lstar = wl.focal_radius(m)
    if lstar is not None:
        bad = copy.deepcopy(rows)
        i = next(i for i, r in enumerate(bad) if r["focal"])
        j = i + 1 if bad[i]["l"] > lstar else i - 1   # one step further from l*
        bad[i]["focal"], bad[j]["focal"] = False, True
        cases.append((f"{call.key} {m.label}: focal row shifted one grid step",
                       lambda x: wl.check_focal(m, x, call.l_grid[2]), rows, bad))
    if m.kind == "M_Gamma":
        bad = copy.deepcopy(rows)
        next(r for r in bad if not r["focal"])["H_mean"] += 1e-6
        cases.append((f"{call.key} {m.label}: H(l) off by 1e-6",
                      lambda x: wl.check_parallel_H(m, x), rows, bad))
    return cases


def main() -> int:
    failures = total = 0
    for workload in wl.WORKLOADS:
        calls, outputs, samples = short_pass(workload)
        tally = wl.Tally()
        wl.judge_pass(calls, outputs, samples, {}, tally)
        print(f"{workload}: short pass, {tally.attempted} operations, {tally.failed} failed"
              + "".join(f"\n  FAIL {f}" for f in sorted(tally.fails)))
        for err in tally.errors:
            print(f"  WRONG on real output: {err}")
            failures += 1
        for name, check, real, bad in perturbations(calls, outputs, samples):
            total += 1
            accepts, rejects = check(real)[0], not check(bad)[0]
            ok = accepts and rejects
            failures += not ok
            print(f"  {'ok ' if ok else 'BAD'} {name}"
                  + ("" if accepts else " (rejects the real output)")
                  + ("" if rejects else " (accepts the perturbed output)"))
    print(f"selfcheck: {total} perturbations, {failures} problems")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
