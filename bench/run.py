"""h2h2 benchmark: cold-process passes of a workload through ``h2h2.cli.main``.

    python3 bench/run.py --workload verify_closed --seed 1 --seconds 40 --trace 0

Runs the program from ``src/`` of the checkout this file sits in.  Each pass
is a fresh interpreter (child.py) started after the previous one has ended,
so per-process caches start cold as they do for a CLI user.  The run makes
whole passes while they fit in ``--seconds``, then fills the rest with
set-up-only interpreters, judges every output (workloads.py) and prints one
JSON object as its last line of output.

With ``--trace 0`` it reports the end-to-end metrics:
  setup_s      fresh interpreter to ``import h2h2.cli`` done and the
               workload's models built
  pass_s       one pass over the workload's calls
  peak_rss_mb  peak resident set of a pass process
each the median over the run's set-ups or passes (README.md says why).
With ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics of tracing.py, the import times of ``python -X
importtime``, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD = BENCH / "child.py"

MIN_SETUPS = 6          # set-up samples per run, passes included
CHILD_TIMEOUT_S = 150   # the whole run must end within 180 s
IMPORTTIME_RUNS = 3


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class RunError(RuntimeError):
    pass


def spawn(argv: list, deadline: float) -> tuple:
    """Run a child to its end; returns (start time, parsed last stdout line)."""
    t0 = clock()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *argv], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(5.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise RunError(f"pass process timed out: {argv}") from None
    if proc.returncode != 0:
        raise RunError(f"pass process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


class Run:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.calls = wl.calls(workload, seed)
        self.tally = wl.Tally()
        self.reference: dict = {}
        self.setups: list = []
        self.deadline = clock() + CHILD_TIMEOUT_S

    def base_argv(self) -> list:
        return ["--workload", self.workload, "--seed", str(self.seed),
                "--workdir", str(self.workdir)]

    def setup_only(self, record: bool = True):
        t0, res = spawn(self.base_argv() + ["--setup-only"], self.deadline)
        if record:
            self.setups.append(res["t_setup"] - t0)

    def one_pass(self, trace_file=None) -> dict:
        for f in self.workdir.iterdir():
            f.unlink()
        argv = self.base_argv() + (["--trace", str(trace_file)] if trace_file else [])
        t0, res = spawn(argv, self.deadline)
        self.setups.append(res["t_setup"] - t0)
        res["wall_s"] = clock() - t0
        outputs = {}
        for call in self.calls:
            path = self.workdir / call.key
            outputs[call.key] = (res["rcs"].get(call.key),
                                 path.read_text() if path.is_file() else None)
        wl.judge_pass(self.calls, outputs, res["samples"], self.reference, self.tally)
        for key, tb in res["errors"].items():
            print(f"{key} raised:\n{tb}", file=sys.stderr)
        if res["untraced"]:
            print("absent, so not traced: " + ", ".join(res["untraced"]), file=sys.stderr)
        print(f"pass{' (traced)' if trace_file else ''}: setup {self.setups[-1]:.3f} s, "
              f"calls " + " ".join(f"{v:.3f}" for v in res["call_s"].values())
              + f" = {res['pass_s']:.3f} s", file=sys.stderr)
        return res


def median_pass_s(passes) -> float:
    return statistics.median(p["pass_s"] for p in passes)


def import_times() -> dict:
    """Median over a few runs of ``python -X importtime`` of ``import h2h2.cli``."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import h2h2.cli"
    samples = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        if proc.returncode != 0:
            raise RunError(f"import h2h2.cli failed: {proc.stderr[-2000:]}")
        found = {"setup.import_scipy_stats_s": 0.0, "setup.import_numpy_s": 0.0,
                 "setup.import_h2h2_s": 0.0}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\s*)(\S+)", line)
            if not m:
                continue
            cum_s, depth, name = int(m.group(1)) * 1e-6, len(m.group(2)), m.group(3)
            if name == "scipy.stats":
                found["setup.import_scipy_stats_s"] = cum_s
            elif name == "numpy":
                found["setup.import_numpy_s"] = cum_s
            elif depth == 0 and (name == "h2h2" or name.startswith("h2h2.")):
                found["setup.import_h2h2_s"] += cum_s
        samples.append(found)
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def measure(run: Run, seconds: float, trace: bool) -> dict:
    start = clock()
    run.setup_only(record=False)   # warm the byte-code and file caches
    if trace:
        metrics = import_times()
        traced, untraced, layers = [], [], []
        trace_file = OUT / f"spans-{run.workload}.npz"
        while True:
            untraced.append(run.one_pass())
            traced.append(run.one_pass(trace_file))
            layers.append(tracing.layer_metrics(trace_file))
            step = untraced[-1]["wall_s"] + traced[-1]["wall_s"]
            if clock() - start + step > seconds:
                break
        for name in layers[0]:
            metrics[name] = statistics.median(m[name] for m in layers)
        metrics["trace.overhead_s"] = median_pass_s(traced) - median_pass_s(untraced)
        units = {k: "count" if k.endswith(("calls", "spans")) else "s" for k in metrics}
        return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    passes = []
    while True:
        passes.append(run.one_pass())
        longest = max(p["wall_s"] for p in passes)
        if clock() - start + longest > seconds:
            break
    while len(run.setups) < MIN_SETUPS or clock() - start + max(run.setups) <= seconds:
        run.setup_only()
    return {
        "setup_s": {"value": statistics.median(run.setups), "unit": "s"},
        "pass_s": {"value": median_pass_s(passes), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["rss_kb"] for p in passes) / 1024.0,
                        "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "h2h2" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'h2h2' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = Run(args.workload, args.seed, workdir)
        metrics = measure(run, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    t = run.tally
    for where in sorted(t.fails):
        print(f"FAIL {where}", file=sys.stderr)
    for err in t.errors:
        print(f"WRONG {err}", file=sys.stderr)
    print(json.dumps({"correct": not t.errors, "attempted": t.attempted,
                      "failed": t.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
