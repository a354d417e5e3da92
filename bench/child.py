"""One pass of a workload in a fresh interpreter.

Set-up is ``import h2h2.cli`` plus building the workload's models; the pass
is the workload's calls through ``h2h2.cli.main``, each writing its report
to a file in the work directory.  After the pass, outside the timed part,
``point_geometry`` is evaluated at seeded sample points of each model for
the benchmark's principal-curvature check.  The last line of standard
output is a JSON object for run.py.

    python3 bench/child.py --workload W --seed N --workdir DIR [--trace FILE] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import h2h2.cli
    import h2h2.model_zoo as mz
    import h2h2.surface_calculus as sc
    import numpy as np

    if not Path(h2h2.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"h2h2 imported from {h2h2.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    tracer, untraced = None, []
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        untraced = tracer.install()

    calls = wl.calls(args.workload, args.seed, args.quick)
    built = [(m, mz.build_model(mz.ModelSpec(m.kind, dict(m.params))))
             for m in wl.models(calls)]
    t_setup = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"t_setup": t_setup}))
        return 0

    workdir = Path(args.workdir)
    rcs, call_s, errors = {}, {}, {}
    sink = io.StringIO()
    t0 = time.perf_counter()
    for call in calls:
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rcs[call.key] = h2h2.cli.main([*call.argv, "--out", str(workdir / call.key)])
        except Exception:  # a crash is a failed operation; the pass goes on
            rcs[call.key] = None
            errors[call.key] = traceback.format_exc()
        call_s[call.key] = time.perf_counter() - t
    pass_s = time.perf_counter() - t0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:   # spans of the set-up and the pass, not of the checks below
        tracer.save(args.trace)

    samples = {}
    rng = np.random.default_rng(args.seed)
    for m, (surface, _) in built:
        lo = np.array([d[0] for d in surface.domain])
        hi = np.array([d[1] for d in surface.domain])
        pts = lo + (hi - lo) * rng.random((wl.SAMPLE_POINTS, 3))
        samples[m.label] = []
        for u in pts:
            pg = sc.point_geometry(surface, u)
            samples[m.label].append({"u": u.tolist(), "lambdas": pg.lambdas.tolist(),
                                     "C": pg.C})
    print(json.dumps({"t_setup": t_setup, "pass_s": pass_s, "call_s": call_s,
                      "rss_kb": rss_kb, "rcs": rcs, "errors": errors,
                      "samples": samples, "untraced": untraced}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
