#!/usr/bin/env python3
"""Run the full verification suite for every canonical family.

Writes one JSON report per model into an output directory and prints a
one-line summary per suite.  Exit code is nonzero if any suite fails.

Usage:
    python scripts/run_verification_suites.py [--out-dir out] [--samples 200]
"""

import argparse
import pathlib
import sys

from h2h2 import model_zoo as mz
from h2h2 import report as rp

SUITE = mz.CATALOG + (mz.ModelSpec("M_kk", {"c": 0.5, "kappa": "tanh", "kappa_tilde": "one"}),)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    any_failed = False
    for spec in SUITE:
        cfg = rp.SuiteConfig(model=spec, samples=args.samples, seed=args.seed)
        results = rp.run_verify_suite(cfg)
        summary = rp.summarize(results)
        tag = "_".join([spec.kind] + [f"{k}={v}" for k, v in spec.params.items()])
        path = out_dir / f"{tag}.json"
        rp.write_atomic(str(path), rp.render_json(rp.report_payload(cfg, results)))
        status = "ok" if summary["failed"] == 0 else "FAILED"
        any_failed = any_failed or summary["failed"] > 0
        print(f"{status:6s} {tag:28s} passed={summary['passed']:2d} "
              f"failed={summary['failed']} skipped={summary['skipped']} -> {path}")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
