"""Command-line verification front end.

Subcommands: ``verify`` (full identity suite for one model), ``parallel``
(per-distance table of the parallel flow), ``table`` (catalog / det Q
derivative / frame-residual tables), ``poincare-dump`` (CSV projection of a
chart to the two Poincaré disks).

Exit codes: 0 all required checks pass, 1 check failure or a geometric
failure at a chart point, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import model_zoo as mz
from . import report as rp
from . import surface_calculus as sc

# a valid call that fails on the geometry of a chart point; these are
# ValueErrors too, so they are caught before the usage-error clause
GEOMETRIC_ERRORS = (sc.ChartRankError, sc.NormalSpaceError,
                    sc.DegenerateProductAngleError, mz.DomainError)


def _model_from_args(args) -> mz.ModelSpec:
    kind = args.model
    if kind is None:
        raise rp.ConfigError("--model is required")
    params = {}
    if kind == "M_Gamma":
        if args.kappa_gamma is None:
            raise rp.ConfigError("M_Gamma requires --kappa-gamma")
        params["kappa_gamma"] = args.kappa_gamma
    elif kind in ("M_1m1", "M_11"):
        if args.c is None:
            raise rp.ConfigError(f"{kind} requires --c")
        params["c"] = args.c
    elif kind == "M_kk":
        if args.c is None:
            raise rp.ConfigError("M_kk requires --c")
        params["c"] = args.c
        params["kappa"] = args.kappa if args.kappa is not None else "one"
        params["kappa_tilde"] = args.kappa_tilde if args.kappa_tilde is not None else "minus-one"
    elif kind == "M_tau":
        if args.tau is None:
            raise rp.ConfigError("M_tau requires --tau")
        params["tau"] = args.tau
    else:
        raise rp.ConfigError(f"unknown model {kind!r}")
    return mz.ModelSpec(kind=kind, params=params)


def _parse_tols(pairs) -> dict:
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise rp.ConfigError(f"--tol expects name=value, got {item!r}")
        name, val = item.split("=", 1)
        try:
            out[name] = float(val)
        except ValueError:
            raise rp.ConfigError(f"--tol value for {name!r} is not a number") from None
    return out


def _parse_lgrid(text) -> tuple:
    try:
        a, b, h = (float(x) for x in text.split(":"))
    except ValueError:
        raise rp.ConfigError("--l-grid expects a:b:h") from None
    return (a, b, h)


def _config_from_args(args) -> rp.SuiteConfig:
    cfg = rp.SuiteConfig(
        model=_model_from_args(args),
        samples=args.samples,
        seed=args.seed,
        tolerances=_parse_tols(args.tol),
        l_grid=_parse_lgrid(args.l_grid),
        out=args.out,
        fmt=args.format,
    )
    cfg.validate()
    return cfg


def _emit(cfg: rp.SuiteConfig, payload: dict, results=None):
    if cfg.fmt == "json":
        text = rp.render_json(payload)
    else:
        text = rp.render_csv(results) if results is not None else rp.render_json(payload)
    if cfg.out:
        rp.write_atomic(cfg.out, text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    results = rp.run_verify_suite(cfg)
    payload = rp.report_payload(cfg, results)
    _emit(cfg, payload, results)
    summary = payload["summary"]
    for r in results:
        status = {True: "PASS", False: "FAIL", None: "SKIP"}[r.passed]
        res = "" if r.max_residual is None else f" residual={r.max_residual:.3e}"
        print(f"[{status}] {r.name}{res} tol={r.tolerance:g}", file=sys.stderr)
    print(f"summary: {summary['passed']} passed, {summary['failed']} failed, "
          f"{summary['skipped']} skipped", file=sys.stderr)
    return 0 if summary["failed"] == 0 else 1


def cmd_parallel(args) -> int:
    cfg = _config_from_args(args)
    rows = rp.parallel_rows(cfg)
    if cfg.fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["l", "H_mean", "H_spread", "lambda_spread", "min_abs_detQ", "focal"])
        for r in rows:
            w.writerow([repr(r["l"]),
                        "" if r["H_mean"] is None else repr(r["H_mean"]),
                        "" if r["H_spread"] is None else repr(r["H_spread"]),
                        "" if r["lambda_spread"] is None else repr(r["lambda_spread"]),
                        repr(r["min_abs_detQ"]), str(r["focal"]).lower()])
        text = buf.getvalue()
    else:
        text = json.dumps({"config": cfg.as_dict(), "rows": rows},
                          indent=2, sort_keys=True) + "\n"
    if cfg.out:
        rp.write_atomic(cfg.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _print_table(rows, columns):
    widths = {c: max(len(c), *(len(_fmt(r[c])) for r in rows)) for c in columns}
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for r in rows:
        print("  ".join(_fmt(r[c]).ljust(widths[c]) for c in columns))


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:+.9g}"
    return str(v)


def cmd_table(args) -> int:
    which = args.which
    if which == "curvature-catalog":
        rows = rp.curvature_catalog_rows()
        cols = ["model", "C", "lambda1", "lambda2", "lambda3", "H", "rho", "K"]
    elif which == "detq-derivatives":
        rows = rp.detq_table_rows()
        cols = ["model", "k", "closed_form", "numeric", "abs_diff"]
    elif which == "lemma-residuals":
        rows = rp.lemma_residual_rows()
        cols = ["model", "identity", "residual", "status", "reason"]
    else:
        raise rp.ConfigError(f"unknown table {which!r}")
    if args.out:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=cols, lineterminator="\n")
        w.writeheader()
        for r in rows:
            w.writerow({c: r[c] for c in cols})
        rp.write_atomic(args.out, buf.getvalue())
    else:
        _print_table(rows, cols)
    return 0


def cmd_poincare_dump(args) -> int:
    if args.out is None:
        raise rp.ConfigError("poincare-dump requires --out")
    rp.poincare_dump(_model_from_args(args), args.out)
    return 0


def _add_model_args(p):
    p.add_argument("--model", choices=["M_Gamma", "M_kk", "M_1m1", "M_11", "M_tau"])
    p.add_argument("--c", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--kappa-gamma", type=float, dest="kappa_gamma")
    p.add_argument("--kappa", help="curvature function for M_kk: number, 'tanh', or const:<x>")
    p.add_argument("--kappa-tilde", dest="kappa_tilde",
                   help="second curvature function for M_kk")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", action="append", metavar="NAME=VALUE")
    p.add_argument("--l-grid", default="-1.0:1.0:0.1", dest="l_grid", metavar="A:B:H")
    p.add_argument("--out")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="h2h2",
                                 description="verification suites for hypersurface "
                                             "geometry of the product of hyperbolic planes")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("verify", cmd_verify), ("parallel", cmd_parallel)):
        p = sub.add_parser(name)
        _add_model_args(p)
        p.set_defaults(fn=fn)
    p = sub.add_parser("table")
    p.add_argument("which", choices=["curvature-catalog", "detq-derivatives",
                                     "lemma-residuals"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_table)
    p = sub.add_parser("poincare-dump")
    _add_model_args(p)
    p.set_defaults(fn=cmd_poincare_dump)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except GEOMETRIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (rp.ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
