"""Command-line verification front end.

Subcommands: ``verify`` (full identity suite for one model), ``parallel``
(per-distance table of the parallel flow), ``table`` (catalog / det Q
derivative / frame-residual tables), ``poincare-dump`` (CSV projection of a
chart to the two Poincaré disks).

Exit codes: 0 all required checks pass, 1 check failure or a geometric
failure at a chart point or along the parallel flow, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import sys

from . import model_zoo as mz
from . import report as rp
from . import surface_calculus as sc

# a valid call that fails on the geometry of a chart point or of the parallel
# flow; the first four are ValueErrors too, so they are caught before the
# usage-error clause.  ArithmeticError covers FocalPointError, the refusal of
# a shape operator that is not finite or not self-adjoint, and the
# FloatingPointError of an overflow at large l.
GEOMETRIC_ERRORS = (sc.ChartRankError, sc.NormalSpaceError,
                    sc.DegenerateProductAngleError, mz.DomainError, ArithmeticError)


def _model_parameters() -> dict:
    """Every parameter of ``mz.FAMILIES`` -> its default, in first-use order."""
    return {name: default for _, params in mz.FAMILIES.values()
            for name, default in params.items()}


def _model_from_args(args) -> mz.ModelSpec:
    kind = args.model
    if kind is None:
        raise rp.ConfigError("--model is required")
    params = mz.FAMILIES[kind][1]
    given = {name: getattr(args, name) for name in _model_parameters()}
    for name, default in params.items():
        if default is None and given[name] is None:
            raise rp.ConfigError(f"{kind} requires {mz.flag(name)}")
    for name, value in given.items():
        if name not in params and value is not None:
            raise rp.ConfigError(f"{kind} does not take {mz.flag(name)}")
    return mz.ModelSpec(kind=kind, params={
        name: default if given[name] is None else given[name]
        for name, default in params.items()})


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
    """The run's configuration; ``run_verify_suite`` and ``parallel_rows``
    validate it."""
    return rp.SuiteConfig(
        model=_model_from_args(args),
        samples=args.samples,
        seed=args.seed,
        # parallel takes no --tol; its config echoes the default tolerances
        tolerances=_parse_tols(args.tol) if "tol" in args else {},
        l_grid=_parse_lgrid(args.l_grid),
    )


def _write(path, text: str):
    if path:
        rp.write_atomic(path, text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    results = rp.run_verify_suite(cfg)
    payload = rp.report_payload(cfg, results)
    _write(args.out, rp.render_json(payload) if args.format == "json" else rp.render_csv(results))
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
    _write(args.out, rp.render_parallel_csv(rows) if args.format == "csv"
           else rp.render_json({"config": cfg.as_dict(), "rows": rows}))
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
    else:
        rows = rp.lemma_residual_rows()
        cols = ["model", "identity", "residual", "status", "reason"]
    if args.out:
        rp.write_atomic(args.out, rp.csv_text(cols, ([r[c] for c in cols] for r in rows)))
    else:
        _print_table(rows, cols)
    return 0


def cmd_poincare_dump(args) -> int:
    rp.poincare_dump(_model_from_args(args), args.out)
    return 0


def _add_model_args(p):
    p.add_argument("--model", choices=list(mz.FAMILIES))
    for name, default in _model_parameters().items():
        if default is None:
            p.add_argument(mz.flag(name), type=float)
        else:
            p.add_argument(mz.flag(name), help=f"curvature function: a number, const:<x> or "
                                               f"one of {', '.join(mz.NAMED_KAPPAS)} "
                                               f"(default {default})")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="h2h2",
                                 description="verification suites for hypersurface "
                                             "geometry of the product of hyperbolic planes")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in (("verify", cmd_verify), ("parallel", cmd_parallel)):
        p = sub.add_parser(name)
        _add_model_args(p)
        p.add_argument("--samples", type=int, default=200)
        p.add_argument("--seed", type=int, default=0)
        if name == "verify":
            p.add_argument("--tol", action="append", metavar="NAME=VALUE")
        p.add_argument("--l-grid", default="-1.0:1.0:0.1", dest="l_grid", metavar="A:B:H")
        p.add_argument("--out")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.set_defaults(fn=fn)
    p = sub.add_parser("table")
    p.add_argument("which", choices=["curvature-catalog", "detq-derivatives",
                                     "lemma-residuals"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_table)
    p = sub.add_parser("poincare-dump")
    _add_model_args(p)
    p.add_argument("--out", required=True)
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
