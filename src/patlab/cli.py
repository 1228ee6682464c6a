"""Command-line front end: distributions, series, coefficients, bijections
and the verification harness.

Exit codes: 0 success (and aggregate pass for verify), 1 hard failure or
solver error, 2 usage error, 3 unwritable report path.
"""

from __future__ import annotations

import argparse
import sys

from . import catalog, checks, dyck, oracle, perms
from .limits import DIST_NMAX
from .series import T_DEFAULT_ORDER, monomial_str, poly_str, series_str


class UsageError(ValueError):
    pass


def _parse_sets(values) -> dict[str, int]:
    out: dict[str, int] = {}
    for chunk in values or []:
        for part in chunk.split(","):
            if "=" not in part:
                raise UsageError(f"bad --set entry {part!r}; expected var=int")
            var, _, val = part.partition("=")
            var = var.strip()
            if var == "t":
                raise UsageError("cannot substitute t")
            if var in out:
                raise UsageError(f"--set names {var} more than once")
            try:
                out[var] = int(val)
            except ValueError:
                raise UsageError(f"--set values must be integers: {part!r}")
    return out


def _csv_rows(slices) -> str:
    lines = ["n,monomial,coefficient"]
    for n, poly in slices:
        for exps, coeff in poly.terms():
            lines.append(f"{n},{monomial_str(exps, 1)},{coeff}")
    return "\n".join(lines) + "\n"


def cmd_dist(args) -> int:
    avoid = perms.parse_perm(args.avoid)
    if len(avoid) != 3:
        raise UsageError("--avoid must be a length-3 pattern")
    tracked = [perms.parse_perm(p) for p in args.track.split(",")]
    if any(len(g) < 2 for g in tracked):
        raise UsageError("tracked patterns must have length >= 2")
    if args.n < 0:
        raise UsageError("--n must be non-negative")
    cap = perms.max_enumeration_n()
    if args.n > cap:
        raise UsageError(f"--n must be at most {cap}")
    variables = tuple(f"x{i + 1}" for i in range(len(tracked)))
    assignments = _parse_sets(args.set)
    slices = []
    for n in range(args.n + 1):
        poly = oracle.brute_distribution(avoid, tracked, n,
                                         variables=variables).poly
        if assignments:
            poly = poly.substitute(assignments)
        slices.append((n, poly))
    if args.format == "json":
        import json   # loaded on first use, not at import

        doc = {"avoid": args.avoid, "track": args.track.split(","),
               "n": args.n, "set": assignments,
               "slices": [{"n": n, "poly": poly_str(p)} for n, p in slices]}
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        sys.stdout.write(_csv_rows(slices))
    else:
        for n, p in slices:
            print(f"n={n}: {poly_str(p)}")
    return 0


def cmd_series(args) -> int:
    series = catalog.solve_catalog(args.id, args.order, m=args.m, a=args.a)
    assignments = _parse_sets(args.set)
    if assignments:
        series = series.substitute(assignments)
    if args.format == "json":
        import json

        doc = {"id": args.id, "m": args.m, "a": args.a, "order": args.order,
               "set": assignments, "series": series_str(series),
               "slices": [{"n": n, "poly": poly_str(series.t_slice(n))}
                          for n in range(series.order + 1)]}
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        sys.stdout.write(_csv_rows(
            [(n, series.t_slice(n)) for n in range(series.order + 1)]))
    else:
        print(series_str(series))
    return 0


def cmd_coeff(args) -> int:
    value = catalog.closed_coeff(args.id, args.n, args.k, m=args.m)
    # closed_coeff accepted the id, so it names a form and m is set
    form_id, m = catalog.CLOSED_FORM_ALIASES.get(args.id, (args.id, args.m))
    form = catalog.CLOSED_FORMS[form_id]
    truth = (_oracle_coeff(form, m, args) if form.trust == catalog.REPORT_ONLY
             else None)
    print(value.numerator if value.denominator == 1 else
          f"{value.numerator}/{value.denominator}")
    if truth is not None and truth != value:
        print(f"warning: {args.id} is a report-only formula; "
              f"the oracle value is {truth}", file=sys.stderr)
    return 0


def _oracle_coeff(form, m, args):
    """The oracle's [t^n x^k] for a closed form, or None above the
    enumeration cap (perms.max_enumeration_n, the oracle's only bound);
    read before any output, so a bad PATLAB_NMAX_CAP fails the command
    before it prints."""
    if args.n > perms.max_enumeration_n():
        return None
    gamma = catalog.family_pattern(form.family, m)
    return oracle.brute_distribution(catalog.CATALOG[form.family].avoided,
                                     [gamma], args.n,
                                     variables=("x",),
                                     track_des=False).poly.coefficient(
        {"x": args.k} if args.k else {})


def cmd_bijection(args) -> int:
    if (args.perm is None) == (args.path is None):
        raise UsageError("give exactly one of --perm or --path")
    if args.map in ("phi", "psi"):
        fwd, inv = ((dyck.phi_map, dyck.phi_inverse) if args.map == "phi"
                    else (dyck.psi_map, dyck.psi_inverse))
        if args.inverse or args.path is not None:
            if args.path is None:
                raise UsageError(f"--map {args.map} --inverse needs --path")
            print(perms.perm_str(inv(dyck.parse_path(args.path))))
        else:
            print(fwd(perms.parse_perm(args.perm)))
    elif args.map == "phin":
        if args.perm is None:
            raise UsageError("--map phin needs --perm")
        p = perms.parse_perm(args.perm)
        q = perms.phi_n_inverse(p) if args.inverse else perms.phi_n(p)
        print(perms.perm_str(q))
    else:
        raise UsageError(f"unknown map {args.map!r}")
    return 0


def cmd_verify(args) -> int:
    cap = perms.max_enumeration_n()
    if args.nmax < 0:
        raise UsageError("--nmax must be non-negative")
    if args.nmax > cap:
        raise UsageError(f"--nmax must be at most {cap}")
    report = checks.run_suite(args.suite, args.nmax)
    payload = checks.report_to_json(report)
    if args.report:
        import json

        try:
            with open(args.report, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 3
        print(f"suite={report['suite']} n_max={report['n_max']} "
              f"checks={len(report['checks'])} aggregate={report['aggregate']}")
        for entry in report["checks"]:
            if entry["status"] != "pass":
                print(f"  {entry['status']}: {entry['id']} "
                      f"{json.dumps(entry['params'], sort_keys=True)}")
    else:
        sys.stdout.write(payload)
    return 0 if report["aggregate"] == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patlab",
        description="Exact consecutive-pattern statistics over 123- and "
                    "132-avoiding permutations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="brute-force joint distribution slices")
    p.add_argument("--avoid", required=True, help="length-3 classical pattern")
    p.add_argument("--track", required=True,
                   help="comma-separated consecutive patterns")
    p.add_argument("--n", type=int, required=True, help="largest slice")
    p.add_argument("--set", action="append", metavar="VAR=INT",
                   help="substitute after computing (repeatable)")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(run=cmd_dist)

    p = sub.add_parser("series", help="solve a catalog generating function")
    p.add_argument("--id", required=True, help="catalog id, e.g. thm5")
    p.add_argument("--m", type=int, help="family pattern length")
    p.add_argument("--a", type=int, help="family head parameter")
    p.add_argument("--order", type=int, default=T_DEFAULT_ORDER,
                   help="truncation order")
    p.add_argument("--set", action="append", metavar="VAR=INT")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(run=cmd_series)

    p = sub.add_parser("coeff", help="evaluate a closed coefficient formula")
    p.add_argument("--id", required=True,
                   help="cf_123_1m2, cf_132_1m, cf_123_2m31, cf_132_2m1 or a "
                        "theorem alias thm1eq/thm2eq/thm4eq/thm5eq")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int)
    p.set_defaults(run=cmd_coeff)

    p = sub.add_parser("bijection", help="apply a staircase bijection")
    p.add_argument("--map", required=True, choices=("phi", "psi", "phin"))
    p.add_argument("--perm")
    p.add_argument("--path")
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(run=cmd_bijection)

    p = sub.add_parser("verify", help="run the conformance harness")
    p.add_argument("--suite", default="all",
                   choices=("all",) + checks.SUITES)
    p.add_argument("--nmax", type=int, default=DIST_NMAX)
    p.add_argument("--report", help="write the JSON report here")
    p.set_defaults(run=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:   # usage errors and bad inputs, UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
