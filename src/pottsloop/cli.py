"""Command line surface: solve, check, compare, export.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 bad usage.
Output is deterministic for identical flags (sorted keys, no timestamps).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import curve as curve_mod
from . import loopcat, oracle
from .freealg import Word
from .solver import LazyTable, ModelSpec, generating_residual, solve_series


def _parse_c(s: str):
    if s == "symbolic":
        return "symbolic"
    try:
        c0 = Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"coupling {s!r} is neither 'symbolic' nor a rational")
    if 1 + c0 - 2 * c0 * c0 == 0:
        raise argparse.ArgumentTypeError(f"coupling {s} is a pole of the propagator (c in {{1, -1/2}})")
    return c0


def _emit(args, payload_json, payload_text) -> None:
    text = json.dumps(payload_json, indent=2, sort_keys=True) + "\n" if args.format == "json" else payload_text
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _result_lines(results) -> str:
    return "".join(r.line() + "\n" for r in results)


def _results_json(results):
    out = []
    for r in results:
        entry = {"index": r.index, "label": r.label, "status": "PASS" if r.passed else "FAIL"}
        if getattr(r, "first_nonzero", None):
            e, n, v = r.first_nonzero
            entry["first_nonzero"] = {"x_power": e, "g_power": n, "value": v}
        out.append(entry)
    return out


def cmd_solve(args) -> int:
    spec = ModelSpec(kind=args.kind, c=args.c, ng=args.ng, ltarget=args.lmax)
    table = solve_series(spec)
    data = table.to_json()
    text = "\n".join(f"{w}: {dict(g)}" for w, g in data.items()) + "\n"
    _emit(args, data, text)
    return 0


def cmd_check_loops(args) -> int:
    grade = args.nx + args.ng
    dense = solve_series(ModelSpec(kind="potts3", c=args.c, ng=args.ng, ltarget=args.nx))
    rep = generating_residual(dense, grade=min(grade, dense.grade_reached))
    gen_ok = rep.ok
    lazy = LazyTable(
        ModelSpec(kind="potts3", c=args.c, ng=args.ng, ltarget=args.nx),
        max_len=6 + args.nx + args.ng + 2,
    )
    results = loopcat.check_loops(lazy, args.nx, args.ng, variant=args.catalog)
    lines = [
        f"[{'PASS' if gen_ok else 'FAIL'}]  0  generating equation (fixed-point and derivative forms, grade {rep.grade})"
    ]
    lines += [r.line() for r in results]
    ok = gen_ok and all(r.passed for r in results)
    payload = {
        "generating_equation": "PASS" if gen_ok else "FAIL",
        "equations": _results_json(results),
        "catalog_variant": args.catalog,
    }
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0 if ok else 1


def cmd_check_sd(args) -> int:
    lazy = LazyTable(
        ModelSpec(kind="potts3", c=args.c, ng=args.ng, ltarget=args.nx),
        max_len=6 + args.nx + args.ng + 2,
    )
    results = loopcat.check_sd(lazy, args.nx, args.ng)
    ok = all(r.passed for r in results)
    _emit(args, {"reparameterisations": _results_json(results)}, _result_lines(results))
    return 0 if ok else 1


def cmd_check_curve(args) -> int:
    need_s = max(args.nx + args.ng - 6, 4 + args.ng)
    ltarget = max(need_s - args.ng, 4)
    table = solve_series(ModelSpec(kind="potts3", c=args.c, ng=args.ng, ltarget=ltarget))
    variants = ("1202", "1212") if args.moment_variant == "auto" else (args.moment_variant,)
    checks = curve_mod.check_curve(table, args.nx, args.ng, variants)
    if args.moment_variant == "auto":
        ok = any(c.passed for c in checks)
    else:
        ok = all(c.passed for c in checks)
    payload = {
        "checks": [
            {
                "variant": c.variant,
                "status": "PASS" if c.passed else "FAIL",
                "first_nonzero": None
                if c.first_nonzero is None
                else {"x_power": c.first_nonzero[0], "g_power": c.first_nonzero[1], "value": c.first_nonzero[2]},
            }
            for c in checks
        ],
        "passing_variant": next((c.variant for c in checks if c.passed), None),
    }
    _emit(args, payload, _result_lines(checks))
    return 0 if ok else 1


def cmd_check_recurrences(args) -> int:
    table = solve_series(ModelSpec(kind="potts3", c=args.c, ng=args.ng, ltarget=4))
    reports = curve_mod.check_recurrences(curve_mod.compute_moments(table))
    ok = all(r.passed for r in reports)
    payload = {
        "recurrences": [
            {"name": r.name, "status": "PASS" if r.passed else "FAIL", "first_bad_order": r.first_bad_order}
            for r in reports
        ]
    }
    _emit(args, payload, _result_lines(reports))
    return 0 if ok else 1


def cmd_oracle(args) -> int:
    word = Word.from_string(args.word)
    spec = ModelSpec(kind=args.kind, c=args.c)
    s = str(spec.const(oracle.planar_moment(word, args.nvertices, nletters=spec.nletters)))
    _emit(args, {"word": str(word), "nvertices": args.nvertices, "value": s}, s + "\n")
    return 0


def cmd_compare(args) -> int:
    spec = ModelSpec(kind=args.kind, c=args.c, ng=args.max_n, ltarget=args.max_len)
    table = solve_series(spec)
    rep = oracle.compare_with_solver(table, args.max_n, args.max_len)
    lines = [f"checked {rep.checked} coefficients against the contraction oracle"]
    for w, n, got, expect in rep.mismatches:
        lines.append(f"MISMATCH {w} g^{n}: solver {got} oracle {expect}")
    lines.append("PASS" if rep.ok else "FAIL")
    payload = {
        "checked": rep.checked,
        "mismatches": [
            {"word": str(w), "g_power": n, "solver": str(got), "oracle": str(expect)}
            for w, n, got, expect in rep.mismatches
        ],
        "status": "PASS" if rep.ok else "FAIL",
    }
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0 if rep.ok else 1


def cmd_export(args) -> int:
    table = solve_series(ModelSpec(kind="potts3", c=args.c, ng=args.ng, ltarget=4))
    moments = curve_mod.compute_moments(table)
    rows = ["moment,g_power,value"]
    data = []
    for label in curve_mod.MOMENT_LABELS:
        series = getattr(moments, "p" + label)
        for n, v in enumerate(series.coeffs):
            if not v.is_zero():
                rows.append(f"p{label},{n},{v}")
                data.append({"moment": f"p{label}", "g_power": n, "value": str(v)})
    _emit(args, data, "\n".join(rows) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pottsloop", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *, nx=False, ng=True, kind=False):
        sp.add_argument("--c", type=_parse_c, default="symbolic", help="coupling: 'symbolic' or a rational like 1/4")
        if ng:
            sp.add_argument("--ng", type=int, default=4, help="g truncation order")
        if nx:
            sp.add_argument("--nx", type=int, default=4, help="x truncation order")
        if kind:
            sp.add_argument("--kind", choices=("potts3", "pure-gravity"), default="potts3")
        sp.add_argument("--format", choices=("json", "text"), default="text")
        sp.add_argument("--out", default=None, help="write output to this path instead of stdout")

    sp = sub.add_parser("solve", help="emit the solved coefficient table as JSON")
    common(sp, kind=True)
    sp.add_argument("--lmax", type=int, default=4, help="maximum reported word length")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("check-loops", help="residuals of the full loop-equation catalog")
    common(sp, nx=True)
    sp.add_argument("--catalog", choices=("emended", "printed"), default="emended")
    sp.set_defaults(func=cmd_check_loops)

    sp = sub.add_parser("check-sd", help="reparameterisation (split/merge) identities")
    common(sp, nx=True)
    sp.set_defaults(func=cmd_check_sd)

    sp = sub.add_parser("check-curve", help="quintic spectral-curve residual")
    common(sp, nx=True)
    sp.add_argument("--moment-variant", choices=("1202", "1212", "auto"), default="auto")
    sp.set_defaults(func=cmd_check_curve)

    sp = sub.add_parser("check-recurrences", help="moment recurrence identities")
    common(sp)
    sp.set_defaults(func=cmd_check_recurrences)

    sp = sub.add_parser("oracle", help="planar contraction value of one word")
    common(sp, ng=False, kind=True)
    sp.add_argument("--word", required=True, help="boundary word, e.g. 0011 (use '' for the empty word)")
    sp.add_argument("--nvertices", type=int, default=0)
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("compare", help="solver coefficients against the contraction oracle")
    common(sp, ng=False, kind=True)
    sp.add_argument("--max-len", type=int, default=4)
    sp.add_argument("--max-n", type=int, default=2)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("export", help="CSV of the moment series")
    common(sp)
    sp.set_defaults(func=cmd_export)
    return p


def _attach_negative_c(argv: list) -> list:
    """Join ``--c -2/3`` into ``--c=-2/3``.

    argparse reads a token that starts with '-' and is not a plain decimal
    number as an option, so a negative rational after ``--c`` would be lost.
    """
    out = []
    for a in argv:
        if out and out[-1] == "--c" and re.fullmatch(r"-[0-9./]+", a):
            out[-1] = "--c=" + a
        else:
            out.append(a)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_c(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
