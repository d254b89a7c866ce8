"""Command-line front end.

Subcommands: poly, factor, converge (mbonacci | general), scan, grid,
bound, mann. ``factor`` takes a tree with any number of arms: its sieve
needs no order cap. Data goes to stdout (or --output), diagnostics to stderr.
Numeric fields in machine-readable output are exact decimal strings,
never binary floats. Exit codes: 0 success, 2 usage error, 3 for a
classification failure, a periodicity violation, a root iteration that
did not converge or a polynomial with no root above 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional, Sequence

from .coxeter import StarTree, coxeter_polynomial, p_polynomial, qrs_blocks
from .factorize import (
    CYCLOTOMIC_ONLY,
    ORDER_BOUND_FACTOR,
    CertificationError,
    ClassificationError,
    factor_coxeter,
    multiplicity_bound,
    salem_degree_lower_bound,
    verify_mann,
)
from .roots import (
    NoSignChange,
    NonConvergence,
    certify_tree,
    converge_general,
    converge_mbonacci,
)
from .scan import PeriodicityViolation, grid_verify, periodicity_scan

USAGE_ERROR = 2
DATA_ERROR = 3


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_arms(values: Sequence[str], parser: argparse.ArgumentParser) -> StarTree:
    try:
        return StarTree(tuple(int(v) for v in values))
    except ValueError as exc:
        parser.error(str(exc))
        raise AssertionError  # parser.error exits


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def _cmd_poly(args, parser) -> int:
    tree = _parse_arms(args.arms, parser)
    if not tree.strictly_ordered:
        print(
            "warning: arm lengths are not strictly increasing; "
            "Salem classification guarantees do not apply",
            file=sys.stderr,
        )
    rt = coxeter_polynomial(tree)
    p = p_polynomial(tree)
    if args.format == "json":
        doc = {
            "arms": list(tree.arms),
            "coxeter_coeffs": rt.json_coeffs(),
            "coxeter_degree": int(rt.degree()),
            "p_coeffs": p.json_coeffs(),
            "p_degree": int(p.degree()),
        }
        if tree.r == 2 and tree.strictly_ordered:
            blocks = qrs_blocks(tree)
            doc["blocks"] = {
                "q": blocks.q.json_coeffs(),
                "r": blocks.r.json_coeffs(),
                "s": blocks.s.json_coeffs(),
                "shifts": list(blocks.shifts),
            }
        _emit(_dump_json(doc) + "\n", args.output)
        return 0
    lines = [
        f"arms: {tree.arms}",
        f"coxeter polynomial (degree {rt.degree()}): {rt}",
        f"cleared form P (degree {p.degree()}, height {p.height()}): {p}",
    ]
    if tree.r == 2 and tree.strictly_ordered:
        blocks = qrs_blocks(tree)
        lines += [
            f"Q block: {blocks.q}",
            f"R block: {blocks.r}",
            f"S block: {blocks.s}",
            f"shifts: z^{blocks.shifts[0]} Q + z^{blocks.shifts[1]} R + S = P",
        ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_factor(args, parser) -> int:
    tree = _parse_arms(args.arms, parser)
    fz = factor_coxeter(tree)
    degree_lower = None
    if tree.r == 2 and tree.strictly_ordered and not tree.excluded:
        try:
            trace = multiplicity_bound(tree.arms[0], tree.arms[2] - tree.arms[1])
            degree_lower = salem_degree_lower_bound(tree, trace.m)
        except CertificationError:
            degree_lower = None
    cert = None
    if fz.classification != CYCLOTOMIC_ONLY and fz.salem_factor.degree() >= 1:
        try:
            cert = certify_tree(tree, digits=args.digits, factorization=fz)
        except NoSignChange:
            # remainder of an out-of-hypotheses tree need not have a
            # root above 1; report the factorization without a certificate
            cert = None
    if args.format == "json":
        doc = fz.to_json_dict(degree_lower_bound=degree_lower)
        doc["certificate"] = None
        if cert is not None:
            doc["certificate"] = {
                "tau": cert.tau,
                "lambda": repr(cert.lam),
                "unit_residual": repr(cert.unit_residual),
                "bracket": [
                    f"{cert.bracket[0].numerator}/{cert.bracket[0].denominator}",
                    f"{cert.bracket[1].numerator}/{cert.bracket[1].denominator}",
                ],
                "classification": cert.classification_echo,
            }
        _emit(_dump_json(doc) + "\n", args.output)
        return 0
    lines = [
        f"arms: {tree.arms}",
        f"classification: {fz.classification}",
        "cyclotomic factors: "
        + (
            ", ".join(
                f"order {k} (multiplicity {m})"
                for k, m in sorted(fz.cyclotomic_factors.items())
            )
            or "none"
        ),
        f"remainder (degree {fz.salem_factor.degree()}): {fz.salem_factor}",
        f"order bound: {fz.proven_order_bound or 'none'}",
        f"unramified: {fz.unramified}",
        f"degree lower bound: {degree_lower}",
    ]
    if cert is not None:
        lines += [
            f"tau: {cert.tau}",
            f"lambda: {cert.lam:.12f}",
            f"unit-circle residual: {cert.unit_residual:.3e}",
        ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _convergence_csv(records) -> str:
    rows = []
    for rec in records:
        if rec.note:
            print(f"note: arms {rec.arms}: {rec.note}", file=sys.stderr)
            continue
        rows.append([" ".join(str(a) for a in rec.arms), rec.tau, rec.limit_value, rec.gap])
    return _csv_text(["a_arms", "tau", "limit", "gap"], rows)


def _cmd_converge(args, parser) -> int:
    if args.mode == "mbonacci":
        if args.a0 is None or args.eta is None or args.a1 is None:
            parser.error("converge mbonacci needs --a0, --eta and --a1")
        a1_values = [int(v) for v in args.a1.split(",")]
        records = converge_mbonacci(args.a0, args.eta, a1_values, digits=args.digits)
    else:
        if args.prefix is None or args.r is None or args.tails is None:
            parser.error("converge general needs --prefix, --r and --tails")
        prefix = tuple(int(v) for v in args.prefix.split(","))
        tails = [
            tuple(int(x) for x in chunk.split(":"))
            for chunk in args.tails.split(",")
        ]
        records = converge_general(prefix, args.r, tails, digits=args.digits)
    _emit(_convergence_csv(records), args.output)
    return 0


def _cmd_scan(args, parser) -> int:
    k_max = args.k_max
    if args.full_bound:
        k_max = ORDER_BOUND_FACTOR * (args.eta + args.a0 - 1)
    records = periodicity_scan(args.a0, args.eta, k_max, _parse_range(args.a1))
    rows = [
        [args.a0, args.eta, rec.arms[1], rec.k, rec.a1_mod_k, int(rec.divides)]
        for rec in records
    ]
    _emit(_csv_text(["a0", "eta", "a1", "k", "a1_mod_k", "divides"], rows), args.output)
    return 0


def _cmd_grid(args, parser) -> int:
    summary = grid_verify(
        _parse_range(args.a0),
        _parse_range(args.a1),
        _parse_range(args.a2),
        digits=args.digits,
    )
    _emit(_dump_json(summary) + "\n", args.output)
    return 0


def _cmd_bound(args, parser) -> int:
    trace = multiplicity_bound(args.a0, args.delta)
    _emit(_dump_json(trace.to_json_dict()) + "\n", args.output)
    return 0


def _cmd_mann(args, parser) -> int:
    hits = verify_mann(args.a, args.b, args.c, args.p, args.q, args.search_order)
    doc = [
        {"order": n, "root_re": repr(z.real), "root_im": repr(z.imag)}
        for n, z in hits
    ]
    _emit(_dump_json(doc) + "\n", args.output)
    return 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starsalem",
        description="Coxeter polynomials of star-like trees: exact Salem/cyclotomic "
        "factorization, certified bounds, and convergence experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt_default="text"):
        p.add_argument("--format", choices=("text", "json", "csv"), default=fmt_default)
        p.add_argument("--output", default=None, help="write to file instead of stdout")

    p = sub.add_parser("poly", help="print R_T, P and the three-arm blocks")
    p.add_argument("arms", nargs="+", help="arm lengths, each >= 2")
    add_common(p)
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("factor", help="factor R_T and certify the dominant root")
    p.add_argument("arms", nargs="+")
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--json", dest="format", action="store_const", const="json")
    add_common(p)
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("converge", help="dominant-root convergence sweeps")
    p.add_argument("mode", choices=("mbonacci", "general"))
    p.add_argument("--a0", type=int)
    p.add_argument("--eta", type=int)
    p.add_argument("--a1", help="comma-separated a1 values (mbonacci mode)")
    p.add_argument("--prefix", help="comma-separated fixed arms (general mode)")
    p.add_argument("--r", type=int, help="total arm count minus one (general mode)")
    p.add_argument("--tails", help="colon-tuples separated by commas, e.g. 10:11,20:21")
    p.add_argument("--digits", type=int, default=30)
    add_common(p, fmt_default="csv")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("scan", help="cyclotomic divisibility periodicity scan")
    p.add_argument("--a0", type=int, required=True)
    p.add_argument("--eta", type=int, required=True)
    p.add_argument("--k-max", type=int, default=64)
    p.add_argument("--a1", required=True, help="range lo:hi")
    p.add_argument(
        "--full-bound",
        action="store_true",
        help="scan k up to 420*(eta + a0 - 1) instead of --k-max",
    )
    add_common(p, fmt_default="csv")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("grid", help="verify all certified bounds on a triple grid")
    p.add_argument("--a0", default="2:15", help="range lo:hi")
    p.add_argument("--a1", default="2:15")
    p.add_argument("--a2", default="2:15")
    p.add_argument("--digits", type=int, default=15)
    add_common(p, fmt_default="json")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("bound", help="certified multiplicity bound trace")
    p.add_argument("a0", type=int)
    p.add_argument("delta", type=int)
    add_common(p, fmt_default="json")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("mann", help="roots of unity solving a*z^p + b*z^q + c = 0")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--search-order", type=int, default=100)
    add_common(p, fmt_default="json")
    p.set_defaults(func=_cmd_mann)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "digits", 30) is not None and getattr(args, "digits", 30) < 10:
        parser.error("--digits must be at least 10")
    try:
        return args.func(args, parser)
    except (ClassificationError, PeriodicityViolation, NonConvergence, NoSignChange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (ValueError, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
