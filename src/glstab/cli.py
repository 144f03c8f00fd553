"""Command-line front end: decompositions, stability reports, zigzag counts,
the acceptance suite, dimension tables, and direct oracle queries.

Exit codes: 0 success, 1 a verification check failed or an internal
invariant was violated, 2 usage error or a size guard refused the
computation.  All output is byte-deterministic for a fixed invocation; big
integers are rendered as decimal strings in JSON.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .branching import count_zigzag, decompose_perm_module
from .degrees import p_polynomial, prime_power, vic_hom_count
from .errors import BadParameters, GuardExceeded, InvariantViolated
from .labels import format_shape, label_of_shape, parse_shape
from .oracle.counts import (
    conjugacy_class_count,
    double_cosets_gl,
    weakstab_cosets,
)
from .oracle.fields import MAX_Q
from .oracle.vic import vic_morphisms
from .stability import empirical_stability_degree
from .verification import SUITES, run_suite

USAGE_ERROR, CHECK_FAILURE, OK = 2, 1, 0
# dims tables: at most 256 rows, numbers below 10**4000 (the default int-to-str
# limit is 4300 digits)
DIMS_ROWS, DIMS_DIGITS = 256, 4000


def _check_q(q, oracle=False):
    if q.bit_length() > 63:
        raise BadParameters("q must fit in 64 bits")
    prime_power(q)
    if oracle and q > MAX_Q:
        raise BadParameters(f"oracle commands need q <= {MAX_Q}")


def _emit(text, out):
    out.write(text if text.endswith("\n") else text + "\n")


def _table(headers, rows):
    cols = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cols) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cols):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _csv(headers, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_decompose(args, out):
    _check_q(args.q)
    n = args.n if args.n is not None else 3 * args.m
    # decompose_perm_module raises InvariantViolated unless the dimension identity holds
    dec = decompose_perm_module(n, args.m, args.q)
    oracle_sumsq = None
    if args.q <= MAX_Q:
        try:
            oracle_sumsq = double_cosets_gl(n, args.m, args.q)
        except GuardExceeded:
            oracle_sumsq = None
    sumsq_ok = oracle_sumsq is None or oracle_sumsq == dec.sum_squares()
    rows = [
        (format_shape(e.shape), e.multiplicity, e.class_size, e.degree)
        for e in dec.entries
    ]
    if args.format == "json":
        payload = dec.to_json()
        payload["checks"]["dimension_ok"] = True
        payload["checks"]["oracle_sum_sq"] = (
            "SKIPPED" if oracle_sumsq is None else str(oracle_sumsq)
        )
        payload["checks"]["sum_sq_ok"] = sumsq_ok
        _emit(json.dumps(payload, sort_keys=True), out)
    elif args.format == "csv":
        _emit(_csv(["shape", "multiplicity", "class_size", "degree"], rows), out)
    else:
        _emit(_table(["shape", "multiplicity", "class_size", "degree"], rows), out)
        _emit(f"sum_sq={dec.sum_squares()} dim={dec.dimension()}", out)
        _emit(
            "checks: dimension ok, oracle sum-of-squares "
            + ("SKIPPED" if oracle_sumsq is None else ("ok" if sumsq_ok else "FAILED")),
            out,
        )
    return OK if sumsq_ok else CHECK_FAILURE


def cmd_stability(args, out):
    _check_q(args.q)
    report = empirical_stability_degree(args.m, args.q, args.n_max)
    if args.format == "json":
        _emit(json.dumps(report.to_json(), sort_keys=True), out)
    else:
        sizes = sorted(report.decompositions)
        shapes = sorted(
            {e.shape for dec in report.decompositions.values() for e in dec.entries},
            key=lambda s: s.sort_key(),
        )
        rows = []
        for shape in shapes:
            mults = [
                report.decompositions[n].stable_map().get(shape, (0,))[0] for n in sizes
            ]
            rows.append([format_shape(shape)] + mults)
        headers = ["shape"] + [f"n={n}" for n in sizes]
        if args.format == "csv":
            _emit(_csv(headers, rows), out)
        else:
            _emit(_table(headers, rows), out)
            _emit(
                f"observed stability degree {report.observed_stability_degree}"
                f" (bound 3m = {3 * args.m})",
                out,
            )
    return OK if report.bound_satisfied else CHECK_FAILURE


def cmd_zigzag(args, out):
    _check_q(args.q)
    nu = label_of_shape(parse_shape(args.src))
    mu = label_of_shape(parse_shape(args.dst))
    return _emit_value(count_zigzag(nu, mu, mu.norm() - nu.norm(), args.q), args.format, out)


def cmd_verify(args, out):
    results = run_suite(suite=args.suite, quick=args.quick)
    failed = False
    for r in results:
        _emit(json.dumps(r.to_json(), sort_keys=True), out)
        failed = failed or r.status == "FAIL"
    return CHECK_FAILURE if failed else OK


def cmd_dims(args, out):
    _check_q(args.q)
    # every printed number is below q**e, as vic_hom_count(m, n, q) < q**(m*(2n - m))
    e = args.m * max(args.m, 2 * args.n_max - args.m)
    if args.n_max - args.m >= DIMS_ROWS or e * math.log10(args.q) > DIMS_DIGITS:
        raise GuardExceeded(
            "dims table too large", m=args.m, n_max=args.n_max, q=args.q,
            rows=DIMS_ROWS, digits=DIMS_DIGITS,
        )
    poly = p_polynomial(args.m, args.q)
    rows = []
    for n in range(args.m, args.n_max + 1):
        count = vic_hom_count(args.m, n, args.q)
        oracle = "SKIPPED"
        if args.q <= MAX_Q and count <= 2**16:
            oracle = str(len(vic_morphisms(args.m, n, args.q)))
        rows.append((n, str(poly.evaluate(args.q**n)), str(count), oracle))
    if args.format == "json":
        payload = {
            "m": args.m,
            "q": args.q,
            "polynomial": poly.to_json(),
            "rows": [
                {"n": n, "p_value": p, "count": c, "oracle": o} for n, p, c, o in rows
            ],
        }
        _emit(json.dumps(payload, sort_keys=True), out)
    elif args.format == "csv":
        _emit(_csv(["n", "p_value", "count", "oracle"], rows), out)
    else:
        _emit(_table(["n", "P(q^n)", "count", "oracle"], rows), out)
    return OK


def _emit_value(value, fmt, out):
    if fmt == "json":
        _emit(json.dumps({"value": str(value)}), out)
    else:
        _emit(str(value), out)
    return OK


def cmd_oracle(args, out):
    _check_q(args.q, oracle=True)
    if args.oracle_cmd == "double-cosets":
        return _emit_value(double_cosets_gl(args.n, args.m, args.q), args.format, out)
    if args.oracle_cmd == "classes":
        return _emit_value(conjugacy_class_count(args.n, args.q), args.format, out)
    if args.oracle_cmd == "vic-count":
        return _emit_value(len(vic_morphisms(args.m, args.n, args.q)), args.format, out)
    # weakstab: one count per r
    values = [
        weakstab_cosets(args.l, args.m, r, args.q) for r in range(args.m, args.r_max + 1)
    ]
    if args.format == "json":
        _emit(json.dumps({"values": [str(v) for v in values]}), out)
    else:
        for v in values:
            _emit(str(v), out)
    return OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="glstab",
        description="Decompositions of GL_n(F_q) permutation modules and their stability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose k[G_n/G_{n-m}]")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="default 3m")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("stability", help="per-n decompositions and observed onset")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("zigzag", help="count zigzag paths between two labels")
    p.add_argument("--from", dest="src", required=True, help='e.g. "i:(1)"')
    p.add_argument("--to", dest="dst", required=True, help='e.g. "i:(1,1)"')
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_zigzag)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--suite", choices=sorted(SUITES), default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("dims", help="dimension polynomial of the free module")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(fn=cmd_dims)

    p = sub.add_parser("oracle", help="direct brute-force queries")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    o = osub.add_parser("double-cosets")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--m", type=int, required=True)
    o.add_argument("--q", type=int, required=True)
    o = osub.add_parser("weakstab")
    o.add_argument("--l", type=int, required=True)
    o.add_argument("--m", type=int, required=True)
    o.add_argument("--r-max", dest="r_max", type=int, required=True)
    o.add_argument("--q", type=int, required=True)
    o = osub.add_parser("classes")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--q", type=int, required=True)
    o = osub.add_parser("vic-count")
    o.add_argument("--m", type=int, required=True)
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--q", type=int, required=True)
    for name in ("double-cosets", "weakstab", "classes", "vic-count"):
        osub.choices[name].add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else OK
    try:
        return args.fn(args, sys.stdout)
    except GuardExceeded as exc:
        sys.stderr.write(
            json.dumps({"error": "guard_exceeded", "reason": str(exc), "limits": exc.limits})
            + "\n"
        )
        return USAGE_ERROR
    except InvariantViolated as exc:
        sys.stderr.write(json.dumps({"error": "invariant_violated", "reason": str(exc)}) + "\n")
        return CHECK_FAILURE
    except ValueError as exc:
        sys.stderr.write(json.dumps({"error": "bad_parameters", "reason": str(exc)}) + "\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
