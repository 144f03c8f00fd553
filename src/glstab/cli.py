"""Command-line front end: decompositions, stability reports, zigzag counts,
the acceptance suite, dimension tables, and direct oracle queries.

Exit codes: 0 success, 1 a verification check failed or an internal
invariant was violated, 2 usage error or a size guard refused the
computation.  All output is byte-deterministic for a fixed invocation; big
integers are rendered as decimal strings in JSON.  `decompose`, `stability`
and `dims` print their table, CSV and JSON through `_render`; `zigzag` and the
`oracle` counts print one value through `_emit_value`, `oracle weakstab` one
per r, and `verify` one JSON line per check.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .branching import count_zigzag, decompose_perm_module
from .degrees import p_polynomial, poly_value, prime_power, vic_hom_count
from .errors import BadParameters, GuardExceeded, InvariantViolated
from .labels import format_shape, label_of_shape, parse_shape
from .oracle.counts import (
    _space,
    conjugacy_class_count,
    double_cosets_gl,
    weakstab_cosets,
)
from .oracle.fields import MAX_Q
from .stability import empirical_stability_degree
from .verification import SUITES, run_suite

USAGE_ERROR, CHECK_FAILURE, OK = 2, 1, 0
# output of dims, stability and decompose: at most 256 sizes, numbers below
# 10**4000 (the default int-to-str limit is 4300 digits)
MAX_ROWS, MAX_DIGITS = 256, 4000


def _check_q(q, oracle=False):
    prime_power(q)
    if oracle and q > MAX_Q:
        raise BadParameters(f"oracle commands need q <= {MAX_Q}")


def _check_size(m, n_max, q, rows):
    """Refuse more than MAX_ROWS sizes or numbers of more than MAX_DIGITS digits: each
    is at most vic_hom_count(m, n, q) < q**(m * (2n - m)) or a dims denominator q**(m * m).
    A negative m, or an n_max below m, leaves no size, so each is refused too."""
    if m < 0:
        raise BadParameters(f"m must be non-negative, got m={m}")
    if n_max < m:
        raise BadParameters(f"no size n with m={m} <= n <= {n_max}")
    if rows > MAX_ROWS or m * max(m, 2 * n_max - m) * math.log10(q) > MAX_DIGITS:
        limits = dict(m=m, n_max=n_max, q=q, rows=MAX_ROWS, digits=MAX_DIGITS)
        raise GuardExceeded("output too large", **limits)


def _printable(value):
    """value, or a power-of-two lower bound as text for an int too long to print."""
    try:
        str(value)
    except ValueError:
        return f">= 2**{value.bit_length() - 1}"
    return value


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


def _render(fmt, out, payload, headers, rows, *footer):
    """Print payload as JSON, rows under headers as CSV, or rows as a table then footer."""
    if fmt == "json":
        _emit(json.dumps(payload, sort_keys=True), out)
    elif fmt == "csv":
        _emit(_csv(headers, rows), out)
    else:
        for text in (_table(headers, rows), *footer):
            _emit(text, out)


def cmd_decompose(args, out):
    _check_q(args.q)
    n = args.n if args.n is not None else 3 * args.m
    _check_size(args.m, n, args.q, rows=1)
    if args.m == 0 and (2 * n - 1) * math.log10(args.q) > MAX_DIGITS:
        # only 1s are printed, but the trivial degree takes n hook lengths: n is bounded as at m = 1
        raise GuardExceeded("size too large", m=0, n_max=n, q=args.q, digits=MAX_DIGITS)
    # decompose_perm_module raises InvariantViolated unless the dimension identity holds
    dec = decompose_perm_module(n, args.m, args.q)
    oracle_sumsq = None
    if args.q <= MAX_Q:
        try:
            oracle_sumsq = double_cosets_gl(n, args.m, args.q)
        except GuardExceeded:
            pass
    sumsq_ok = oracle_sumsq is None or oracle_sumsq == dec.sum_squares()
    payload = dec.to_json()
    payload["checks"].update(dimension_ok=True, sum_sq_ok=sumsq_ok,
                             oracle_sum_sq="SKIPPED" if oracle_sumsq is None else str(oracle_sumsq))
    rows = [(format_shape(e.shape), e.multiplicity, e.class_size, e.degree) for e in dec.entries]
    oracle = "SKIPPED" if oracle_sumsq is None else ("ok" if sumsq_ok else "FAILED")
    _render(args.format, out, payload, ["shape", "multiplicity", "class_size", "degree"], rows,
            f"sum_sq={dec.sum_squares()} dim={dec.dimension()}",
            f"checks: dimension ok, oracle sum-of-squares {oracle}")
    return OK if sumsq_ok else CHECK_FAILURE


def cmd_stability(args, out):
    _check_q(args.q)
    _check_size(args.m, args.n_max, args.q, rows=args.n_max - args.m + 1)
    report = empirical_stability_degree(args.m, args.q, args.n_max)
    sizes = sorted(report.decompositions)
    mults = [{e.shape: e.multiplicity for e in report.decompositions[n].entries} for n in sizes]
    shapes = sorted(set().union(*mults), key=lambda s: s.sort_key())
    rows = [[format_shape(s)] + [mp.get(s, 0) for mp in mults] for s in shapes]
    _render(args.format, out, report.to_json(), ["shape"] + [f"n={n}" for n in sizes], rows,
            f"observed stability degree {report.observed_stability_degree}"
            f" (bound 3m = {3 * args.m})")
    return OK if report.bound_satisfied else CHECK_FAILURE


def cmd_zigzag(args, out):
    _check_q(args.q)
    nu = label_of_shape(parse_shape(args.src))
    mu = label_of_shape(parse_shape(args.dst))
    return _emit_value(count_zigzag(nu, mu, mu.norm() - nu.norm(), args.q), args.format, out)


def cmd_verify(args, out):
    results = run_suite(suite=args.suite, quick=args.quick)
    for r in results:
        _emit(json.dumps(r._asdict(), sort_keys=True), out)
    return CHECK_FAILURE if any(r.status == "FAIL" for r in results) else OK


def cmd_dims(args, out):
    _check_q(args.q)
    _check_size(args.m, args.n_max, args.q, rows=args.n_max - args.m + 1)
    poly = p_polynomial(args.m, args.q)
    rows = []
    for n in range(args.m, args.n_max + 1):
        count = vic_hom_count(args.m, n, args.q)
        oracle = "SKIPPED"
        if args.q <= MAX_Q and count <= 2**16:
            try:
                oracle = str(len(_space(args.m, n, args.q)[0]))
            except GuardExceeded:
                pass
        rows.append((n, str(poly_value(poly, args.q**n)), str(count), oracle))
    coeffs = {str(e): f"{c.numerator}/{c.denominator}" for e, c in poly.items()}
    payload = {"m": args.m, "q": args.q, "polynomial": {"coeffs": coeffs},
               "rows": [{"n": n, "p_value": p, "count": c, "oracle": o} for n, p, c, o in rows]}
    p_header = "p_value" if args.format == "csv" else "P(q^n)"
    _render(args.format, out, payload, ["n", p_header, "count", "oracle"], rows)
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
        return _emit_value(len(_space(args.m, args.n, args.q)[0]), args.format, out)
    if args.r_max < args.m:
        raise BadParameters(f"need r_max >= m, got r_max={args.r_max}, m={args.m}")
    # weakstab: one count per r, the largest r first so that a size guard refuses at once
    rs = range(args.r_max, args.m - 1, -1)
    values = [weakstab_cosets(args.l, args.m, r, args.q) for r in rs][::-1]
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
        limits = {k: _printable(v) for k, v in exc.limits.items()}
        sys.stderr.write(
            json.dumps({"error": "guard_exceeded", "reason": str(exc), "limits": limits}) + "\n"
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
