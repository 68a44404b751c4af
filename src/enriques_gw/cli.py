"""Command-line surface: single invariant queries, bulk tables, series
dumps, prediction cross-checks, local-theory evaluations, and the
acceptance self-check suite.

All output is exact (fractions, never decimals) and deterministic:
rows are emitted in lexicographic class order, JSON objects have a
fixed key order, and nothing depends on hashing or threads.

Exit codes: 0 success, 1 usage error, 2 computation error or resource
refusal, 3 self-check failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from . import km_model, local_surface, qseries, selfcheck, sweeps
from .gw_engine import ENGINE, invariant_record
from .lattice import parse_vector
from .qseries import sigma_pow

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_SELFCHECK = 3

TABLE_CAPS = {"max_b1": 6, "max_b2": 6, "max_e8_norm": 8, "max_degree": 20}
DEFAULT_ROW_LIMIT = 200000

CSV_HEADER = ["genus"] + ["b%d" % i for i in range(1, 11)] + ["d", "value", "rule"]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # computation errors, so usage problems are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _row_to_csv(row):
    return [row["genus"]] + list(row["beta"]) + [row["d"], row["value"], row["rule"]]


def _emit_rows(rows, fmt, out):
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(_row_to_csv(row))
    else:
        for row in rows:
            out.write(json.dumps(row) + "\n")


def cmd_invariant(args, out=None):
    out = out if out is not None else sys.stdout
    beta = parse_vector(args.beta)
    record = invariant_record(args.genus, (beta, args.degree))
    _emit_rows([record.as_dict()], args.format, out)
    return EXIT_OK


def _table_rows(args):
    # rules mirror gw_engine.invariant_record; values come from the same
    # engine, keyed one b2 slice of the box at a time
    for coords, s, key in sweeps.box_classes(args.max_b1, args.max_b2, args.max_e8_norm):
        b1, b2, e = coords[0], coords[1], coords[2:]
        value1 = ENGINE.class_value(b1, b2, e, key) if s >= 0 else Fraction(0)
        if args.genus == 2:
            core = ENGINE.genus2_core(b1, b2, e, key) if key is not None else Fraction(0)
        for d in range(0, args.max_degree + 1):
            if args.genus == 0:
                value, rule = Fraction(0), "vanishing"
            elif args.genus == 1:
                if d > 0 or s < 0:
                    value, rule = Fraction(0), "vanishing"
                elif s == 0:
                    value, rule = 4 * value1, "isotropic base"
                else:
                    value, rule = 4 * value1, "recursion"
            else:
                if d == 0:
                    value, rule = Fraction(-1, 4) * value1 * s, "fiber"
                else:
                    value, rule = sigma_pow(1, d) * core, "degree series"
            yield {"genus": args.genus, "beta": list(coords), "d": d,
                   "value": str(value), "rule": rule}


def cmd_table(args, out=None):
    out = out if out is not None else sys.stdout
    for name, cap in TABLE_CAPS.items():
        if getattr(args, name) > cap:
            sys.stderr.write("table: --%s exceeds the cap %d\n"
                             % (name.replace("_", "-"), cap))
            return EXIT_COMPUTE
    if args.max_b1 < 0 or args.max_b2 < 0 or args.max_e8_norm < 0 or args.max_degree < 0:
        sys.stderr.write("table: box bounds must be nonnegative\n")
        return EXIT_COMPUTE
    n_parts = len(sweeps.box_e8_parts(args.max_e8_norm)[0])
    n_classes = args.max_b1 + (args.max_b1 + 1) * args.max_b2 * n_parts
    n_rows = n_classes * (args.max_degree + 1)
    if n_rows > args.limit:
        sys.stderr.write("table: %d rows exceed the limit %d "
                         "(raise --limit to proceed)\n" % (n_rows, args.limit))
        return EXIT_COMPUTE
    _emit_rows(_table_rows(args), args.format, out)
    return EXIT_OK


_SERIES = {
    "E2": lambda order: qseries.eisenstein(2, order),
    "E4": lambda order: qseries.eisenstein(4, order),
    "E6": lambda order: qseries.eisenstein(6, order),
    "E8": lambda order: qseries.eisenstein(8, order),
    "P1": lambda order: qseries.p_series(1, order),
    "P2": lambda order: qseries.p_series(2, order),
    "P2sub": lambda order: qseries.p_series_substituted(2, order),
    "c1": lambda order: qseries.c_coefficients(1, order),
    "c2": lambda order: qseries.c_coefficients(2, order),
    "eta": lambda order: qseries.inv_even_eta_product(order),
}


def cmd_series(args, out=None):
    out = out if out is not None else sys.stdout
    series = _SERIES[args.what](args.order)
    pairs = [(n, str(series.coeff(n)))
             for n in range(series.offset, series.trunc + 1)]
    if args.format == "json":
        out.write(json.dumps({"what": args.what, "order": args.order,
                              "coefficients": pairs}) + "\n")
    else:
        for n, value in pairs:
            out.write("%d\t%s\n" % (n, value))
    return EXIT_OK


def cmd_km_check(args, out=None):
    out = out if out is not None else sys.stdout
    beta = parse_vector(args.beta)
    if args.f56:
        report = km_model.km_f56_check(beta, args.convention, args.order)
    else:
        report = km_model.compare_engine_vs_km(args.genus, beta, args.order)
    out.write(json.dumps(report) + "\n")
    return EXIT_OK


def _parse_alphas(text):
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def cmd_local(args, out=None):
    out = out if out is not None else sys.stdout
    if args.s2n is not None:
        out.write(json.dumps(local_surface.s2n_numerics(args.s2n)) + "\n")
        return EXIT_OK
    alphas = _parse_alphas(args.alphas)
    if args.dimension:
        spec = local_surface.DescendentSpec(
            alphas=tuple(alphas), m=args.m, g=args.genus, d=args.ddeg,
            g_C=args.gc, sign=args.sign)
        ok = local_surface.dimension_check(spec, _parse_alphas(args.alphas_tilde))
        out.write(json.dumps({"satisfied": ok}) + "\n")
        return EXIT_OK
    if args.local_degree == 1:
        value = local_surface.local_degree1(alphas, args.sign)
    else:
        value = local_surface.local_degree2(alphas, args.gc, args.sign)
    out.write(json.dumps({"degree": args.local_degree, "alphas": alphas,
                          "sign": args.sign, "value": str(value)}) + "\n")
    return EXIT_OK


def cmd_selfcheck(args, out=None):
    out = out if out is not None else sys.stdout
    numbers = None
    if args.only:
        numbers = {int(part) for part in args.only.split(",")}
    results = selfcheck.run_all(numbers)
    out.write(selfcheck.format_results(results) + "\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_SELFCHECK


def build_parser():
    parser = _Parser(prog="enriques-gw",
                     description="Exact curve-counting invariants of the "
                                 "Enriques Calabi-Yau threefold")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariant", help="one invariant N_{g,(beta,d)}")
    p.add_argument("--genus", type=int, choices=(0, 1, 2), required=True)
    p.add_argument("--beta", required=True,
                   help="10 comma-separated integers b1,b2,e1,...,e8")
    p.add_argument("--degree", type=int, default=0, help="fiber degree d")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_invariant)

    p = sub.add_parser("table", help="bulk invariant table over a class box")
    p.add_argument("--genus", type=int, choices=(0, 1, 2), required=True)
    p.add_argument("--max-b1", type=int, default=1)
    p.add_argument("--max-b2", type=int, default=1)
    p.add_argument("--max-e8-norm", type=int, default=0)
    p.add_argument("--max-degree", type=int, default=0)
    p.add_argument("--limit", type=int, default=DEFAULT_ROW_LIMIT,
                   help="refuse to emit more rows than this")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("series", help="coefficients of a named q-series")
    p.add_argument("--what", choices=sorted(_SERIES), required=True)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_series)

    p = sub.add_parser("km-check", help="engine vs heterotic prediction")
    p.add_argument("--genus", type=int, choices=(1, 2), default=2)
    p.add_argument("--beta", required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--f56", action="store_true",
                   help="run the genus-2/genus-1 consistency check instead")
    p.add_argument("--convention", choices=("full", "half"), default="full")
    p.set_defaults(handler=cmd_km_check)

    p = sub.add_parser("local", help="local surface formulas")
    p.add_argument("--local-degree", type=int, choices=(1, 2), default=1)
    p.add_argument("--alphas", default="", help="comma-separated exponents")
    p.add_argument("--gc", type=int, default=0, help="base curve genus")
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)
    p.add_argument("--s2n", type=int, default=None,
                   help="print branched double plane numerics for this n")
    p.add_argument("--dimension", action="store_true",
                   help="evaluate the dimension constraint instead")
    p.add_argument("--alphas-tilde", default="")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--genus", type=int, default=1)
    p.add_argument("--ddeg", type=int, default=1)
    p.set_defaults(handler=cmd_local)

    p = sub.add_parser("selfcheck", help="run the acceptance criteria")
    p.add_argument("--only", default="",
                   help="comma-separated criterion numbers to run")
    p.set_defaults(handler=cmd_selfcheck)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        sys.stderr.write("%s: %s\n" % (args.command, exc))
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
