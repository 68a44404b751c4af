"""Command-line surface: single invariant queries, bulk tables, series
dumps, prediction cross-checks, local-theory evaluations, and the
acceptance self-check suite.

All output is exact (fractions, never decimals) and deterministic:
rows are emitted in lexicographic class order, JSON objects have a
fixed key order, and nothing depends on hashing or threads.

`table` builds its lines per (b1, b2) slice of the box
(sweeps.box_slices), not per row.  Each E8 part's coordinate string is
formatted once for the table and each slice's head (genus, b1, b2) once
for the slice.  A slice groups its parts by engine key up to b1, and
the lines of every degree (d, value, rule) are formatted once per
group.  A class's lines are the group's lines, each prefixed by slice
head + part string, joined in C over chunks of about a thousand lines
(_table_rows); no class is formatted as a whole and no Python step runs
per row.  The bytes equal those of serializing one dict per row;
`invariant` writes its row from the same three pieces.

Exit codes: 0 success, 1 usage error, 2 computation error or resource
refusal, 3 self-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import km_model, local_surface, qseries, sweeps
from .gw_engine import ENGINE, invariant_record, value_rule
from .lattice import parse_vector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_COMPUTE = 2
EXIT_SELFCHECK = 3

TABLE_CAPS = {"max_b1": 6, "max_b2": 6, "max_e8_norm": 8, "max_degree": 20}
DEFAULT_ROW_LIMIT = 200000

# lines a table chunk joins into one string before it is written (about
# 0.1 KB a line): enough that the C-level joins, not the loop around them,
# take the time.  Chunks of 2048 lines or more joined slower, and 8192
# raised the genus-2 benchmark table's peak RSS by 1.5 MB
_CHUNK_LINES = 1024

CSV_HEADER = ["genus"] + ["b%d" % i for i in range(1, 11)] + ["d", "value", "rule"]

# output lines per format, in three pieces: slice head (genus, b1, b2),
# E8 part (e1..e8, with the bracket closing beta in json) and degree
# suffix (d, value, rule); values and rules need no quoting or escaping,
# so the lines equal those csv.writer and json.dumps give for the same rows
_TABLE_LINES = {
    "csv": ("%d,%d,%d,", "%d," * 8, "%d,%s,%s\n"),
    "json": ('{"genus": %d, "beta": [%d, %d, ', "%d, " * 7 + '%d], "d": ',
             '%d, "value": "%s", "rule": "%s"}\n'),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # computation errors, so usage problems are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _write_lines(fmt, lines):
    if fmt == "csv":
        sys.stdout.write(",".join(CSV_HEADER) + "\n")
    sys.stdout.writelines(lines)


def cmd_invariant(args):
    record = invariant_record(args.genus, (parse_vector(args.beta), args.degree))
    head, part, tail = _TABLE_LINES[args.format]
    c = record.cls.beta.coords
    line = (head % (record.genus, c[0], c[1]) + part % c[2:]
            + tail % (record.cls.d, record.value, record.rule))
    _write_lines(args.format, [line])
    return EXIT_OK


def _table_rows(args):
    """The table's output lines, built per (b1, b2) slice of
    sweeps.box_slices and yielded in chunks: one string of at most
    _CHUNK_LINES lines, or one class's lines if that is more, never
    splitting a class.

    Each E8 part's string is formatted once for the table and each
    slice's head once for the slice.  A row's value and rule depend on
    its class only through the slice's group (the engine key; negative
    squares not at all), so each group's degree lines are formatted once
    as the tails ("", line_0, ..., line_D), and a class's lines are
    (slice head + part string).join(tails): a chunk is built by C-level
    joins, with no Python step per row or per class.  The first <1> a
    rule reads evaluates every keyed group of the box at once
    (sweeps.box_values)."""
    head, part, tail = _TABLE_LINES[args.format]
    genus = args.genus
    degrees = range(args.max_degree + 1)
    step = max(1, _CHUNK_LINES // len(degrees))  # classes per chunk
    parts, slices = sweeps.box_slices(args.max_b1, args.max_b2, args.max_e8_norm)
    slices = list(slices)
    part_strs = [part % e for e in parts]
    values = {}

    def value_of(b1, b2, e, key):
        if key is None:
            return ENGINE.class_value(b1, b2, e)
        if not values:
            values.update(sweeps.box_values(slices, ENGINE))
        return values[key]

    suffixes = {}
    for b1, b2, cols, idx, classes in slices:
        tails = []
        for e, s, key in classes:
            skey = key if key is not None else "negative" if b2 else ("isotropic", b1)
            lines = suffixes.get(skey)
            if lines is None:
                value1 = lambda: value_of(b1, b2, e, key)
                lines = suffixes[skey] = ("",) + tuple(
                    tail % ((d,) + value_rule(genus, d, s, value1)) for d in degrees)
            tails.append(lines)
        prefix = (head % (genus, b1, b2)).__add__
        strs = part_strs[cols]
        for lo in range(0, len(strs), step):
            hi = lo + step
            yield "".join(map(str.join, map(prefix, strs[lo:hi]),
                              map(tails.__getitem__, idx[lo:hi])))


def cmd_table(args):
    for name, cap in TABLE_CAPS.items():
        if getattr(args, name) > cap:
            sys.stderr.write("table: --%s exceeds the cap %d\n"
                             % (name.replace("_", "-"), cap))
            return EXIT_COMPUTE
    if args.max_b1 < 0 or args.max_b2 < 0 or args.max_e8_norm < 0 or args.max_degree < 0:
        sys.stderr.write("table: box bounds must be nonnegative\n")
        return EXIT_COMPUTE
    n_rows = (sweeps.box_class_count(args.max_b1, args.max_b2, args.max_e8_norm)
              * (args.max_degree + 1))
    if n_rows > args.limit:
        sys.stderr.write("table: %d rows exceed the limit %d "
                         "(raise --limit to proceed)\n" % (n_rows, args.limit))
        return EXIT_COMPUTE
    _write_lines(args.format, _table_rows(args))
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


def cmd_series(args):
    series = _SERIES[args.what](args.order)
    pairs = [(n, str(series.coeff(n)))
             for n in range(series.offset, series.trunc + 1)]
    if args.format == "json":
        sys.stdout.write(json.dumps({"what": args.what, "order": args.order,
                                     "coefficients": pairs}) + "\n")
    else:
        for n, value in pairs:
            sys.stdout.write("%d\t%s\n" % (n, value))
    return EXIT_OK


def cmd_km_check(args):
    beta = parse_vector(args.beta)
    if args.f56:
        report = km_model.km_f56_check(beta, args.convention, args.order)
    else:
        report = km_model.compare_engine_vs_km(args.genus, beta, args.order)
    sys.stdout.write(json.dumps(report) + "\n")
    return EXIT_OK


def _parse_alphas(text):
    text = text.strip()
    if not text:
        return []
    return [int(part) for part in text.split(",")]


def cmd_local(args):
    if args.s2n is not None:
        sys.stdout.write(json.dumps(local_surface.s2n_numerics(args.s2n)) + "\n")
        return EXIT_OK
    alphas = _parse_alphas(args.alphas)
    if args.dimension:
        spec = local_surface.DescendentSpec(
            alphas=tuple(alphas), m=args.m, g=args.genus, d=args.ddeg,
            g_C=args.gc, sign=args.sign)
        ok = local_surface.dimension_check(spec, _parse_alphas(args.alphas_tilde))
        sys.stdout.write(json.dumps({"satisfied": ok}) + "\n")
        return EXIT_OK
    if args.local_degree == 1:
        value = local_surface.local_degree1(alphas, args.sign)
    else:
        value = local_surface.local_degree2(alphas, args.gc, args.sign)
    sys.stdout.write(json.dumps({"degree": args.local_degree, "alphas": alphas,
                                 "sign": args.sign, "value": str(value)}) + "\n")
    return EXIT_OK


def cmd_selfcheck(args):
    # imported here, so the other commands do not load the criteria
    from . import selfcheck

    numbers = None
    if args.only:
        known = {str(n): n for n in range(1, len(selfcheck.ALL_CRITERIA) + 1)}
        parts = [part.strip() for part in args.only.split(",")]
        if not all(part in known for part in parts):
            sys.stderr.write("selfcheck: --only takes criterion numbers 1..%d, not %r\n"
                             % (len(known), args.only))
            return EXIT_USAGE
        numbers = {known[part] for part in parts}
    results = selfcheck.run_all(numbers)
    sys.stdout.write(selfcheck.format_results(results) + "\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_SELFCHECK


def _invariant_args(p):
    p.add_argument("--genus", type=int, choices=(0, 1, 2), required=True)
    p.add_argument("--beta", required=True,
                   help="10 comma-separated integers b1,b2,e1,...,e8")
    p.add_argument("--degree", type=int, default=0, help="fiber degree d")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_invariant)


def _table_args(p):
    p.add_argument("--genus", type=int, choices=(0, 1, 2), required=True)
    p.add_argument("--max-b1", type=int, default=1)
    p.add_argument("--max-b2", type=int, default=1)
    p.add_argument("--max-e8-norm", type=int, default=0)
    p.add_argument("--max-degree", type=int, default=0)
    p.add_argument("--limit", type=int, default=DEFAULT_ROW_LIMIT,
                   help="refuse to emit more rows than this")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_table)


def _series_args(p):
    p.add_argument("--what", choices=sorted(_SERIES), required=True)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_series)


def _km_check_args(p):
    p.add_argument("--genus", type=int, choices=(1, 2), default=2)
    p.add_argument("--beta", required=True)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--f56", action="store_true",
                   help="run the genus-2/genus-1 consistency check instead")
    p.add_argument("--convention", choices=("full", "half"), default="full")
    p.set_defaults(handler=cmd_km_check)


def _local_args(p):
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


def _selfcheck_args(p):
    p.add_argument("--only", default="",
                   help="comma-separated criterion numbers to run")
    p.set_defaults(handler=cmd_selfcheck)


# command -> (help, function adding its arguments to its subparser)
_COMMANDS = {
    "invariant": ("one invariant N_{g,(beta,d)}", _invariant_args),
    "table": ("bulk invariant table over a class box", _table_args),
    "series": ("coefficients of a named q-series", _series_args),
    "km-check": ("engine vs heterotic prediction", _km_check_args),
    "local": ("local surface formulas", _local_args),
    "selfcheck": ("run the acceptance criteria", _selfcheck_args),
}


def build_parser(command=None):
    """The CLI's parser, with the subparser of every command, or only of
    `command` when it names one: main builds just the subparser argv[0]
    names, and all of them for --help, an empty argv or an unknown name."""
    parser = _Parser(prog="enriques-gw",
                     description="Exact curve-counting invariants of the "
                                 "Enriques Calabi-Yau threefold")
    # a parser with one subparser still shows every command in its usage
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=command and "{%s}" % ",".join(_COMMANDS))
    for name, (text, add_args) in _COMMANDS.items():
        if command in (None, name):
            add_args(sub.add_parser(name, help=text))
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OverflowError, KeyError, ZeroDivisionError) as exc:
        sys.stderr.write("%s: %s\n" % (args.command, exc))
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
