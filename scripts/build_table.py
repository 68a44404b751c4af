"""Build a bulk invariant table over a coordinate box as CSV and report,
on stderr, the elapsed time and how many genus-1 engine evaluations the
table needed.

Example:
    python scripts/build_table.py --genus 2 --max-b1 4 --max-b2 4 \
        --max-e8-norm 4 --max-degree 3 --out table.csv
"""

import argparse
import contextlib
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from enriques_gw import cli
from enriques_gw.gw_engine import ENGINE


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--genus", type=int, choices=(0, 1, 2), default=1)
    parser.add_argument("--max-b1", type=int, default=4)
    parser.add_argument("--max-b2", type=int, default=4)
    parser.add_argument("--max-e8-norm", type=int, default=4)
    parser.add_argument("--max-degree", type=int, default=0)
    parser.add_argument("--limit", type=int, default=10**9)
    parser.add_argument("--out", default="-", help="CSV path, - for stdout")
    args = parser.parse_args()

    argv = ["table", "--genus", str(args.genus), "--max-b1", str(args.max_b1),
            "--max-b2", str(args.max_b2), "--max-e8-norm", str(args.max_e8_norm),
            "--max-degree", str(args.max_degree), "--limit", str(args.limit),
            "--format", "csv"]
    t0 = time.perf_counter()
    if args.out == "-":
        code = cli.main(argv)
    else:
        with open(args.out, "w", encoding="utf-8") as stream, \
                contextlib.redirect_stdout(stream):
            code = cli.main(argv)
    seconds = time.perf_counter() - t0
    print("table in %.2fs; %d genus-1 evaluations" % (seconds, ENGINE.evals),
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
