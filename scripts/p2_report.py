"""Dump the P_2 discrepancy report: the printed quasimodular formula
against the raw substitution value, coefficient by coefficient.

Example:
    python scripts/p2_report.py --order 20
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from enriques_gw import qseries


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=12)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    report = qseries.p2_discrepancy_report(args.order)
    if args.json:
        print(json.dumps(report, indent=2))
        return
    print("printed:      %s" % report["printed_formula"])
    print("substituted:  %s" % report["substituted_formula"])
    print("%4s  %16s  %16s" % ("q^n", "printed", "substituted"))
    for diff in report["differences"]:
        print("%4d  %16s  %16s" % (diff["exponent"], diff["printed"], diff["substituted"]))
    if report["agree"]:
        print("no differences up to order %d" % report["order"])


if __name__ == "__main__":
    main()
