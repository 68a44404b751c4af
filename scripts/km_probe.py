"""Probe the heterotic fiber predictions against the recursion engine
over a box of classes and print a verdict summary per convention,
together with the genus-2/genus-1 consistency relation outcome.

Example:
    python scripts/km_probe.py --max-b1 3 --max-b2 3 --max-e8-norm 4
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from enriques_gw import km_model


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-b1", type=int, default=3)
    parser.add_argument("--max-b2", type=int, default=3)
    parser.add_argument("--max-e8-norm", type=int, default=4)
    parser.add_argument("--max-square", type=int, default=None)
    args = parser.parse_args()

    order = max(2 * args.max_b1 * args.max_b2 + 2, 4)
    groups = list(km_model.box_verdict_groups(args.max_b1, args.max_b2, args.max_e8_norm,
                                              args.max_square))
    _, counts, f56_holds = km_model.km_verdicts(groups, order)

    print("%d classes probed" % sum(len(members) for *_, members in groups))
    for g in (1, 2):
        for conv in ("full", "half"):
            print("  genus %d, %-4s convention: %6d match, %6d mismatch"
                  % (g, conv, counts[(g, conv)]["match"], counts[(g, conv)]["mismatch"]))
    for conv in ("full", "half"):
        print("  consistency relation (%s): %s"
              % (conv, "holds" if f56_holds[conv] else "fails"))


if __name__ == "__main__":
    main()
