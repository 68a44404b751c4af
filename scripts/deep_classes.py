"""Evaluate <1> on deep classes, each in a fresh process, and print one
JSON line per class: its coordinates, the seconds ENGINE.class_value
took, ENGINE.evals, the process's peak RSS in MB (ru_maxrss) and the
first 8 hex digits of the SHA-256 of str(<1>).

With no class given it runs the deep-class table of ROADMAP.md.

Example:
    python scripts/deep_classes.py
    python scripts/deep_classes.py 2,16,0,0,0,0,0,0,0,0 1,300,0,0,0,0,0,0,0,0
"""

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

DEEP = [
    "8,8,0,0,0,0,0,0,0,0",
    "2,24,1,0,0,0,0,0,0,0",
    "1,300,0,0,0,0,0,0,0,0",
    "1,495,0,0,0,0,0,0,0,0",
    "495,1,0,0,0,0,0,0,0,0",
    "3,25,0,0,0,0,0,0,0,0",
    "7,10,1,0,0,0,0,0,0,0",
    "8,9,0,0,0,0,0,0,0,1",
]


def row(text):
    """The JSON row of one class, evaluated in this process."""
    sys.path.insert(0, SRC)
    from enriques_gw.gw_engine import ENGINE
    from enriques_gw.lattice import parse_vector

    c = parse_vector(text).coords
    t0 = time.perf_counter()
    value = ENGINE.class_value(c[0], c[1], c[2:])
    seconds = time.perf_counter() - t0
    return {"class": list(c), "seconds": round(seconds, 3), "evals": ENGINE.evals,
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "sha256": hashlib.sha256(str(value).encode()).hexdigest()[:8]}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("classes", nargs="*", default=DEEP,
                        help="classes b1,b2,e1,...,e8 (default: the deep-class table)")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        print(json.dumps(row(args.classes[0])))
        return 0
    for text in args.classes:
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--one", text],
                             check=True, capture_output=True, text=True).stdout
        sys.stdout.write(out)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
