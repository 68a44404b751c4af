"""Time one CLI command on a parent tree and on this tree, in alternating
fresh processes, and check that both print the same stdout.

Each pair runs `python3 -m enriques_gw.cli <argv>` once on the parent
tree's src and once on this tree's src, one process at a time; the side
that goes first alternates from pair to pair.  Each run's peak RSS is
the child's ru_maxrss, read with os.wait4 as it is reaped.  Both trees
are compiled first (compileall): where PYTHONDONTWRITEBYTECODE is set,
an uncompiled tree would compile its modules again in every run.  Prints
one JSON line: per side the median and quartiles of the wall seconds of
its runs and the median of their peak RSS in MB, the pairs this tree
won, and whether every run printed stdout of one SHA-256 digest.  The
seconds in selfcheck verdict lines, "(0.08s, budget 30s)", vary from
run to run and are left out of the digest.  Exits 1 when the digests
differ or a run exits non-zero.

Example:
    python scripts/alternate.py --parent /path/to/parent --pairs 10 -- selfcheck
"""

import argparse
import compileall
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
# the run time of a selfcheck verdict line, "(0.08s, budget 30s)"
_SECONDS = re.compile(rb"\(\d+\.\d+s, budget")


def run_once(tree, argv):
    """(wall seconds, peak RSS in MB, exit code, stdout SHA-256) of one CLI
    run on tree/src, selfcheck run times left out of the digest.  Linux
    counts in a child's ru_maxrss the RSS of this process when it started
    the child, so stdout is hashed a chunk of whole lines at a time, never
    held whole."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    digest, tail = hashlib.sha256(), b""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-m", "enriques_gw.cli"] + argv, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            lines, nl, tail = (tail + chunk).rpartition(b"\n")
            digest.update(_SECONDS.sub(b"(s, budget", lines + nl))
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - t0
    digest.update(_SECONDS.sub(b"(s, budget", tail))
    return seconds, usage.ru_maxrss / 1024, proc.returncode, digest.hexdigest()


def summary(seconds, rss):
    q1, median, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"median_s": round(median, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4),
            "peak_rss_mb": round(statistics.median(rss), 2)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="root of the parent tree (holds src/)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs of runs, at least 2 (default 10)")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if not argv or args.pairs < 2:
        parser.error("give at least 2 pairs and the CLI arguments after --")
    trees = {"parent": os.path.abspath(args.parent), "this": os.path.abspath(HERE)}
    for tree in trees.values():
        if not compileall.compile_dir(os.path.join(tree, "src"), quiet=1):
            parser.error("%s/src does not compile" % tree)
    seconds = {side: [] for side in trees}
    rss = {side: [] for side in trees}
    codes, digests = set(), set()
    for i in range(args.pairs):
        for side in (("parent", "this") if i % 2 == 0 else ("this", "parent")):
            took, peak, code, digest = run_once(trees[side], argv)
            seconds[side].append(took)
            rss[side].append(peak)
            codes.add(code)
            digests.add(digest)
    report = {"argv": argv, "pairs": args.pairs,
              "parent": summary(seconds["parent"], rss["parent"]),
              "this": summary(seconds["this"], rss["this"]),
              "wins": sum(t < p for t, p in zip(seconds["this"], seconds["parent"])),
              "stdout_match": len(digests) == 1, "exit_codes": sorted(codes)}
    print(json.dumps(report))
    return 0 if report["stdout_match"] and codes == {0} else 1


if __name__ == "__main__":
    sys.exit(main())
